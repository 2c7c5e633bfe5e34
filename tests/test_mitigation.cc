/**
 * @file
 * Tests of readout-error mitigation (confusion calibration +
 * unfolding) and a property test that the parameter-shift rule used
 * by the GD optimizer computes exact gradients for our gate set.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "quantum/ansatz.hh"
#include "quantum/backend.hh"
#include "quantum/molecule.hh"
#include "quantum/statevector.hh"
#include "vqa/cost.hh"
#include "vqa/mitigation.hh"

using namespace qtenon;
using namespace qtenon::vqa;
using quantum::ParamRef;
using qtenon::sim::Rng;

TEST(Mitigation, ConfusionCorrectionAlgebra)
{
    ConfusionMatrix c{0.02, 0.08};
    // true p = 0.4: measured = 0.4*0.92 + 0.6*0.02 = 0.38.
    EXPECT_NEAR(c.correct(0.38), 0.4, 1e-12);
    // Identity confusion is a no-op.
    ConfusionMatrix ident{};
    EXPECT_DOUBLE_EQ(ident.correct(0.73), 0.73);
    // Clamped to [0, 1].
    EXPECT_DOUBLE_EQ(c.correct(0.0), 0.0);
    EXPECT_DOUBLE_EQ(c.correct(1.0), 1.0);
}

namespace {

/** @p shots readout words of @p c through readout error @p e. */
std::vector<std::uint64_t>
noisyShots(const quantum::QuantumCircuit &c, std::size_t shots,
           double e, Rng &rng)
{
    quantum::BackendConfig cfg;
    cfg.kind = quantum::BackendKind::Statevector;
    auto b = quantum::makeBackend(c.numQubits(), cfg);
    b->run(c);
    auto words = b->sample(shots, rng);
    quantum::applyReadoutError(words, c.numQubits(), e, rng);
    return words;
}

/** Confusion calibration from noisy |0...0> and |1...1> runs. */
std::vector<ConfusionMatrix>
calibrateAt(std::uint32_t n, std::size_t shots, double e, Rng &rng)
{
    quantum::QuantumCircuit zeros(n);
    quantum::QuantumCircuit ones(n);
    for (std::uint32_t q = 0; q < n; ++q)
        ones.x(q);
    const auto zero_shots = noisyShots(zeros, shots, e, rng);
    const auto one_shots = noisyShots(ones, shots, e, rng);
    return ReadoutMitigator::calibrate(zero_shots, one_shots, n);
}

} // namespace

TEST(Mitigation, CalibrationRecoversInjectedError)
{
    Rng rng(81);
    auto confusion = calibrateAt(4, 20000, 0.07, rng);
    for (const auto &c : confusion) {
        EXPECT_NEAR(c.p01, 0.07, 0.01);
        EXPECT_NEAR(c.p10, 0.07, 0.01);
    }
}

TEST(Mitigation, CorrectionRecoversTrueMarginal)
{
    const double theta = 1.3;
    const double true_p1 =
        std::sin(theta / 2.0) * std::sin(theta / 2.0);

    Rng rng(82);
    ReadoutMitigator mit(calibrateAt(1, 30000, 0.1, rng));

    quantum::QuantumCircuit c(1);
    c.ry(0, ParamRef::literal(theta));
    auto shots = noisyShots(c, 30000, 0.1, rng);

    // Raw estimate is biased toward 0.5; corrected is not.
    double raw = 0.0;
    for (auto s : shots)
        raw += (s & 1) ? 1.0 : 0.0;
    raw /= static_cast<double>(shots.size());
    EXPECT_GT(std::abs(raw - true_p1), 0.02);

    const auto corrected = mit.correctedMarginals(shots);
    EXPECT_NEAR(corrected[0], true_p1, 0.015);
    EXPECT_NEAR(mit.correctedExpectationZ(shots, 0),
                1.0 - 2.0 * true_p1, 0.03);
}

TEST(ParameterShift, RuleIsExactForSingleUseParameters)
{
    // d<cost>/dtheta must equal [C(t + pi/2) - C(t - pi/2)] / 2 for
    // rotation-generated gates whose parameter appears once (true of
    // the hardware-efficient VQE/QNN ansaetze); verify against a
    // numerical derivative on a real energy landscape.

    auto h = quantum::syntheticMolecule(4);
    auto c = quantum::ansatz::hardwareEfficient(4, 2,
                                                /*measure=*/false);
    HamiltonianCost cost(h);

    auto params = c.parameters();
    for (std::size_t i = 0; i < params.size(); ++i)
        params[i] = 0.2 + 0.1 * static_cast<double>(i);

    auto eval = [&](const std::vector<double> &p) {
        c.setParameters(p);
        return cost.exactFromCircuit(c);
    };

    for (std::size_t p = 0; p < params.size(); p += 3) {
        auto probe = params;
        probe[p] = params[p] + M_PI / 2.0;
        const double plus = eval(probe);
        probe[p] = params[p] - M_PI / 2.0;
        const double minus = eval(probe);
        const double shift = (plus - minus) / 2.0;

        const double h_eps = 1e-5;
        probe[p] = params[p] + h_eps;
        const double up = eval(probe);
        probe[p] = params[p] - h_eps;
        const double down = eval(probe);
        const double numeric = (up - down) / (2.0 * h_eps);

        EXPECT_NEAR(shift, numeric, 1e-5) << "parameter " << p;
    }
}
