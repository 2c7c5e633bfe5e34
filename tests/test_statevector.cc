/**
 * @file
 * Functional verification of the dense statevector simulator against
 * analytically known states, plus property tests (norm preservation,
 * sampling statistics) over parameter sweeps.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "config_error.hh"
#include "quantum/circuit.hh"
#include "quantum/statevector.hh"
#include "sim/random.hh"

using namespace qtenon::quantum;
using qtenon::sim::Rng;

namespace {

constexpr double eps = 1e-10;

} // namespace

TEST(StateVector, StartsInZero)
{
    StateVector sv(3);
    EXPECT_NEAR(sv.probability(0), 1.0, eps);
    EXPECT_NEAR(sv.normSquared(), 1.0, eps);
}

TEST(StateVector, HadamardMakesEqualSuperposition)
{
    QuantumCircuit c(1);
    c.h(0);
    StateVector sv(1);
    sv.applyCircuit(c);
    EXPECT_NEAR(sv.probability(0), 0.5, eps);
    EXPECT_NEAR(sv.probability(1), 0.5, eps);
}

TEST(StateVector, PauliXFlips)
{
    QuantumCircuit c(2);
    c.x(1);
    StateVector sv(2);
    sv.applyCircuit(c);
    EXPECT_NEAR(sv.probability(0b10), 1.0, eps);
}

TEST(StateVector, BellStateViaCnot)
{
    QuantumCircuit c(2);
    c.h(0);
    c.cnot(0, 1);
    StateVector sv(2);
    sv.applyCircuit(c);
    EXPECT_NEAR(sv.probability(0b00), 0.5, eps);
    EXPECT_NEAR(sv.probability(0b11), 0.5, eps);
    EXPECT_NEAR(sv.probability(0b01), 0.0, eps);
    EXPECT_NEAR(sv.expectationZZ(0, 1), 1.0, eps);
}

TEST(StateVector, CzPhasesOnlyOnes)
{
    QuantumCircuit c(2);
    c.x(0);
    c.x(1);
    c.cz(0, 1);
    StateVector sv(2);
    sv.applyCircuit(c);
    EXPECT_NEAR(sv.amplitude(0b11).real(), -1.0, eps);
}

class RotationAngles : public ::testing::TestWithParam<double>
{};

TEST_P(RotationAngles, RyMatchesAnalyticProbability)
{
    const double theta = GetParam();
    QuantumCircuit c(1);
    c.ry(0, ParamRef::literal(theta));
    StateVector sv(1);
    sv.applyCircuit(c);
    const double expect_one = std::sin(theta / 2.0) *
        std::sin(theta / 2.0);
    EXPECT_NEAR(sv.marginalOne(0), expect_one, eps);
}

TEST_P(RotationAngles, RxMatchesAnalyticProbability)
{
    const double theta = GetParam();
    QuantumCircuit c(1);
    c.rx(0, ParamRef::literal(theta));
    StateVector sv(1);
    sv.applyCircuit(c);
    const double expect_one = std::sin(theta / 2.0) *
        std::sin(theta / 2.0);
    EXPECT_NEAR(sv.marginalOne(0), expect_one, eps);
}

TEST_P(RotationAngles, RzPreservesPopulations)
{
    const double theta = GetParam();
    QuantumCircuit c(1);
    c.h(0);
    c.rz(0, ParamRef::literal(theta));
    StateVector sv(1);
    sv.applyCircuit(c);
    EXPECT_NEAR(sv.marginalOne(0), 0.5, eps);
    EXPECT_NEAR(sv.normSquared(), 1.0, eps);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RotationAngles,
                         ::testing::Values(0.0, 0.3, M_PI / 2, 1.7,
                                           M_PI, 2.9, 2 * M_PI, -1.1));

TEST(StateVector, RzzEqualsCnotRzCnot)
{
    const double theta = 0.7;
    QuantumCircuit direct(2);
    direct.h(0);
    direct.h(1);
    direct.rzz(0, 1, ParamRef::literal(theta));

    QuantumCircuit decomposed(2);
    decomposed.h(0);
    decomposed.h(1);
    decomposed.cnot(0, 1);
    decomposed.rz(1, ParamRef::literal(theta));
    decomposed.cnot(0, 1);

    StateVector a(2), b(2);
    a.applyCircuit(direct);
    b.applyCircuit(decomposed);
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(std::abs(a.amplitude(i) - b.amplitude(i)), 0.0,
                    1e-9)
            << "basis " << i;
    }
}

TEST(StateVector, SdgUndoesS)
{
    QuantumCircuit c(1);
    c.h(0);
    c.gate(GateType::S, 0);
    c.gate(GateType::Sdg, 0);
    c.h(0);
    StateVector sv(1);
    sv.applyCircuit(c);
    EXPECT_NEAR(sv.probability(0), 1.0, eps);
}

TEST(StateVector, NormPreservedUnderRandomCircuits)
{
    Rng rng(1234);
    for (int trial = 0; trial < 10; ++trial) {
        QuantumCircuit c(4);
        for (int g = 0; g < 40; ++g) {
            const auto q = static_cast<std::uint32_t>(rng.index(4));
            switch (rng.index(5)) {
              case 0: c.h(q); break;
              case 1:
                c.rx(q, ParamRef::literal(rng.uniform(-3, 3)));
                break;
              case 2:
                c.rz(q, ParamRef::literal(rng.uniform(-3, 3)));
                break;
              case 3:
                c.cz(q, (q + 1) % 4);
                break;
              default:
                c.cnot(q, (q + 2) % 4);
                break;
            }
        }
        StateVector sv(4);
        sv.applyCircuit(c);
        EXPECT_NEAR(sv.normSquared(), 1.0, 1e-9);
    }
}

TEST(StateVector, SamplingMatchesDistribution)
{
    QuantumCircuit c(2);
    c.ry(0, ParamRef::literal(2.0 * std::asin(std::sqrt(0.3))));
    StateVector sv(2);
    sv.applyCircuit(c);

    Rng rng(99);
    const std::size_t shots = 20000;
    auto outcomes = sv.sample(shots, rng);
    ASSERT_EQ(outcomes.size(), shots);
    double ones = 0;
    for (auto o : outcomes) {
        EXPECT_LT(o, 4u);
        if (o & 1)
            ++ones;
    }
    EXPECT_NEAR(ones / shots, 0.3, 0.02);
}

TEST(StateVector, SamplingIsDeterministicPerSeed)
{
    QuantumCircuit c(3);
    c.h(0);
    c.h(1);
    c.h(2);
    StateVector sv(3);
    sv.applyCircuit(c);
    Rng r1(5), r2(5);
    EXPECT_EQ(sv.sample(100, r1), sv.sample(100, r2));
}

TEST(StateVector, ExpectationZSigns)
{
    QuantumCircuit c(2);
    c.x(0);
    StateVector sv(2);
    sv.applyCircuit(c);
    EXPECT_NEAR(sv.expectationZ(0), -1.0, eps);
    EXPECT_NEAR(sv.expectationZ(1), 1.0, eps);
    EXPECT_NEAR(sv.expectationZZ(0, 1), -1.0, eps);
}

TEST(StateVectorDeath, RejectsOversizedRegisters)
{
    EXPECT_CONFIG_ERROR(StateVector(30, 24), "cap");
}

TEST(StateVector, SampleFromUniformsMatchesSampleStream)
{
    QuantumCircuit c(3);
    c.h(0);
    c.h(1);
    c.h(2);
    StateVector sv(3);
    sv.applyCircuit(c);
    Rng rng(9);
    std::vector<double> uniforms(64);
    for (auto &u : uniforms)
        u = rng.uniform();
    Rng rng2(9);
    EXPECT_EQ(sv.sampleFromUniforms(uniforms), sv.sample(64, rng2));
}

TEST(StateVector, SampleTailLandsOnNonzeroBasis)
{
    // Only qubit 0 is touched, so bases 2..7 carry zero amplitude.
    // Rotate until rounding pushes the total probability mass
    // strictly below 1, leaving a CDF gap a uniform can land in.
    StateVector sv(3);
    for (double theta : {0.3, 0.7, 1.1, 1.9, 2.5, 3.1}) {
        StateVector trial(3);
        QuantumCircuit c(3);
        c.rx(0, ParamRef::literal(theta));
        c.ry(0, ParamRef::literal(theta * 0.7));
        c.rz(0, ParamRef::literal(theta * 1.3));
        for (int i = 0; i < 200 && trial.normSquared() >= 1.0; ++i)
            trial.applyCircuit(c);
        if (trial.normSquared() < 1.0) {
            sv = trial;
            break;
        }
    }
    ASSERT_LT(sv.normSquared(), 1.0);

    // A uniform past the accumulated mass takes the leftover path,
    // which must land on the last basis with nonzero probability
    // (basis 1), never on the zero-amplitude tail (basis 7).
    const double u = (sv.normSquared() + 1.0) / 2.0;
    ASSERT_LT(u, 1.0);
    const auto out = sv.sampleFromUniforms({u});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GT(sv.probability(out[0]), 0.0);
    EXPECT_EQ(out[0], 1u);
}

TEST(StateVector, SampleRoundingTailOnAdversarialNearZeroTail)
{
    // Adversarial distribution for the rounding-tail path: almost
    // all mass on |000>, a *near-zero* (but strictly positive)
    // ~1e-15-scale tail on bases 2..3, and exactly zero amplitude
    // on bases 4..7. First drive the total mass strictly below 1
    // via rounding drift (as in SampleTailLandsOnNonzeroBasis)...
    StateVector sv(3);
    for (double theta : {0.3, 0.7, 1.1, 1.9, 2.5, 3.1}) {
        StateVector trial(3);
        QuantumCircuit c(3);
        c.rx(0, ParamRef::literal(theta));
        c.ry(0, ParamRef::literal(theta * 0.7));
        c.rz(0, ParamRef::literal(theta * 1.3));
        for (int i = 0; i < 200 && trial.normSquared() >= 1.0; ++i)
            trial.applyCircuit(c);
        if (trial.normSquared() < 1.0) {
            sv = trial;
            break;
        }
    }
    ASSERT_LT(sv.normSquared(), 1.0);

    // ...then graft the near-zero tail: a tiny RY on qubit 1
    // scatters ~2.5e-15 of the mass onto bases 2 and 3, making
    // basis 3 the last nonzero-probability basis by a margin of
    // ~15 orders of magnitude.
    QuantumCircuit tail(3);
    tail.ry(1, ParamRef::literal(1e-7));
    sv.applyCircuit(tail);
    ASSERT_LT(sv.normSquared(), 1.0);
    ASSERT_GT(sv.probability(3), 0.0);
    ASSERT_LT(sv.probability(3), 1e-14);
    ASSERT_EQ(sv.probability(7), 0.0);

    // The largest double below 1.0 is >= the accumulated mass
    // (normSquared() sums in the same order as the sampler's CDF),
    // so it deterministically takes the leftover path — which must
    // find basis 3, never the zero-amplitude bases 4..7 a naive
    // "last basis" fallback would return. The ordinary draw mixed
    // in checks per-index assignment survives the internal sort.
    const double u = std::nextafter(1.0, 0.0);
    ASSERT_GE(u, sv.normSquared());
    const auto out = sv.sampleFromUniforms({0.0, u});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0u);
    EXPECT_EQ(out[1], 3u);
    EXPECT_GT(sv.probability(out[1]), 0.0);
}
