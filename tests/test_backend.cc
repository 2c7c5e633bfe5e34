/**
 * @file
 * Backend-layer tests: randomized cross-validation of the optimized
 * statevector kernels against the frozen reference scalar kernels
 * (reference_statevector.hh), and interface conformance for all four
 * engines behind quantum::Backend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <thread>

#include "quantum/ansatz.hh"
#include "quantum/backend.hh"
#include "quantum/statevector.hh"
#include "random_circuit.hh"
#include "reference_statevector.hh"
#include "sim/random.hh"

using namespace qtenon::quantum;
using qtenon::sim::Rng;
using qtenon::tests::randomCircuit;
using qtenon::tests::ReferenceStateVector;

namespace {

/** A backend of @p kind, sized for @p c, with @p c run on it. */
std::unique_ptr<Backend>
runOn(BackendKind kind, const QuantumCircuit &c)
{
    BackendConfig cfg;
    cfg.kind = kind;
    auto b = makeBackend(c.numQubits(), cfg);
    b->run(c);
    return b;
}

void
expectMatchesReference(const StateVector &sv,
                       const ReferenceStateVector &ref,
                       double tol)
{
    ASSERT_EQ(sv.dim(), ref.dim());
    for (std::uint64_t i = 0; i < sv.dim(); ++i) {
        const auto a = sv.amplitude(i);
        const auto r = ref.amplitude(i);
        if (tol == 0.0) {
            EXPECT_EQ(a.real(), r.real()) << "basis " << i;
            EXPECT_EQ(a.imag(), r.imag()) << "basis " << i;
        } else {
            EXPECT_NEAR(a.real(), r.real(), tol) << "basis " << i;
            EXPECT_NEAR(a.imag(), r.imag(), tol) << "basis " << i;
        }
    }
}

void
crossValidate(KernelConfig kernel, double tol, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::uint32_t n : {1u, 2u, 3u, 5u, 7u}) {
        const auto c = randomCircuit(n, 80, rng);
        StateVector sv(n, StateVector::defaultMaxQubits, kernel);
        sv.applyCircuit(c);
        ReferenceStateVector ref(n);
        ref.applyCircuit(c);
        expectMatchesReference(sv, ref, tol);
        EXPECT_NEAR(sv.normSquared(), 1.0, 1e-9);
    }
}

} // namespace

TEST(KernelCrossValidation, DefaultConfigIsBitIdentical)
{
    // Pair-loop + diagonal kernels compute the exact same arithmetic
    // per amplitude as the reference scalar kernels.
    crossValidate(KernelConfig{}, 0.0, 11);
}

TEST(KernelCrossValidation, FusionMatchesToTolerance)
{
    // Fusion reassociates 2x2 products: last-ulp differences only.
    KernelConfig k;
    k.fuse1q = true;
    crossValidate(k, 1e-12, 22);
}

TEST(KernelCrossValidation, ThreadedKernelsAreBitIdentical)
{
    // Contiguous disjoint blocks: threading never changes values.
    for (unsigned threads : {2u, 4u}) {
        KernelConfig k;
        k.threads = threads;
        k.parallelMinQubits = 0;
        crossValidate(k, 0.0, 33 + threads);
    }
}

TEST(KernelCrossValidation, FusionPlusThreadsMatchesToTolerance)
{
    KernelConfig k;
    k.fuse1q = true;
    k.threads = 4;
    k.parallelMinQubits = 0;
    crossValidate(k, 1e-12, 44);
}

TEST(KernelThreads, CapClampsResolution)
{
    setKernelThreadCap(2);
    EXPECT_EQ(resolveKernelThreads(8), 2u);
    EXPECT_EQ(resolveKernelThreads(1), 1u);
    setKernelThreadCap(0);
    EXPECT_EQ(resolveKernelThreads(3), 3u);
}

TEST(KernelThreads, AutoClampsToHardwareAndCap)
{
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());

    // threads == 0 ("auto") never exceeds the hardware width even
    // with no scheduler cap installed...
    setKernelThreadCap(0);
    EXPECT_EQ(resolveKernelThreads(0), hw);

    // ...and is clamped by whichever of {cap, hardware} is tighter.
    setKernelThreadCap(1);
    EXPECT_EQ(resolveKernelThreads(0), 1u);
    setKernelThreadCap(hw + 8);
    EXPECT_EQ(resolveKernelThreads(0), hw);

    // Explicit requests are honoured beyond the hardware width
    // (determinism tests deliberately oversubscribe single-core
    // machines) but still respect the scheduler budget.
    setKernelThreadCap(0);
    EXPECT_EQ(resolveKernelThreads(hw + 7), hw + 7);
    setKernelThreadCap(2);
    EXPECT_EQ(resolveKernelThreads(hw + 7), 2u);

    // Degenerate caps still resolve to at least one thread.
    setKernelThreadCap(0);
    EXPECT_GE(resolveKernelThreads(0), 1u);
    EXPECT_GE(resolveKernelThreads(1), 1u);
}

TEST(BackendKindNames, RoundTripAndAliases)
{
    for (BackendKind k :
         {BackendKind::Auto, BackendKind::Statevector,
          BackendKind::MeanField, BackendKind::Stabilizer,
          BackendKind::DensityMatrix}) {
        EXPECT_EQ(backendKindFromName(backendKindName(k)), k);
    }
    EXPECT_EQ(backendKindFromName("sv"), BackendKind::Statevector);
    EXPECT_EQ(backendKindFromName("mf"), BackendKind::MeanField);
    EXPECT_EQ(backendKindFromName("mean-field"),
              BackendKind::MeanField);
    EXPECT_EQ(backendKindFromName("stab"), BackendKind::Stabilizer);
    EXPECT_EQ(backendKindFromName("dm"), BackendKind::DensityMatrix);
    EXPECT_EQ(backendKindFromName("density-matrix"),
              BackendKind::DensityMatrix);
    EXPECT_EXIT(backendKindFromName("qpu"),
                ::testing::ExitedWithCode(1), "unknown backend");
}

TEST(BackendPolicy, AutoSelectsByQubitCount)
{
    EXPECT_EQ(resolveBackendKind(BackendKind::Auto, 20, 20),
              BackendKind::Statevector);
    EXPECT_EQ(resolveBackendKind(BackendKind::Auto, 21, 20),
              BackendKind::MeanField);
    // Explicit kinds pass through.
    EXPECT_EQ(resolveBackendKind(BackendKind::Stabilizer, 100, 20),
              BackendKind::Stabilizer);
    EXPECT_EQ(resolveBackendKind(BackendKind::MeanField, 4, 20),
              BackendKind::MeanField);
}

TEST(BackendPolicy, ForcedKindValidatesCapacity)
{
    EXPECT_EXIT(
        resolveBackendKind(BackendKind::DensityMatrix, 16, 20),
        ::testing::ExitedWithCode(1), "density-matrix");
}

TEST(BackendFactory, BuildsEveryKind)
{
    BackendConfig cfg;
    for (BackendKind k :
         {BackendKind::Statevector, BackendKind::MeanField,
          BackendKind::Stabilizer, BackendKind::DensityMatrix}) {
        cfg.kind = k;
        auto b = makeBackend(4, cfg);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(b->kind(), k);
        EXPECT_STREQ(b->name(), backendKindName(k));
        EXPECT_EQ(b->numQubits(), 4u);
        EXPECT_EQ(b->exact(), k != BackendKind::MeanField);
    }
}

namespace {

/** Bell pair on qubits 0,1 (identity on the rest). */
QuantumCircuit
bellCircuit(std::uint32_t n)
{
    QuantumCircuit c(n);
    c.h(0);
    c.cnot(0, 1);
    return c;
}

} // namespace

TEST(BackendConformance, EveryEngineRunsTheInterface)
{
    Hamiltonian h(2);
    h.addTerm(1.0, PauliString::parse("Z0"));
    h.addTerm(0.5, PauliString::parse("Z0 Z1"));
    h.addIdentity(0.25);

    BackendConfig cfg;
    for (BackendKind k :
         {BackendKind::Statevector, BackendKind::MeanField,
          BackendKind::Stabilizer, BackendKind::DensityMatrix}) {
        cfg.kind = k;
        auto b = makeBackend(2, cfg);
        b->run(bellCircuit(2));

        Rng rng(5);
        const auto shots = b->sample(200, rng);
        ASSERT_EQ(shots.size(), 200u);
        for (auto s : shots)
            EXPECT_LT(s, 4u);

        const auto p1 = b->marginals();
        ASSERT_EQ(p1.size(), 2u);
        for (double p : p1) {
            EXPECT_GE(p, 0.0);
            EXPECT_LE(p, 1.0);
        }
        EXPECT_NEAR(b->expectationZ(0), 1.0 - 2.0 * p1[0], 1e-9);
        const double zz = b->expectationZZ(0, 1);
        EXPECT_GE(zz, -1.0 - 1e-12);
        EXPECT_LE(zz, 1.0 + 1e-12);
        // Engine-consistent Hamiltonian expectation.
        EXPECT_NEAR(b->expectation(h),
                    0.25 + b->expectationZ(0) + 0.5 * zz, 1e-9);
    }
}

TEST(BackendConformance, ExactEnginesAgreeOnBellState)
{
    BackendConfig cfg;
    for (BackendKind k :
         {BackendKind::Statevector, BackendKind::Stabilizer,
          BackendKind::DensityMatrix}) {
        cfg.kind = k;
        auto b = makeBackend(3, cfg);
        b->run(bellCircuit(3));
        EXPECT_NEAR(b->marginalOne(0), 0.5, 1e-12) << b->name();
        EXPECT_NEAR(b->marginalOne(1), 0.5, 1e-12) << b->name();
        EXPECT_NEAR(b->marginalOne(2), 0.0, 1e-12) << b->name();
        EXPECT_NEAR(b->expectationZ(0), 0.0, 1e-12) << b->name();
        EXPECT_NEAR(b->expectationZZ(0, 1), 1.0, 1e-12) << b->name();
        EXPECT_NEAR(b->expectationZZ(0, 2), 0.0, 1e-12) << b->name();
    }
}

TEST(BackendConformance, StabilizerPauliExpectations)
{
    // Bell state: <XX> = 1, <YY> = -1, <ZZ> = 1, <Z0> = 0.
    Hamiltonian xx(2), yy(2);
    xx.addTerm(1.0, PauliString::parse("X0 X1"));
    yy.addTerm(1.0, PauliString::parse("Y0 Y1"));

    BackendConfig cfg;
    cfg.kind = BackendKind::Stabilizer;
    auto b = makeBackend(2, cfg);
    b->run(bellCircuit(2));
    EXPECT_DOUBLE_EQ(b->expectation(xx), 1.0);
    EXPECT_DOUBLE_EQ(b->expectation(yy), -1.0);

    // Cross-check against the dense statevector.
    cfg.kind = BackendKind::Statevector;
    auto sv = makeBackend(2, cfg);
    sv->run(bellCircuit(2));
    EXPECT_NEAR(sv->expectation(xx), 1.0, 1e-12);
    EXPECT_NEAR(sv->expectation(yy), -1.0, 1e-12);
}

TEST(BackendConformance, RunResetsInPlace)
{
    BackendConfig cfg;
    for (BackendKind k :
         {BackendKind::Statevector, BackendKind::MeanField,
          BackendKind::Stabilizer, BackendKind::DensityMatrix}) {
        cfg.kind = k;
        auto b = makeBackend(2, cfg);

        QuantumCircuit flip(2);
        flip.x(0);
        b->run(flip);
        EXPECT_NEAR(b->marginalOne(0), 1.0, 1e-12) << b->name();

        // A second run must start from |00>, not the flipped state.
        QuantumCircuit idle(2);
        b->run(idle);
        EXPECT_NEAR(b->marginalOne(0), 0.0, 1e-12) << b->name();
    }
}

TEST(BackendConformance, StatevectorAccessor)
{
    BackendConfig cfg;
    cfg.kind = BackendKind::Statevector;
    auto sv = makeBackend(2, cfg);
    EXPECT_NE(sv->stateVector(), nullptr);
    cfg.kind = BackendKind::MeanField;
    auto mf = makeBackend(2, cfg);
    EXPECT_EQ(mf->stateVector(), nullptr);
}

TEST(BackendConformance, MeanFieldProductExpectations)
{
    // RY(theta) on each qubit: <Z> = cos(theta), <ZZ> factorizes.
    const double t0 = 0.7, t1 = -1.3;
    QuantumCircuit c(2);
    c.ry(0, ParamRef::literal(t0));
    c.ry(1, ParamRef::literal(t1));

    BackendConfig cfg;
    cfg.kind = BackendKind::MeanField;
    auto b = makeBackend(2, cfg);
    b->run(c);
    EXPECT_NEAR(b->expectationZ(0), std::cos(t0), 1e-9);
    EXPECT_NEAR(b->expectationZ(1), std::cos(t1), 1e-9);
    EXPECT_NEAR(b->expectationZZ(0, 1),
                std::cos(t0) * std::cos(t1), 1e-9);
}

// ---------------------------------------------------------------
// Readout-error cross-validation: the statevector and
// density-matrix engines, each seen through the analytic readout-
// error model, must report identical noisy marginals — and both
// must match the closed form p' = p (1 - e) + (1 - p) e computed
// against the exact amplitudes.

TEST(ReadoutErrorCrossValidation, DmMatchesSvAnalytically)
{
    constexpr std::uint32_t n = 5;
    constexpr double flip = 0.037;

    Rng rng(0xE7);
    for (int trial = 0; trial < 10; ++trial) {
        // A random entangling circuit (rotations + CNOT ring).
        QuantumCircuit c(n);
        for (std::uint32_t q = 0; q < n; ++q) {
            c.ry(q, ParamRef::literal(rng.uniform(-3, 3)));
            c.rz(q, ParamRef::literal(rng.uniform(-3, 3)));
        }
        for (std::uint32_t q = 0; q < n; ++q)
            c.cnot(q, (q + 1) % n);
        for (std::uint32_t q = 0; q < n; ++q)
            c.rx(q, ParamRef::literal(rng.uniform(-3, 3)));
        c.measureAll();

        auto sv = runOn(BackendKind::Statevector, c);
        auto dm = runOn(BackendKind::DensityMatrix, c);

        // The exact noiseless marginals, for the closed form.
        StateVector exact(n);
        exact.applyCircuit(c);

        for (std::uint32_t q = 0; q < n; ++q) {
            const double p = exact.marginalOne(q);
            const double expected = p * (1.0 - flip) +
                                    (1.0 - p) * flip;
            const double p_sv = readoutMarginal(sv->marginalOne(q), flip);
            const double p_dm = readoutMarginal(dm->marginalOne(q), flip);
            EXPECT_NEAR(p_sv, expected, 1e-10)
                << "trial " << trial << " qubit " << q;
            EXPECT_NEAR(p_dm, expected, 1e-10)
                << "trial " << trial << " qubit " << q;
            EXPECT_NEAR(p_sv, p_dm, 1e-10)
                << "trial " << trial << " qubit " << q;
        }
    }
}

// ---------------------------------------------------------------
// Mean-field vs statevector differential: where every qubit meets
// at most one entangler, the product-state reduced dynamics are
// exact, so the two engines must agree on every marginal.

namespace {

struct DifferentialCase {
    const char *name;
    std::vector<QuantumCircuit> (*circuits)();
};

void
PrintTo(const DifferentialCase &c, std::ostream *os)
{
    *os << c.name;
}

/** No entanglers at all. */
std::vector<QuantumCircuit>
productCircuits()
{
    QuantumCircuit c(3);
    c.rx(0, ParamRef::literal(0.8));
    c.ry(1, ParamRef::literal(1.3));
    c.h(2);
    return {c};
}

/** One RZZ between |+> states, then a local rotation. */
std::vector<QuantumCircuit>
singleRzzCircuits()
{
    std::vector<QuantumCircuit> out;
    for (double theta : {0.3, 1.0, 2.2}) {
        for (double beta : {0.4, 1.5}) {
            QuantumCircuit c(2);
            c.h(0);
            c.h(1);
            c.rzz(0, 1, ParamRef::literal(theta));
            c.rx(0, ParamRef::literal(beta));
            out.push_back(c);
        }
    }
    return out;
}

std::vector<QuantumCircuit>
singleCzCircuits()
{
    QuantumCircuit c(2);
    c.ry(0, ParamRef::literal(0.9));
    c.ry(1, ParamRef::literal(1.7));
    c.cz(0, 1);
    c.ry(0, ParamRef::literal(0.6));
    return {c};
}

std::vector<QuantumCircuit>
singleCnotCircuits()
{
    QuantumCircuit c(2);
    c.ry(0, ParamRef::literal(1.1));
    c.cnot(0, 1);
    return {c};
}

/** Random local layers around one RZZ or CZ per disjoint pair. */
std::vector<QuantumCircuit>
randomSingleEntanglerCircuits()
{
    Rng rng(48);
    std::vector<QuantumCircuit> out;
    for (int trial = 0; trial < 20; ++trial) {
        QuantumCircuit c(6);
        for (std::uint32_t q = 0; q < 6; ++q) {
            c.ry(q, ParamRef::literal(rng.uniform(-2, 2)));
            c.rz(q, ParamRef::literal(rng.uniform(-2, 2)));
        }
        for (std::uint32_t q = 0; q < 6; q += 2) {
            if (rng.coin(0.5))
                c.rzz(q, q + 1, ParamRef::literal(rng.uniform(-2, 2)));
            else
                c.cz(q, q + 1);
        }
        for (std::uint32_t q = 0; q < 6; ++q)
            c.rx(q, ParamRef::literal(rng.uniform(-2, 2)));
        out.push_back(c);
    }
    return out;
}

const DifferentialCase differentialCases[] = {
    {"product", productCircuits},
    {"single_rzz", singleRzzCircuits},
    {"single_cz", singleCzCircuits},
    {"single_cnot", singleCnotCircuits},
    {"random_single_entangler", randomSingleEntanglerCircuits},
};

class MeanFieldDifferential
    : public ::testing::TestWithParam<DifferentialCase>
{};

} // namespace

TEST_P(MeanFieldDifferential, MatchesStatevector)
{
    const auto circuits = GetParam().circuits();
    for (std::size_t i = 0; i < circuits.size(); ++i) {
        const auto &c = circuits[i];
        auto exact = runOn(BackendKind::Statevector, c);
        auto mf = runOn(BackendKind::MeanField, c);
        for (std::uint32_t q = 0; q < c.numQubits(); ++q) {
            EXPECT_NEAR(mf->marginalOne(q), exact->marginalOne(q), 1e-9)
                << "circuit " << i << " qubit " << q;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Cases, MeanFieldDifferential,
                         ::testing::ValuesIn(differentialCases));

// ---------------------------------------------------------------
// Mean-field engine behaviour beyond the exact regime.

TEST(MeanFieldBackend, GoldenSampleWordsAndMarginals)
{
    // Pins the engine's output bit for bit: every gate kind of the
    // Bloch evolution, then the per-shot, per-qubit coin order of
    // sample(). Figures and digests above the exact cap depend on
    // these bits, so a change to the arithmetic or the draw order
    // must show here first.
    QuantumCircuit c(10);
    for (std::uint32_t q = 0; q < 10; ++q) {
        c.ry(q, ParamRef::literal(0.3 + 0.17 * q));
        c.rz(q, ParamRef::literal(-0.4 + 0.11 * q));
    }
    c.h(0);
    c.x(1);
    c.gate(GateType::Y, 2);
    c.gate(GateType::Z, 3);
    c.gate(GateType::S, 4);
    c.gate(GateType::Sdg, 5);
    c.gate(GateType::T, 6);
    c.gate(GateType::I, 7);
    c.rzz(0, 1, ParamRef::literal(0.7));
    c.cz(2, 3);
    c.cnot(4, 5);
    c.rx(6, ParamRef::literal(1.1));
    c.cnot(7, 8);
    c.rzz(8, 9, ParamRef::literal(-1.3));
    c.cz(9, 0);
    c.rzz(1, 2, ParamRef::literal(0.45));
    c.measureAll();

    auto mf = runOn(BackendKind::MeanField, c);
    const double marginals[10] = {
        0x1.74a33b815afd7p-2, 0x1.e43dd1bff31bap-1,
        0x1.cd5625c85f954p-1, 0x1.3df41f6f50e4ep-3,
        0x1.c59be1aa0492cp-3, 0x1.8b804ec7ef778p-2,
        0x1.1fd5a9566e3e8p-4, 0x1.d6ad61dac05fcp-2,
        0x1.01d73345fd2b1p-1, 0x1.419d977871fd1p-1,
    };
    for (std::uint32_t q = 0; q < 10; ++q)
        EXPECT_EQ(mf->marginalOne(q), marginals[q]) << "qubit " << q;

    Rng rng(2025);
    const std::vector<std::uint64_t> words = {0x017, 0x106, 0x286,
                                              0x087, 0x306, 0x027};
    EXPECT_EQ(mf->sample(6, rng), words);
}

TEST(MeanFieldBackend, HandlesLargeRegisters)
{
    auto g = Graph::threeRegular(128);
    auto mf = runOn(BackendKind::MeanField, ansatz::qaoaMaxCut(g, 2, false));
    const double p = mf->marginalOne(64);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
}

TEST(MeanFieldBackend, SamplesFollowMarginals)
{
    QuantumCircuit c(2);
    c.ry(0, ParamRef::literal(2.0 * std::asin(std::sqrt(0.7))));
    auto mf = runOn(BackendKind::MeanField, c);
    Rng rng(3);
    auto shots = mf->sample(20000, rng);
    double ones = 0;
    for (auto s : shots)
        if (s & 1)
            ++ones;
    EXPECT_NEAR(ones / 20000.0, 0.7, 0.02);
}

TEST(MeanFieldBackend, ParameterSensitivityOnVqeAnsatz)
{
    // The optimizer needs cost movement under parameter change even
    // through the mean-field approximation. (QAOA marginals are
    // exactly 0.5 by the Z2 bit-flip symmetry, so the hardware-
    // efficient ansatz is the right probe here.)
    auto c = ansatz::hardwareEfficient(16, 2, false);
    std::vector<double> p(c.numParameters(), 0.1);
    c.setParameters(p);
    const double a = runOn(BackendKind::MeanField, c)->marginalOne(3);
    std::fill(p.begin(), p.end(), 0.9);
    c.setParameters(p);
    const double b = runOn(BackendKind::MeanField, c)->marginalOne(3);
    EXPECT_GT(std::abs(a - b), 1e-4);
}

TEST(MeanFieldBackend, QaoaMarginalsRespectBitFlipSymmetry)
{
    // MAX-CUT QAOA states are invariant under flipping every qubit,
    // so every per-qubit marginal must be exactly one half - which
    // the product-state model reproduces.
    auto g = Graph::threeRegular(8);
    auto c = ansatz::qaoaMaxCut(g, 2, false);
    c.setParameters({0.4, 0.7, 1.1, 0.2});
    auto mf = runOn(BackendKind::MeanField, c);
    for (std::uint32_t q = 0; q < 8; ++q)
        EXPECT_NEAR(mf->marginalOne(q), 0.5, 1e-9);
}

TEST(StatevectorBackend, MatchesMarginals)
{
    QuantumCircuit c(2);
    c.ry(0, ParamRef::literal(2.0 * std::asin(std::sqrt(0.25))));
    auto sv = runOn(BackendKind::Statevector, c);
    EXPECT_NEAR(sv->marginalOne(0), 0.25, 1e-10);
    EXPECT_NEAR(sv->marginalOne(1), 0.0, 1e-10);
}
