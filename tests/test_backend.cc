/**
 * @file
 * Backend-layer tests: randomized cross-validation of the optimized
 * statevector kernels against the frozen reference scalar kernels
 * (reference_statevector.hh), interface conformance for all four
 * engines behind quantum::Backend, and the prefix-checkpoint path
 * (runFromBase) against plain run().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <thread>

#include "config_error.hh"
#include "obs/metrics.hh"
#include "quantum/ansatz.hh"
#include "quantum/backend.hh"
#include "quantum/statevector.hh"
#include "random_circuit.hh"
#include "reference_statevector.hh"
#include "sim/random.hh"
#include "vqa/optimizer.hh"
#include "vqa/workload.hh"

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
    EXPECT_CONFIG_ERROR(backendKindFromName("qpu"), "unknown backend");
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
    EXPECT_CONFIG_ERROR(
        resolveBackendKind(BackendKind::DensityMatrix, 16, 20),
        "density-matrix");
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

// ---------------------------------------------------------------
// Prefix checkpoints: runFromBase(c, base) must leave exactly the
// amplitudes run(c) leaves, call after call, whatever sequence of
// probes, bases and circuits reaches it.

namespace {

/**
 * Runs each call through runFromBase on one statevector backend and
 * through run on a twin, and memcmp()s every amplitude afterwards.
 */
class CheckpointHarness
{
  public:
    CheckpointHarness(std::uint32_t n, KernelConfig kernel)
    {
        BackendConfig cfg;
        cfg.kind = BackendKind::Statevector;
        cfg.kernel = kernel;
        _fast = makeBackend(n, cfg);
        _ref = makeBackend(n, cfg);
    }

    /** One probe; returns the gates the checkpoint let it skip. */
    std::uint64_t
    check(const QuantumCircuit &c, const std::vector<double> &base)
    {
        auto &skipped = qtenon::obs::counter(
            "quantum.checkpoint.gates_skipped");
        const std::uint64_t before = skipped.value();
        _fast->runFromBase(c, base);
        const std::uint64_t n = skipped.value() - before;
        _ref->run(c);
        const StateVector &a = *_fast->stateVector();
        const StateVector &b = *_ref->stateVector();
        EXPECT_EQ(std::memcmp(&a.amplitude(0), &b.amplitude(0),
                              a.dim() * sizeof(StateVector::Amp)),
                  0)
            << "call " << _calls;
        ++_calls;
        _skipped += n;
        return n;
    }

    /** The reference engine, for scoring a probe. */
    Backend &reference() { return *_ref; }
    std::uint64_t skipped() const { return _skipped; }

  private:
    std::unique_ptr<Backend> _fast;
    std::unique_ptr<Backend> _ref;
    std::size_t _calls = 0;
    std::uint64_t _skipped = 0;
};

/** Drive @p opt for @p iterations on @p w, every probe checked. */
void
optimize(CheckpointHarness &h, qtenon::vqa::Workload &w,
         qtenon::vqa::Optimizer &opt, int iterations)
{
    auto params = w.circuit.parameters();
    for (int it = 0; it < iterations; ++it) {
        const auto base = params;
        opt.iterate(params, [&](const std::vector<double> &p) {
            w.circuit.setParameters(p);
            h.check(w.circuit, base);
            return w.cost->fromBackend(h.reference());
        });
    }
}

qtenon::vqa::Workload
workload(qtenon::vqa::Algorithm a, std::uint32_t n)
{
    qtenon::vqa::WorkloadConfig cfg;
    cfg.algorithm = a;
    cfg.numQubits = n;
    cfg.qaoaLayers = 2;
    cfg.vqeLayers = 2;
    return qtenon::vqa::Workload::build(cfg);
}

/** Two gradient-descent iterations of the paper workload. */
template <qtenon::vqa::Algorithm A, std::uint32_t N>
void
gdRow(CheckpointHarness &h)
{
    auto w = workload(A, N);
    qtenon::vqa::GradientDescent gd;
    optimize(h, w, gd, 2);
}

void
spsaStep(CheckpointHarness &h)
{
    auto w = workload(qtenon::vqa::Algorithm::Vqe, 8);
    qtenon::vqa::Spsa spsa;
    optimize(h, w, spsa, 1);
}

/** Parameter 1 drives gate 0; parameter 0 only comes later. */
void
outOfOrderParams(CheckpointHarness &h)
{
    QuantumCircuit c(4);
    const auto p0 = c.addParameter(0.3);
    const auto p1 = c.addParameter(0.7);
    const auto p2 = c.addParameter(1.1);
    c.ry(0, ParamRef::symbol(p1));
    c.h(1);
    c.cnot(0, 1);
    c.ry(2, ParamRef::symbol(p0));
    c.cz(1, 2);
    c.rx(3, ParamRef::symbol(p2));
    c.cnot(2, 3);
    c.ry(1, ParamRef::symbol(p1));
    Graph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 3);
    qtenon::vqa::Workload w;
    w.circuit = c;
    w.cost = std::make_unique<qtenon::vqa::MaxCutCost>(g);
    qtenon::vqa::GradientDescent gd;
    optimize(h, w, gd, 2);
}

/** One parameter on many gates, then a second on a few more. */
void
sharedParam(CheckpointHarness &h)
{
    QuantumCircuit c(6);
    const auto gamma = c.addParameter(0.4);
    const auto beta = c.addParameter(0.9);
    for (std::uint32_t q = 0; q < 6; ++q)
        c.h(q);
    for (std::uint32_t q = 0; q < 6; ++q)
        c.rzz(q, (q + 1) % 6, ParamRef::symbol(gamma));
    for (std::uint32_t q = 0; q < 6; ++q)
        c.rx(q, ParamRef::symbol(beta));
    for (std::uint32_t q = 0; q + 1 < 6; ++q)
        c.rzz(q, q + 1, ParamRef::symbol(gamma));
    const std::vector<double> base = c.parameters();
    for (double shift : {M_PI / 2.0, -M_PI / 2.0}) {
        for (std::uint32_t p : {gamma, beta}) {
            auto probe = base;
            probe[p] += shift;
            c.setParameters(probe);
            h.check(c, base);
        }
    }
}

/** A literal-only prefix is all an all-parameter perturbation keeps. */
void
literalPrefix(CheckpointHarness &h)
{
    Rng rng(91);
    auto c = randomCircuit(7, 40, rng);
    const std::size_t prefix = c.numGates();
    const auto a = c.addParameter(0.2);
    const auto b = c.addParameter(-0.6);
    c.ry(3, ParamRef::symbol(a));
    c.cnot(3, 4);
    c.rz(4, ParamRef::symbol(b));
    c.ry(0, ParamRef::symbol(a));
    const std::vector<double> base = c.parameters();
    for (double sign : {1.0, -1.0}) {
        c.setParameters({base[0] + sign * 0.1, base[1] - sign * 0.1});
        h.check(c, base);
    }
    EXPECT_EQ(h.skipped(), prefix);
}

/** A base that does not match the parameter table runs in full. */
void
wrongLengthBase(CheckpointHarness &h)
{
    auto w = workload(qtenon::vqa::Algorithm::Qnn, 6);
    auto &c = w.circuit;
    const std::vector<double> base = c.parameters();
    auto probe = base;
    probe.back() += 0.5;
    c.setParameters(probe);
    std::vector<double> shorter(base.begin(), base.end() - 1);
    std::vector<double> longer = base;
    longer.push_back(0.0);
    EXPECT_EQ(h.check(c, shorter), 0u);
    EXPECT_EQ(h.check(c, longer), 0u);
    EXPECT_EQ(h.check(c, {}), 0u);
    h.check(c, base);
    EXPECT_GT(h.check(c, base), 0u);
}

/** Different programs of equal length never share a checkpoint. */
void
structuralInvalidation(CheckpointHarness &h)
{
    auto c1 = ansatz::hardwareEfficient(6, 2, false);
    auto c2 = ansatz::hardwareEfficient(6, 2, false);
    // Same gate count and parameter table, other entangler operands.
    QuantumCircuit c3(6);
    for (std::uint32_t i = 0; i < c1.numParameters(); ++i)
        c3.addParameter();
    for (const auto &g : c1.gates()) {
        if (g.type == GateType::CZ)
            c3.cz(g.qubit0, (g.qubit1 + 1) % 6);
        else if (isParameterized(g.type))
            c3.rotation(g.type, g.qubit0, g.param);
        else
            c3.gate(g.type, g.qubit0);
    }
    ASSERT_EQ(c3.numGates(), c1.numGates());
    std::vector<double> base(c1.numParameters());
    for (std::size_t i = 0; i < base.size(); ++i)
        base[i] = 0.1 * static_cast<double>(i + 1);
    auto probe = base;
    probe.back() += M_PI / 2.0;
    for (auto *c : {&c1, &c2, &c3})
        c->setParameters(probe);
    h.check(c1, base);
    EXPECT_GT(h.check(c2, base), 0u); // equal program: resumes
    EXPECT_EQ(h.check(c3, base), 0u);
    EXPECT_EQ(h.check(c1, base), 0u);
}

/** A new base invalidates the checkpoint, even at the same gate. */
void
newBase(CheckpointHarness &h)
{
    auto c = ansatz::hardwareEfficient(6, 2, false);
    std::vector<double> base(c.numParameters(), 0.3);
    for (int step = 0; step < 2; ++step) {
        auto probe = base;
        probe.back() += M_PI / 2.0;
        c.setParameters(probe);
        EXPECT_EQ(h.check(c, base), 0u);
        EXPECT_GT(h.check(c, base), 0u);
        base.front() += 0.25; // moves gate 0 of the next prefix
    }
}

/** Literal angles +0.0 and -0.0 are different programs. */
void
signedZeroLiteral(CheckpointHarness &h)
{
    std::vector<QuantumCircuit> circuits;
    for (double zero : {0.0, -0.0}) {
        QuantumCircuit c(3);
        const auto p = c.addParameter(0.5);
        c.h(0);
        c.rz(0, ParamRef::literal(zero));
        c.rx(1, ParamRef::literal(zero));
        c.cnot(0, 1);
        c.ry(2, ParamRef::symbol(p));
        c.cnot(1, 2);
        circuits.push_back(c);
    }
    const std::vector<double> base = {0.5};
    for (auto &c : circuits)
        c.setParameters({0.5 + M_PI / 2.0});
    h.check(circuits[0], base);
    EXPECT_EQ(h.check(circuits[1], base), 0u);
    EXPECT_GT(h.check(circuits[1], base), 0u);
    EXPECT_EQ(h.check(circuits[0], base), 0u);
}

/** A circuit without parameters probes around an empty base. */
void
noParameters(CheckpointHarness &h)
{
    Rng rng(17);
    const auto c = randomCircuit(5, 30, rng);
    ASSERT_EQ(c.numParameters(), 0u);
    EXPECT_EQ(h.check(c, {}), 0u);
    EXPECT_EQ(h.check(c, {}), 0u);
}

struct CheckpointCase {
    const char *name;
    std::uint32_t qubits;
    KernelConfig kernel;
    void (*drive)(CheckpointHarness &);
    /** Whether some call must resume from the checkpoint. */
    bool resumes;
};

void
PrintTo(const CheckpointCase &c, std::ostream *os)
{
    *os << c.name;
}

constexpr KernelConfig kFused{.fuse1q = true};
constexpr KernelConfig kTwoThreads{.threads = 2,
                                   .parallelMinQubits = 4};

using qtenon::vqa::Algorithm;

const CheckpointCase checkpointCases[] = {
    {"gd_qaoa_8q", 8, {}, gdRow<Algorithm::Qaoa, 8>, true},
    {"gd_qaoa_12q", 12, {}, gdRow<Algorithm::Qaoa, 12>, true},
    {"gd_vqe_6q", 6, {}, gdRow<Algorithm::Vqe, 6>, true},
    {"gd_vqe_10q", 10, {}, gdRow<Algorithm::Vqe, 10>, true},
    {"gd_qnn_8q", 8, {}, gdRow<Algorithm::Qnn, 8>, true},
    {"gd_qnn_12q", 12, {}, gdRow<Algorithm::Qnn, 12>, true},
    {"spsa_vqe_8q", 8, {}, spsaStep, false},
    {"param_before_lower_index", 4, {}, outOfOrderParams, true},
    {"shared_param", 6, {}, sharedParam, true},
    {"literal_prefix", 7, {}, literalPrefix, true},
    {"wrong_length_base", 6, {}, wrongLengthBase, true},
    {"structural_invalidation", 6, {}, structuralInvalidation, true},
    {"new_base", 6, {}, newBase, true},
    {"signed_zero_literal", 3, {}, signedZeroLiteral, true},
    {"no_parameters", 5, {}, noParameters, false},
    {"fuse1q_falls_back", 8, kFused, gdRow<Algorithm::Vqe, 8>, false},
    {"threads_2", 8, kTwoThreads, gdRow<Algorithm::Qaoa, 8>, true},
};

class CheckpointDifferential
    : public ::testing::TestWithParam<CheckpointCase>
{
  protected:
    void SetUp() override { qtenon::obs::setMetricsEnabled(true); }
    void TearDown() override { qtenon::obs::setMetricsEnabled(false); }
};

} // namespace

TEST_P(CheckpointDifferential, RunFromBaseMatchesRun)
{
    const auto &row = GetParam();
    CheckpointHarness h(row.qubits, row.kernel);
    row.drive(h);
    if (row.resumes)
        EXPECT_GT(h.skipped(), 0u);
    else
        EXPECT_EQ(h.skipped(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CheckpointDifferential, ::testing::ValuesIn(checkpointCases),
    [](const ::testing::TestParamInfo<CheckpointCase> &info) {
        return std::string(info.param.name);
    });

TEST(CheckpointFallback, OtherEnginesRunInFull)
{
    auto c = ansatz::hardwareEfficient(4, 1, false);
    const auto base = c.parameters();
    for (BackendKind kind :
         {BackendKind::MeanField, BackendKind::DensityMatrix}) {
        BackendConfig cfg;
        cfg.kind = kind;
        auto fast = makeBackend(4, cfg);
        auto ref = makeBackend(4, cfg);
        fast->runFromBase(c, base);
        ref->run(c);
        for (std::uint32_t q = 0; q < 4; ++q)
            EXPECT_EQ(fast->marginalOne(q), ref->marginalOne(q));
    }
}
