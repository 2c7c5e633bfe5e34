/**
 * @file
 * Persistent kernel pool and SIMD backend tests: KernelPool barrier
 * semantics (every participant runs exactly once per epoch, the pool
 * is reusable across many epochs, the caller is participant 0),
 * exact-equality cross-validation of the threaded/SIMD slab kernels
 * against the frozen reference for every {1,2,3,4,8} thread count x
 * {scalar, SIMD} backend x {fused, unfused} combination, pool
 * lifecycle under concurrent BatchScheduler jobs (the TSan target),
 * StateVector copy/move semantics around the owned pool, and the
 * obs metrics wired into dispatch/teardown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "config_error.hh"
#include "obs/metrics.hh"
#include "quantum/kernel_pool.hh"
#include "quantum/statevector.hh"
#include "random_circuit.hh"
#include "reference_statevector.hh"
#include "service/batch_scheduler.hh"
#include "service/json.hh"
#include "sim/random.hh"

using namespace qtenon;
using quantum::KernelConfig;
using quantum::KernelPool;
using quantum::QuantumCircuit;
using quantum::SimdMode;
using quantum::StateVector;
using sim::Rng;
using tests::randomCircuit;
using tests::ReferenceStateVector;

// ---------------------------------------------------------------
// KernelPool barrier semantics.

TEST(KernelPool, EveryParticipantRunsExactlyOnce)
{
    KernelPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);

    std::vector<std::atomic<unsigned>> runs(4);
    for (auto &r : runs)
        r.store(0);
    pool.run([&](unsigned tid, unsigned threads) {
        ASSERT_EQ(threads, 4u);
        ASSERT_LT(tid, 4u);
        runs[tid].fetch_add(1);
    });
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_EQ(runs[t].load(), 1u) << "tid " << t;
}

TEST(KernelPool, ReusableAcrossManyEpochs)
{
    // The whole point of the pool: dispatching N passes must reuse
    // the same worker threads, and every pass must fully complete
    // (all participants) before run() returns.
    constexpr unsigned kEpochs = 200;
    KernelPool pool(3);
    std::atomic<unsigned> hits{0};
    for (unsigned e = 0; e < kEpochs; ++e) {
        pool.run([&](unsigned, unsigned) { hits.fetch_add(1); });
        ASSERT_EQ(hits.load(), (e + 1) * 3) << "epoch " << e;
    }
}

TEST(KernelPool, CallerIsParticipantZero)
{
    KernelPool pool(2);
    std::thread::id tid0;
    pool.run([&](unsigned tid, unsigned) {
        if (tid == 0)
            tid0 = std::this_thread::get_id();
    });
    EXPECT_EQ(tid0, std::this_thread::get_id());
}

TEST(KernelPool, SingleThreadPoolRunsInline)
{
    KernelPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    unsigned runs = 0;
    std::thread::id where;
    pool.run([&](unsigned tid, unsigned threads) {
        EXPECT_EQ(tid, 0u);
        EXPECT_EQ(threads, 1u);
        where = std::this_thread::get_id();
        ++runs;
    });
    EXPECT_EQ(runs, 1u);
    EXPECT_EQ(where, std::this_thread::get_id());
}

// ---------------------------------------------------------------
// SimdMode plumbing.

TEST(SimdModeNames, RoundTrip)
{
    using quantum::simdModeFromName;
    using quantum::simdModeName;
    for (SimdMode m : {SimdMode::Auto, SimdMode::Scalar})
        EXPECT_EQ(simdModeFromName(simdModeName(m)), m);
    EXPECT_EQ(simdModeFromName("auto"), SimdMode::Auto);
    EXPECT_EQ(simdModeFromName("scalar"), SimdMode::Scalar);
    EXPECT_CONFIG_ERROR(simdModeFromName("avx512"), "unknown SIMD mode");
}

TEST(SimdModeNames, BackendNameIsResolved)
{
    KernelConfig scalar;
    scalar.simd = SimdMode::Scalar;
    StateVector forced(2, StateVector::defaultMaxQubits, scalar);
    EXPECT_STREQ(forced.simdBackendName(), "scalar");

    // Auto resolves to whatever the CPU supports; the contract is
    // only that it names one of the compiled-in backends.
    StateVector autoSv(2);
    const std::string name = autoSv.simdBackendName();
    EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "neon")
        << name;
}

// ---------------------------------------------------------------
// Exact-equality cross-validation: every thread count x backend x
// fusion combination against the frozen reference kernels.

namespace {

void
expectExactlyEqual(const StateVector &sv,
                   const ReferenceStateVector &ref)
{
    ASSERT_EQ(sv.dim(), ref.dim());
    for (std::uint64_t i = 0; i < sv.dim(); ++i) {
        const auto a = sv.amplitude(i);
        const auto r = ref.amplitude(i);
        ASSERT_EQ(a.real(), r.real()) << "basis " << i;
        ASSERT_EQ(a.imag(), r.imag()) << "basis " << i;
    }
}

void
expectExactlyEqual(const StateVector &a, const StateVector &b)
{
    ASSERT_EQ(a.dim(), b.dim());
    for (std::uint64_t i = 0; i < a.dim(); ++i) {
        ASSERT_EQ(a.amplitude(i).real(), b.amplitude(i).real())
            << "basis " << i;
        ASSERT_EQ(a.amplitude(i).imag(), b.amplitude(i).imag())
            << "basis " << i;
    }
}

/** The {1,2,3,4,8} x {scalar, auto} sweep the issue demands. */
const unsigned kThreadCounts[] = {1, 2, 3, 4, 8};
const SimdMode kSimdModes[] = {SimdMode::Scalar, SimdMode::Auto};

} // namespace

TEST(KernelPoolCrossValidation, UnfusedIsBitIdenticalEverywhere)
{
    // 10 and 12 qubits are large enough that the pooled slab path
    // actually engages at 8 threads (>= 2 aligned slabs each); the
    // small sizes pin the serial-fallback and tail paths.
    for (unsigned threads : kThreadCounts) {
        for (SimdMode simd : kSimdModes) {
            KernelConfig k;
            k.threads = threads;
            k.parallelMinQubits = 0;
            k.simd = simd;
            Rng rng(900 + threads * 16 +
                    (simd == SimdMode::Scalar ? 0 : 1));
            for (std::uint32_t n : {1u, 2u, 3u, 5u, 7u, 10u, 12u}) {
                const auto c = randomCircuit(n, 70, rng);
                StateVector sv(n, StateVector::defaultMaxQubits, k);
                sv.applyCircuit(c);
                ReferenceStateVector ref(n);
                ref.applyCircuit(c);
                SCOPED_TRACE(testing::Message()
                             << "threads=" << threads << " simd="
                             << quantum::simdModeName(simd)
                             << " qubits=" << n);
                expectExactlyEqual(sv, ref);
                EXPECT_NEAR(sv.normSquared(), 1.0, 1e-9);
            }
        }
    }
}

TEST(KernelPoolCrossValidation, FusedIsDeterministicEverywhere)
{
    // Fusion reassociates 2x2 products, so it only promises 1e-12
    // agreement with the reference — but for a fixed circuit every
    // thread count and SIMD backend must produce the *same* fused
    // bits as the serial scalar fused run (slabs never change
    // per-amplitude arithmetic).
    Rng rng(4242);
    for (std::uint32_t n : {3u, 5u, 10u, 12u}) {
        const auto c = randomCircuit(n, 70, rng);

        KernelConfig serialScalar;
        serialScalar.fuse1q = true;
        serialScalar.simd = SimdMode::Scalar;
        StateVector baseline(n, StateVector::defaultMaxQubits,
                             serialScalar);
        baseline.applyCircuit(c);

        ReferenceStateVector ref(n);
        ref.applyCircuit(c);

        for (unsigned threads : kThreadCounts) {
            for (SimdMode simd : kSimdModes) {
                KernelConfig k;
                k.fuse1q = true;
                k.threads = threads;
                k.parallelMinQubits = 0;
                k.simd = simd;
                StateVector sv(n, StateVector::defaultMaxQubits, k);
                sv.applyCircuit(c);
                SCOPED_TRACE(testing::Message()
                             << "threads=" << threads << " simd="
                             << quantum::simdModeName(simd)
                             << " qubits=" << n);
                expectExactlyEqual(sv, baseline);
                for (std::uint64_t i = 0; i < sv.dim(); ++i) {
                    EXPECT_NEAR(sv.amplitude(i).real(),
                                ref.amplitude(i).real(), 1e-12);
                    EXPECT_NEAR(sv.amplitude(i).imag(),
                                ref.amplitude(i).imag(), 1e-12);
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// Pool lifecycle: StateVector special members and concurrent
// construct/run/destruct under BatchScheduler jobs (the TSan
// target).

TEST(KernelPoolLifecycle, CopyAndMoveNeverShareThePool)
{
    KernelConfig k;
    k.threads = 4;
    k.parallelMinQubits = 0;
    Rng rng(77);
    const auto c = randomCircuit(10, 60, rng);
    const auto more = randomCircuit(10, 20, rng);

    StateVector sv(10, StateVector::defaultMaxQubits, k);
    sv.applyCircuit(c); // instantiates the pool

    // Copies duplicate amplitudes/config and lazily build their own
    // pool; both sides stay independently usable and bit-identical.
    StateVector copy(sv);
    expectExactlyEqual(copy, sv);
    copy.applyCircuit(more);
    sv.applyCircuit(more);
    expectExactlyEqual(copy, sv);

    StateVector assigned(2);
    assigned = sv;
    expectExactlyEqual(assigned, sv);

    // Moves transfer the live pool; the moved-to vector keeps
    // running threaded kernels.
    StateVector moved(std::move(copy));
    moved.applyCircuit(more);
    sv.applyCircuit(more);
    expectExactlyEqual(moved, sv);

    StateVector moveAssigned(2);
    moveAssigned = std::move(moved);
    moveAssigned.applyCircuit(more);
    sv.applyCircuit(more);
    expectExactlyEqual(moveAssigned, sv);
}

TEST(KernelPoolLifecycle, SetKernelConfigRetunesThreads)
{
    Rng rng(31);
    const auto c = randomCircuit(9, 50, rng);
    StateVector sv(9);
    sv.applyCircuit(c);

    ReferenceStateVector ref(9);
    ref.applyCircuit(c);
    ref.applyCircuit(c);

    KernelConfig k;
    k.threads = 3;
    k.parallelMinQubits = 0;
    k.simd = SimdMode::Scalar;
    sv.setKernelConfig(k);
    sv.applyCircuit(c); // same amplitudes, new thread/backend plan
    expectExactlyEqual(sv, ref);
}

TEST(KernelPoolLifecycle, SurvivesConcurrentBatchJobs)
{
    // Every job constructs, drives, and destroys pools while the
    // scheduler's own workers run concurrently — the shape TSan
    // watches for lifecycle races (wake-after-destroy, epoch
    // tearing, double-join).
    constexpr unsigned kJobs = 8;
    Rng rng(5150);
    std::vector<QuantumCircuit> circuits;
    for (unsigned i = 0; i < kJobs; ++i)
        circuits.push_back(randomCircuit(10, 40, rng));

    service::SchedulerConfig cfg;
    cfg.workers = 4;
    service::BatchScheduler sched(cfg);

    std::vector<service::JobHandle> handles;
    for (unsigned i = 0; i < kJobs; ++i) {
        service::JobSpec spec;
        spec.name = "pool_job_" + std::to_string(i);
        const auto circuit = circuits[i];
        spec.custom = [circuit](service::JobContext &) {
            // Raw pool lifecycle, many epochs.
            KernelPool pool(3);
            std::atomic<unsigned> hits{0};
            for (unsigned e = 0; e < 50; ++e)
                pool.run(
                    [&](unsigned, unsigned) { hits.fetch_add(1); });
            if (hits.load() != 150)
                throw std::runtime_error("pool lost a participant");

            // And a threaded statevector under the batch's kernel-
            // thread budget (the cap may clamp this to serial on a
            // small machine; either way the result is exact).
            KernelConfig k;
            k.threads = 2;
            k.parallelMinQubits = 0;
            StateVector sv(10, StateVector::defaultMaxQubits, k);
            sv.applyCircuit(circuit);
            ReferenceStateVector ref(10);
            ref.applyCircuit(circuit);
            for (std::uint64_t b = 0; b < sv.dim(); ++b) {
                if (sv.amplitude(b) != ref.amplitude(b))
                    throw std::runtime_error(
                        "threaded amplitudes diverged");
            }
        };
        handles.push_back(sched.submit(std::move(spec)));
    }
    const auto store = service::collect(handles);
    for (const auto &h : handles) {
        const auto r = store.get(h.id);
        EXPECT_EQ(r.status, service::JobStatus::Ok)
            << r.name << ": " << r.error;
    }
}

// ---------------------------------------------------------------
// Observability wiring.

TEST(KernelPoolMetrics, DispatchesWorkersAndPassesAreAccounted)
{
    obs::registry().reset();
    obs::setMetricsEnabled(true);

    auto &workers = obs::gauge("quantum.kernel_pool.workers", "");
    auto &dispatches =
        obs::counter("quantum.kernel_pool.dispatches", "");
    auto &created = obs::counter("quantum.kernel_pool.created", "");
    auto &busy =
        obs::histogram("quantum.kernel_pool.worker_busy_ns", "");
    auto &pass = obs::histogram("quantum.kernel.pass_ns", "");
    auto &parallel =
        obs::counter("quantum.kernel.parallel_passes", "");

    {
        KernelConfig k;
        k.threads = 2;
        k.parallelMinQubits = 0;
        StateVector sv(12, StateVector::defaultMaxQubits, k);
        Rng rng(9);
        sv.applyCircuit(randomCircuit(12, 30, rng));

        EXPECT_GE(created.value(), 1u);
        EXPECT_EQ(workers.value(), 1); // 2 threads = 1 extra worker
        EXPECT_GT(dispatches.value(), 0u);
        EXPECT_GT(parallel.value(), 0u);
        EXPECT_GT(pass.count(), 0u);
        EXPECT_GE(busy.count(), 2 * dispatches.value());
    }
    // Teardown returns the worker gauge to zero.
    EXPECT_EQ(workers.value(), 0);

    obs::setMetricsEnabled(false);
    obs::registry().reset();
}
