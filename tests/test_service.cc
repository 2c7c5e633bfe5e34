/**
 * @file
 * Batch experiment service tests: worker-count-independent
 * determinism, failure isolation, timeout and cancellation paths,
 * JSON round-trips of the results store, the Sweep builder's
 * cartesian expansion, and worker-count resolution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "fault/fault.hh"
#include "obs/metrics.hh"
#include "quantum/statevector.hh"
#include "service/batch_scheduler.hh"
#include "service/json.hh"
#include "service/results_store.hh"
#include "service/sweep.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"

using namespace qtenon;
using namespace qtenon::service;

namespace {

/** A fast six-job sweep: every algorithm, both optimizers, tiny
 *  shapes so the full batch stays in the millisecond range. */
std::vector<JobSpec>
smallSweep()
{
    return Sweep("t")
        .algorithms({vqa::Algorithm::Qaoa, vqa::Algorithm::Vqe,
                     vqa::Algorithm::Qnn})
        .optimizers({vqa::OptimizerKind::Spsa,
                     vqa::OptimizerKind::GradientDescent})
        .qubits({4})
        .shots(20)
        .iterations(2)
        .seed(99)
        .configure([](JobSpec &s) {
            s.workload.qaoaLayers = 2;
            s.workload.vqeLayers = 1;
            s.workload.qnnLayers = 1;
        })
        .build();
}

ResultsStore
runSweepWith(unsigned workers)
{
    SchedulerConfig cfg;
    cfg.workers = workers;
    BatchScheduler sched(cfg);
    return collect(sched.submitAll(smallSweep()));
}

} // namespace

TEST(Sweep, CartesianExpansionAndNames)
{
    auto jobs = smallSweep();
    ASSERT_EQ(jobs.size(), 6u);
    // Fixed nesting: algorithms outer, optimizers, then qubits.
    EXPECT_EQ(jobs[0].name, "t/QAOA/SPSA/q4");
    EXPECT_EQ(jobs[1].name, "t/QAOA/GD/q4");
    EXPECT_EQ(jobs[5].name, "t/QNN/GD/q4");
    EXPECT_EQ(jobs[3].driver.optimizer,
              vqa::OptimizerKind::GradientDescent);
    for (const auto &j : jobs) {
        EXPECT_EQ(j.driver.seed, 99u);
        EXPECT_EQ(j.driver.shots, 20u);
        EXPECT_EQ(j.workload.numQubits, 4u);
    }
}

TEST(Sweep, VariantAxesMultiplyTheProduct)
{
    std::vector<SweepVariant> slt = {
        {"slt-on", [](JobSpec &s) {
             s.qtenon.pipeline.sltEnabled = true;
         }},
        {"slt-off", [](JobSpec &s) {
             s.qtenon.pipeline.sltEnabled = false;
         }},
    };
    auto sweep = Sweep("ab")
                     .qubits({4, 8, 16})
                     .axis(std::move(slt));
    EXPECT_EQ(sweep.count(), 6u);
    auto jobs = sweep.build();
    ASSERT_EQ(jobs.size(), 6u);
    EXPECT_EQ(jobs[0].name, "ab/q4/slt-on");
    EXPECT_EQ(jobs[1].name, "ab/q4/slt-off");
    EXPECT_TRUE(jobs[0].qtenon.pipeline.sltEnabled);
    EXPECT_FALSE(jobs[1].qtenon.pipeline.sltEnabled);
}

TEST(Seed, JobIdDerivationIsStableAndSpread)
{
    EXPECT_EQ(deriveJobSeed(7, 0), deriveJobSeed(7, 0));
    EXPECT_NE(deriveJobSeed(7, 0), deriveJobSeed(7, 1));
    EXPECT_NE(deriveJobSeed(7, 0), deriveJobSeed(8, 0));
}

TEST(Scheduler, ResolvesWorkerCount)
{
    EXPECT_EQ(resolveWorkerCount(3), 3u);
    ASSERT_EQ(setenv("QTENON_JOBS", "5", 1), 0);
    EXPECT_EQ(resolveWorkerCount(0), 5u);
    EXPECT_EQ(resolveWorkerCount(2), 2u); // explicit beats env
    ASSERT_EQ(unsetenv("QTENON_JOBS"), 0);
    const unsigned fallback = resolveWorkerCount(0);
    EXPECT_GE(fallback, 1u);

    // A QTENON_JOBS that is not wholly a positive unsigned warns and
    // falls back to the hardware count. Only the count is resolved
    // here; no pool of that size is started. n is never the fallback,
    // so a parser that reads a prefix of a row fails it.
    const std::string n = std::to_string(fallback + 1);
    const bool warned = sim::setWarningsEnabled(false);
    for (const std::string &bad :
         {std::string("0"), std::string(""), std::string("-1"), "+" + n,
          " " + n, n + "x", n + "e3", "0x" + n,
          std::string("4294967296"),
          std::string("99999999999999999999")}) {
        ASSERT_EQ(setenv("QTENON_JOBS", bad.c_str(), 1), 0);
        EXPECT_EQ(resolveWorkerCount(0), fallback) << "'" << bad << "'";
    }
    ASSERT_EQ(unsetenv("QTENON_JOBS"), 0);
    sim::setWarningsEnabled(warned);
}

TEST(ParseUint, AcceptsOnlyAWholeTokenInRange)
{
    struct Row {
        const char *text;
        std::uint64_t lo, hi;
        std::optional<std::uint64_t> want;
    };
    const std::uint64_t u32 = 4294967295u;
    const std::uint64_t u64 = ~0ull;
    for (const Row &row : std::initializer_list<Row>{
             {"0", 0, u32, 0},
             {"7", 1, u32, 7},
             {"4294967295", 0, u32, u32},
             {"18446744073709551615", 0, u64, u64},
             {"0", 1, u32, std::nullopt},
             {"4294967296", 0, u32, std::nullopt},
             {"18446744073709551616", 0, u64, std::nullopt},
             {"", 0, u64, std::nullopt},
             {"-1", 0, u64, std::nullopt},
             {"+1", 0, u64, std::nullopt},
             {" 1", 0, u64, std::nullopt},
             {"1 ", 0, u64, std::nullopt},
             {"4x", 0, u64, std::nullopt},
             {"1e3", 0, u64, std::nullopt},
             {"0x10", 0, u64, std::nullopt},
         }) {
        EXPECT_EQ(sim::toUint(row.text, row.lo, row.hi), row.want)
            << "'" << row.text << "' in [" << row.lo << ", "
            << row.hi << "]";
    }
}

TEST(Scheduler, KernelThreadBudgetPreventsOversubscription)
{
    namespace quantum = qtenon::quantum;
    // BatchScheduler installs the process-wide kernel-thread cap on
    // construction and clears it on destruction, so that --jobs x
    // per-job statevector kernel threads never exceeds the machine.
    ASSERT_EQ(quantum::kernelThreadCap(), 0u);
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        SchedulerConfig cfg;
        cfg.workers = workers;
        BatchScheduler sched(cfg);
        ASSERT_EQ(sched.workers(), workers);

        // threads == 0 ("auto") inside any job resolves under the
        // installed budget: jobs x kernel threads stays within the
        // hardware (each job always gets at least one thread).
        const unsigned per_job = quantum::resolveKernelThreads(0);
        EXPECT_GE(per_job, 1u);
        EXPECT_LE(per_job * workers, std::max(hw, workers))
            << "auto kernel threads oversubscribe with " << workers
            << " workers";

        // Explicit oversized requests are clamped by the same cap.
        EXPECT_LE(quantum::resolveKernelThreads(64) * workers,
                  std::max(hw, workers));
    }
    EXPECT_EQ(quantum::kernelThreadCap(), 0u)
        << "cap must be cleared when the batch is torn down";
}

TEST(Scheduler, KernelThreadBudgetCountsEveryLiveScheduler)
{
    namespace quantum = qtenon::quantum;
    // The cap follows the workers of every live scheduler: building
    // and destroying a second one (as bench::runWithRerun's
    // one-worker rerun does) leaves the first one's budget in place.
    ASSERT_EQ(quantum::kernelThreadCap(), 0u);
    SchedulerConfig outer_cfg;
    outer_cfg.workers = 2;
    {
        BatchScheduler outer(outer_cfg);
        const unsigned outer_cap = quantum::kernelThreadCap();
        EXPECT_GT(outer_cap, 0u);
        {
            SchedulerConfig inner_cfg;
            inner_cfg.workers = 1;
            BatchScheduler inner(inner_cfg);
            EXPECT_GT(quantum::kernelThreadCap(), 0u);
            EXPECT_LE(quantum::kernelThreadCap(), outer_cap)
                << "two live schedulers budget their workers together";
        }
        EXPECT_EQ(quantum::kernelThreadCap(), outer_cap)
            << "destroying the inner scheduler dropped the outer "
               "scheduler's cap";
    }
    EXPECT_EQ(quantum::kernelThreadCap(), 0u);
}

TEST(Scheduler, ResultsAreBitIdenticalAcrossWorkerCounts)
{
    const auto one = runSweepWith(1);
    const auto two = runSweepWith(2);
    const auto eight = runSweepWith(8);

    ASSERT_EQ(one.size(), 6u);
    ASSERT_EQ(two.size(), 6u);
    ASSERT_EQ(eight.size(), 6u);

    // Same jobs, same job-id-derived seeds, same isolated event
    // queues: the deterministic export (everything except host
    // wall-clock) must match byte for byte.
    const auto ref = one.toJsonString(/*deterministic_only=*/true);
    EXPECT_EQ(ref, two.toJsonString(true));
    EXPECT_EQ(ref, eight.toJsonString(true));
    EXPECT_EQ(one.deterministicDigest(), eight.deterministicDigest());

    // Sanity: the batch really simulated something.
    for (const auto &r : one.sorted()) {
        EXPECT_EQ(r.status, JobStatus::Ok) << r.name;
        EXPECT_GT(r.simTicks, 0u) << r.name;
        EXPECT_EQ(r.systems.size(), 1u);
        EXPECT_GT(r.systems[0].total.wall, 0u);
    }
}

TEST(Scheduler, SchedulerSeedingMatchesStandaloneRun)
{
    auto jobs = smallSweep();
    SchedulerConfig cfg;
    cfg.workers = 2;
    BatchScheduler sched(cfg);
    auto handles = sched.submitAll(jobs);

    // Job 3 run inline, outside any scheduler, with its batch id.
    const auto inline_r = runJobSpec(jobs[3], handles[3].id);
    const auto pooled_r = handles[3].result.get();
    EXPECT_EQ(inline_r.seed, pooled_r.seed);
    EXPECT_EQ(inline_r.costHistory, pooled_r.costHistory);
    EXPECT_EQ(inline_r.simTicks, pooled_r.simTicks);
}

TEST(RunJobSpec, EqualsTheReplayPrimitives)
{
    // Figures 1, 14 and 15 read runJobSpec's SystemRuns, while
    // fig13, fig16 and table5 replay with the layer primitives; both
    // must agree: runJobSpec replays exactly as VqaDriver::run,
    // QtenonSystem::execute per host and DecoupledSystem::execute do
    // on the same spec. The reference builds every host on its own,
    // so the rows with two hosts also check that the later host's
    // recalled q_gen results (controller::QgenLog) equal a replay
    // that runs its own pipeline.
    using runtime::HostCoreModel;
    struct Row {
        std::string label;
        vqa::OptimizerKind opt;
        std::vector<HostCoreModel> hosts;
        bool baseline;
        std::function<void(JobSpec &)> tweak = [](JobSpec &) {};
    };
    const auto gd = vqa::OptimizerKind::GradientDescent;
    const auto spsa = vqa::OptimizerKind::Spsa;
    const std::vector<HostCoreModel> both = {HostCoreModel::rocket(),
                                             HostCoreModel::boomLarge()};
    for (const Row &row : std::initializer_list<Row>{
             {"GD/1 host", gd, {}, false},
             {"SPSA/1 host", spsa, {}, false},
             {"GD/2 hosts", gd, both, true},
             {"SPSA/2 hosts", spsa, both, true},
             {"full recompile", gd, both, false,
              [](JobSpec &s) {
                  s.qtenon.software.compile =
                      runtime::CompileMode::FullRecompile;
              }},
             {"SLT off", spsa, both, false,
              [](JobSpec &s) { s.qtenon.pipeline.sltEnabled = false; }},
             {"one PGU", spsa, both, false,
              [](JobSpec &s) { s.qtenon.pipeline.numPgus = 1; }},
             {"vector ISA", spsa, both, false,
              [](JobSpec &s) { s.driver.isaVector = true; }},
             {"faults", spsa, both, true,
              [](JobSpec &s) {
                  s.faultSpec = fault::FaultSpec::parse(
                      "bus.error=0.05,adi.jitter=50,seed=11");
              }},
         }) {
        JobSpec spec;
        spec.workload.algorithm = vqa::Algorithm::Vqe;
        spec.workload.numQubits = 6;
        spec.driver.iterations = 2;
        spec.driver.shots = 50;
        spec.driver.optimizer = row.opt;
        spec.hosts = row.hosts;
        spec.runBaseline = row.baseline;
        spec.deriveSeedFromJobId = false;
        row.tweak(spec);
        const auto r = runJobSpec(spec, 0);
        const auto &label = row.label;

        // The driver, then each host and the baseline in order, draw
        // from one injector seeded as runJobSpec seeds its own.
        std::unique_ptr<fault::FaultInjector> inj;
        if (!spec.faultSpec.empty())
            inj = std::make_unique<fault::FaultInjector>(
                spec.faultSpec, spec.faultSpec.seed);
        auto driver_cfg = spec.driver;
        driver_cfg.injector = inj.get();
        auto w = vqa::Workload::build(spec.workload);
        const auto trace = vqa::VqaDriver(driver_cfg).run(w);
        EXPECT_EQ(r.costHistory, trace.costHistory) << label;

        std::vector<SystemRun> want;
        for (const auto &host :
             row.hosts.empty() ? std::vector{spec.qtenon.host}
                               : row.hosts) {
            auto qcfg = spec.qtenon;
            qcfg.numQubits = spec.workload.numQubits;
            qcfg.host = host;
            qcfg.injector = inj.get();
            qcfg.software.vectorIsa = spec.driver.isaVector;
            core::QtenonSystem sys(qcfg);
            SystemRun run;
            run.total = sys.execute(trace, w.circuit).total();
            run.busTransactions =
                static_cast<double>(sys.bus().transactions.value());
            run.pulsesGenerated = static_cast<double>(
                sys.controller().pulsesGenerated.value());
            run.sltHits = sys.controller().slt().hits;
            run.sltMisses = sys.controller().slt().misses;
            run.simTicks = sys.eventQueue().curTick();
            want.push_back(run);
        }
        if (row.baseline) {
            auto bcfg = spec.baselineCfg;
            bcfg.injector = inj.get();
            SystemRun run;
            run.total =
                baseline::DecoupledSystem(bcfg).execute(w.circuit, trace);
            want.push_back(run);
        }

        // Every TimeBreakdown field, the simulated ticks, then the
        // controller and bus counts.
        auto fields = [](const SystemRun &s) {
            const auto &t = s.total;
            return std::vector<double>{
                double(t.quantum), double(t.pulseGen), double(t.comm),
                double(t.host), double(t.hostBusy), double(t.wall),
                double(t.commSet), double(t.commUpdate),
                double(t.commAcquire), double(s.simTicks),
                s.busTransactions, s.pulsesGenerated,
                double(s.sltHits), double(s.sltMisses)};
        };
        ASSERT_EQ(r.systems.size(), want.size()) << label;
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(fields(r.systems[i]), fields(want[i]))
                << label << ", system " << r.systems[i].label;
    }
}

namespace {

/** One system of a job: TimeBreakdown fields, ticks, transactions. */
using SystemRow = std::vector<std::uint64_t>;

/**
 * The injector path the bus keeps: a two-host SPSA QAOA job and its
 * baseline under `bus.error=0.2,bus.stall=0.2,seed=9`. Returns, per
 * system, every TimeBreakdown field, the simulated ticks and the bus
 * transactions, and the job's `fault.bus.*` counters.
 */
std::pair<std::vector<SystemRow>, std::map<std::string, double>>
busFaultJob(std::uint32_t qubits)
{
    JobSpec spec;
    spec.workload.algorithm = vqa::Algorithm::Qaoa;
    spec.workload.numQubits = qubits;
    spec.driver.optimizer = vqa::OptimizerKind::Spsa;
    spec.driver.iterations = 2;
    spec.driver.shots = 100;
    spec.hosts = {runtime::HostCoreModel::rocket(),
                  runtime::HostCoreModel::boomLarge()};
    spec.runBaseline = true;
    spec.deriveSeedFromJobId = false;
    spec.faultSpec =
        fault::FaultSpec::parse("bus.error=0.2,bus.stall=0.2,seed=9");
    const auto r = runJobSpec(spec, 0);
    std::vector<SystemRow> systems;
    for (const auto &s : r.systems) {
        const auto &t = s.total;
        systems.push_back({t.quantum, t.pulseGen, t.comm, t.host,
                           t.hostBusy, t.wall, t.commSet, t.commUpdate,
                           t.commAcquire, s.simTicks,
                           static_cast<std::uint64_t>(s.busTransactions)});
    }
    std::map<std::string, double> faults;
    for (const auto &[name, value] : r.metrics)
        if (name.rfind("fault.bus.", 0) == 0)
            faults[name] = value;
    return {systems, faults};
}

} // namespace

TEST(RunJobSpec, BusFaultJobMatchesTheEventDrivenModel)
{
    // Recorded on the bus whose every hop was an event. With the
    // "bus" site active a request still waits for events at its
    // arrival and its completion, so every stall and error draw,
    // retry and response happens at the same tick and in the same
    // order: rocket, boom-l, baseline.
    const auto [small, small_faults] = busFaultJob(8);
    EXPECT_EQ(small, (std::vector<SystemRow>{
            {768000000, 18275000, 3796782, 13852884, 20844436,
             802874666, 2696000, 50782, 1050000, 802874666, 92},
            {768000000, 18275000, 3798005, 9049708, 13399992,
             798072713, 2696000, 52005, 1050000, 798072713, 92},
            {848000000, 1926880000, 56056805120, 11904499996, 11904499996,
             70736185116, 28032752640, 0, 28024052480, 0, 0},
        }));
    EXPECT_EQ(small_faults, (std::map<std::string, double>{
                                {"fault.bus.error", 51},
                                {"fault.bus.retries", 47},
                                {"fault.bus.retry_exhausted", 4},
                                {"fault.bus.stall", 41}}));

    const auto [large, large_faults] = busFaultJob(64);
    EXPECT_EQ(large, (std::vector<SystemRow>{
            {768000000, 131403000, 21946450, 53461771, 117911103,
             974093221, 21176000, 52450, 718000, 974093221, 372},
            {768000000, 131403000, 21966863, 34512564, 75799992,
             955244427, 21276000, 52863, 638000, 955244427, 372},
            {848000000, 15414800000, 56150146556, 25234790908, 25234790908,
             97647737464, 28125870076, 0, 28024276480, 0, 0},
        }));
    EXPECT_EQ(large_faults, (std::map<std::string, double>{
                                {"fault.bus.error", 195},
                                {"fault.bus.retries", 189},
                                {"fault.bus.retry_exhausted", 6},
                                {"fault.bus.stall", 166}}));
}

TEST(Scheduler, FailingJobIsIsolated)
{
    SchedulerConfig cfg;
    cfg.workers = 2;
    BatchScheduler sched(cfg);

    auto jobs = smallSweep();
    jobs.resize(2);
    JobSpec bomb;
    bomb.name = "bomb";
    bomb.custom = [](JobContext &) {
        throw std::runtime_error("deliberate test failure");
    };
    auto ok0 = sched.submit(jobs[0]);
    auto boom = sched.submit(bomb);
    auto ok1 = sched.submit(jobs[1]);
    const auto store = collect(std::vector{ok0, boom, ok1});

    EXPECT_EQ(store.get(ok0.id).status, JobStatus::Ok);
    EXPECT_EQ(store.get(ok1.id).status, JobStatus::Ok);
    const auto failed = store.get(boom.id);
    EXPECT_EQ(failed.status, JobStatus::Failed);
    EXPECT_EQ(failed.error, "deliberate test failure");
    EXPECT_EQ(failed.name, "bomb");

    const auto m = sched.metrics();
    EXPECT_EQ(m.completed, 3u);
    EXPECT_EQ(m.ok, 2u);
    EXPECT_EQ(m.failed, 1u);
}

TEST(Scheduler, TimeoutStopsAtNextCheckpoint)
{
    SchedulerConfig cfg;
    cfg.workers = 1;
    BatchScheduler sched(cfg);

    JobSpec slow;
    slow.name = "slow";
    slow.timeout = std::chrono::milliseconds(30);
    slow.custom = [](JobContext &ctx) {
        for (;;) {
            ctx.token.checkpoint();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    };
    auto handle = sched.submit(slow);
    const auto r = handle.result.get();
    EXPECT_EQ(r.status, JobStatus::TimedOut);
    EXPECT_NE(r.error.find("30 ms"), std::string::npos) << r.error;
    EXPECT_EQ(sched.metrics().timedOut, 1u);
}

TEST(Scheduler, TimeoutErrorNamesDeadlineSourceAndElapsed)
{
    // Job-override deadline: the error says which deadline fired and
    // how long the attempt actually ran.
    SchedulerConfig cfg;
    cfg.workers = 1;
    BatchScheduler sched(cfg);
    JobSpec slow;
    slow.name = "slow";
    slow.timeout = std::chrono::milliseconds(20);
    slow.custom = [](JobContext &ctx) {
        for (;;) {
            ctx.token.checkpoint();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    };
    const auto r = sched.submit(slow).result.get();
    EXPECT_EQ(r.status, JobStatus::TimedOut);
    EXPECT_EQ(r.timeoutSource, "job-override");
    EXPECT_GE(r.timeoutElapsedMs, 20u);
    EXPECT_NE(r.error.find("job-override"), std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find("elapsed"), std::string::npos) << r.error;

    // Scheduler-default deadline: same shape, different source.
    SchedulerConfig dcfg;
    dcfg.workers = 1;
    dcfg.defaultTimeout = std::chrono::milliseconds(20);
    BatchScheduler dsched(dcfg);
    JobSpec dslow = slow;
    dslow.timeout = std::chrono::milliseconds(0);
    const auto dr = dsched.submit(dslow).result.get();
    EXPECT_EQ(dr.status, JobStatus::TimedOut);
    EXPECT_EQ(dr.timeoutSource, "scheduler-default");
    EXPECT_NE(dr.error.find("scheduler-default"), std::string::npos)
        << dr.error;
}

TEST(Scheduler, RetrySucceedsAfterTransientFailures)
{
    SchedulerConfig cfg;
    cfg.workers = 1;
    BatchScheduler sched(cfg);

    auto failures = std::make_shared<std::atomic<int>>(0);
    JobSpec flaky;
    flaky.name = "flaky";
    flaky.retry.maxAttempts = 3;
    flaky.custom = [failures](JobContext &) {
        if (failures->fetch_add(1) < 2)
            throw std::runtime_error("transient");
    };
    const auto r = sched.submit(flaky).result.get();
    EXPECT_EQ(r.status, JobStatus::Ok);
    EXPECT_EQ(r.attempts, 3u);
    EXPECT_EQ(failures->load(), 3);
    EXPECT_EQ(sched.metrics().ok, 1u);
}

TEST(Scheduler, RetryExhaustsBudgetAndReportsLastError)
{
    SchedulerConfig cfg;
    cfg.workers = 1;
    BatchScheduler sched(cfg);

    auto runs = std::make_shared<std::atomic<int>>(0);
    JobSpec doomed;
    doomed.name = "doomed";
    doomed.retry.maxAttempts = 3;
    doomed.custom = [runs](JobContext &) {
        throw std::runtime_error(
            "attempt " + std::to_string(runs->fetch_add(1) + 1));
    };
    const auto r = sched.submit(doomed).result.get();
    EXPECT_EQ(r.status, JobStatus::Failed);
    EXPECT_EQ(r.attempts, 3u);
    EXPECT_EQ(r.error, "attempt 3");
    EXPECT_EQ(runs->load(), 3);

    // Single-attempt jobs keep the historical behaviour.
    JobSpec once;
    once.name = "once";
    once.custom = [](JobContext &) {
        throw std::runtime_error("boom");
    };
    const auto ro = sched.submit(once).result.get();
    EXPECT_EQ(ro.status, JobStatus::Failed);
    EXPECT_EQ(ro.attempts, 1u);
}

TEST(Scheduler, ConfigErrorFailsOnFirstAttemptWithoutRetry)
{
    // A user error is deterministic, so a retry budget is not spent
    // on it; the scheduler keeps serving the jobs after it.
    SchedulerConfig cfg;
    cfg.workers = 1;
    BatchScheduler sched(cfg);

    auto runs = std::make_shared<std::atomic<int>>(0);
    JobSpec bad;
    bad.name = "bad-config";
    bad.retry.maxAttempts = 3;
    bad.custom = [runs](JobContext &) {
        runs->fetch_add(1);
        sim::fatal("qubit count ", 3, " must be even");
    };
    const auto r = sched.submit(bad).result.get();
    EXPECT_EQ(r.status, JobStatus::Failed);
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_EQ(r.error, "qubit count 3 must be even");
    EXPECT_EQ(runs->load(), 1);

    JobSpec next;
    next.name = "next";
    next.custom = [](JobContext &) {};
    EXPECT_EQ(sched.submit(next).result.get().status, JobStatus::Ok);
}

TEST(Scheduler, CustomJobWithFaultSpecFailsOnce)
{
    // A custom body cannot honour a fault plan, so the job fails as
    // a user error before the body runs instead of dropping the plan.
    // A seed alone is a plan too.
    SchedulerConfig cfg;
    cfg.workers = 1;
    BatchScheduler sched(cfg);

    for (const char *plan : {"eth.drop=0.1", "seed=3"}) {
        auto runs = std::make_shared<std::atomic<int>>(0);
        JobSpec spec;
        spec.name = "custom-faulted";
        spec.retry.maxAttempts = 3;
        spec.faultSpec = fault::FaultSpec::parse(plan);
        spec.custom = [runs](JobContext &) { runs->fetch_add(1); };
        const auto r = sched.submit(spec).result.get();
        EXPECT_EQ(r.status, JobStatus::Failed) << plan;
        EXPECT_EQ(r.attempts, 1u) << plan;
        EXPECT_EQ(r.error,
                  "a job with a custom body cannot honour a fault spec")
            << plan;
        EXPECT_EQ(runs->load(), 0) << plan;
    }
}

TEST(RunJobSpec, SeedOnlyFaultSpecRunsAsNoPlan)
{
    // `seed=3` names no site, so it injects nothing: the job's
    // result bytes equal those of the same job without a spec.
    JobSpec spec;
    spec.workload.numQubits = 6;
    spec.driver.iterations = 2;
    spec.driver.shots = 50;
    spec.hosts = {runtime::HostCoreModel::rocket(),
                  runtime::HostCoreModel::boomLarge()};
    spec.runBaseline = true;
    const auto plain = jobResultToJson(runJobSpec(spec, 4), true).dump();
    spec.faultSpec = fault::FaultSpec::parse("seed=3");
    ASSERT_FALSE(spec.faultSpec.empty());
    EXPECT_EQ(jobResultToJson(runJobSpec(spec, 4), true).dump(), plain);
}

TEST(Scheduler, RetryOutcomeIsIdenticalAcrossWorkerCounts)
{
    // Four flaky jobs, each failing exactly twice before succeeding:
    // the retry accounting (attempts, status, names) must be
    // byte-identical whether they run serially or concurrently,
    // because the backoff schedule depends only on (seed, job id).
    auto run = [](unsigned workers) {
        SchedulerConfig cfg;
        cfg.workers = workers;
        BatchScheduler sched(cfg);
        std::vector<JobSpec> jobs;
        for (int j = 0; j < 4; ++j) {
            auto failures = std::make_shared<std::atomic<int>>(0);
            JobSpec spec;
            spec.name = "flaky" + std::to_string(j);
            spec.retry.maxAttempts = 4;
            spec.retry.backoff = 1; // ms; exercises the sleep path
            spec.retry.jitter = 0.5;
            spec.custom = [failures](JobContext &) {
                if (failures->fetch_add(1) < 2)
                    throw std::runtime_error("transient");
            };
            jobs.push_back(std::move(spec));
        }
        return collect(sched.submitAll(std::move(jobs)))
            .toJsonString(/*deterministic_only=*/true);
    };
    EXPECT_EQ(run(1), run(4));
}

TEST(Scheduler, CancelPendingAndRunningJobs)
{
    SchedulerConfig cfg;
    cfg.workers = 1; // serialize: job 2 stays queued behind job 1
    BatchScheduler sched(cfg);

    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::atomic<bool> started{false};

    JobSpec blocker;
    blocker.name = "blocker";
    blocker.custom = [&](JobContext &ctx) {
        started.store(true);
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return release; });
        ctx.token.checkpoint(); // observes the cancel request
    };
    JobSpec queued = smallSweep()[0];
    queued.name = "queued";

    auto h_blocker = sched.submit(blocker);
    auto h_queued = sched.submit(queued);

    while (!started.load())
        std::this_thread::yield();

    // Cancel both: one mid-run, one still pending.
    EXPECT_TRUE(sched.cancel(h_blocker.id));
    EXPECT_TRUE(sched.cancel(h_queued.id));
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();

    EXPECT_EQ(h_blocker.result.get().status, JobStatus::Cancelled);
    EXPECT_EQ(h_queued.result.get().status, JobStatus::Cancelled);
    EXPECT_EQ(sched.metrics().cancelled, 2u);

    // Cancelling a finished job reports false.
    EXPECT_FALSE(sched.cancel(h_blocker.id));
}

TEST(Scheduler, FinishedJobsLeaveTheJobTable)
{
    SchedulerConfig cfg;
    cfg.workers = 2;
    BatchScheduler sched(cfg);
    const auto handles = sched.submitAll(smallSweep());
    sched.wait();
    EXPECT_EQ(collect(handles).size(), handles.size());
    EXPECT_EQ(sched.unfinished(), 0u);
    for (const auto &h : handles)
        EXPECT_FALSE(sched.cancel(h.id));
}

TEST(Scheduler, FaultRegistryCountersEqualJobMetrics)
{
    // The injector is the one count of each fault: what it publishes
    // when the job drops it equals what the job exported.
    obs::registry().reset();
    obs::setMetricsEnabled(true);
    JobSpec spec = smallSweep().front();
    spec.faultSpec = fault::FaultSpec::parse(
        "eth.drop=0.2,eth.jitter=150,readout.flip=0.02,"
        "bus.error=0.05,adi.jitter=50");
    spec.runBaseline = true;
    const JobResult r = runJobSpec(spec, 3);
    const auto counters = obs::registry().counterValues();
    obs::setMetricsEnabled(false);
    obs::registry().reset();

    std::map<std::string, double> published;
    for (const auto &[name, n] : counters) {
        if (name.rfind("fault.", 0) == 0 && n > 0)
            published[name] = static_cast<double>(n);
    }
    std::map<std::string, double> exported;
    for (const auto &[name, v] : r.metrics) {
        if (name.rfind("fault.", 0) == 0)
            exported[name] = v;
    }
    EXPECT_FALSE(exported.empty());
    EXPECT_EQ(published, exported);
}

TEST(Scheduler, FaultInjectionIsByteIdenticalAcrossWorkerCounts)
{
    // The acceptance bar for the fault layer: one --fault-spec +
    // seed reproduces the identical injection sequences (and thus
    // identical results JSON and fault.* counters) at every worker
    // count, because each job owns one injector seeded from its
    // derived job seed.
    const auto spec = fault::FaultSpec::parse(
        "eth.drop=0.2,eth.jitter=150,readout.flip=0.02,"
        "bus.error=0.05,adi.jitter=50");
    auto run = [&spec](unsigned workers) {
        SchedulerConfig cfg;
        cfg.workers = workers;
        BatchScheduler sched(cfg);
        auto jobs = smallSweep();
        for (auto &j : jobs) {
            j.faultSpec = spec;
            j.runBaseline = true;
        }
        return collect(sched.submitAll(std::move(jobs)));
    };
    const auto one = run(1);
    const auto eight = run(8);
    EXPECT_EQ(one.toJsonString(/*deterministic_only=*/true),
              eight.toJsonString(true));

    // The faults really fired and were exported per job.
    for (const auto &r : one.sorted()) {
        EXPECT_EQ(r.status, JobStatus::Ok) << r.name;
        EXPECT_GT(r.metrics.count("fault.eth.drop") +
                      r.metrics.count("fault.eth.jitter"),
                  0u)
            << r.name;
        EXPECT_GT(r.metrics.count("fault.eth.retransmits"), 0u)
            << r.name;
    }

    // And the run differs from the fault-free one (the faults are
    // not cosmetic: the baseline pays for retransmissions).
    const auto clean = runSweepWith(1);
    EXPECT_NE(clean.toJsonString(true), one.toJsonString(true));
}

TEST(ResultsStore, RetryAndTimeoutFieldsRoundTripThroughJson)
{
    ResultsStore store;
    JobResult r;
    r.jobId = 9;
    r.name = "retried";
    r.status = JobStatus::TimedOut;
    r.attempts = 3;
    r.timeoutSource = "job-override";
    r.timeoutElapsedMs = 47;
    r.error = "exceeded 30 ms deadline (job-override, elapsed 47 ms)";
    store.add(r);

    const auto text = store.toJsonString();
    EXPECT_NE(text.find("\"attempts\": 3"), std::string::npos);
    EXPECT_NE(text.find("\"timeout_source\": \"job-override\""),
              std::string::npos);
    EXPECT_NE(text.find("\"timeout_elapsed_ms\": 47"),
              std::string::npos);

    const auto back = ResultsStore::fromJsonString(text).get(9);
    EXPECT_EQ(back.attempts, 3u);
    EXPECT_EQ(back.timeoutSource, "job-override");
    EXPECT_EQ(back.timeoutElapsedMs, 47u);

    // Defaulted fields stay absent so pre-fault-layer exports are
    // byte-stable.
    ResultsStore plain;
    JobResult ok;
    ok.jobId = 1;
    ok.name = "ok";
    ok.status = JobStatus::Ok;
    plain.add(ok);
    const auto plain_text = plain.toJsonString();
    EXPECT_EQ(plain_text.find("attempts"), std::string::npos);
    EXPECT_EQ(plain_text.find("timeout_source"), std::string::npos);
}

TEST(ResultsStore, JsonRoundTripIsLossless)
{
    const auto store = runSweepWith(2);
    const auto text = store.toJsonString();

    const auto reread = ResultsStore::fromJsonString(text);
    ASSERT_EQ(reread.size(), store.size());
    // Byte-identical re-export, including wall-clock fields.
    EXPECT_EQ(reread.toJsonString(), text);
    EXPECT_EQ(reread.deterministicDigest(),
              store.deterministicDigest());

    // Spot-check a deep field survived.
    const auto a = store.sorted().front();
    const auto b = reread.get(a.jobId);
    EXPECT_EQ(a.costHistory, b.costHistory);
    EXPECT_EQ(a.systems.at(0).total.comm, b.systems.at(0).total.comm);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.wallNs, b.wallNs);
}

TEST(ResultsStore, RejectsForeignDocuments)
{
    EXPECT_THROW(ResultsStore::fromJsonString("{\"results\": []}"),
                 std::runtime_error);
    EXPECT_THROW(ResultsStore::fromJsonString("not json"),
                 std::runtime_error);
}

TEST(Json, ValuesSurviveRoundTrip)
{
    json::Value doc = json::Value::object();
    doc.set("u64", std::uint64_t(18446744073709551615ull));
    doc.set("i64", std::int64_t(-42));
    doc.set("pi", 3.141592653589793);
    doc.set("tiny", 5e-324);
    doc.set("text", "line\n\"quoted\"\t\\");
    doc.set("flag", true);
    doc.set("nothing", nullptr);
    json::Value arr = json::Value::array();
    arr.asArray().emplace_back(1);
    arr.asArray().emplace_back(2.5);
    doc.set("arr", std::move(arr));

    const auto text = doc.dump(2);
    const auto back = json::Value::parse(text);
    EXPECT_EQ(back.dump(2), text);
    EXPECT_EQ(back.at("u64").asUint(), 18446744073709551615ull);
    EXPECT_EQ(back.at("i64").asInt(), -42);
    EXPECT_EQ(back.at("pi").asDouble(), 3.141592653589793);
    EXPECT_EQ(back.at("tiny").asDouble(), 5e-324);
    EXPECT_EQ(back.at("text").asString(), "line\n\"quoted\"\t\\");
    EXPECT_TRUE(back.at("flag").asBool());
    EXPECT_TRUE(back.at("nothing").isNull());
    EXPECT_EQ(back.at("arr").asArray().at(1).asDouble(), 2.5);
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_THROW(json::Value::parse("{\"a\": }"),
                 std::runtime_error);
    EXPECT_THROW(json::Value::parse("[1, 2"), std::runtime_error);
    EXPECT_THROW(json::Value::parse("{} trailing"),
                 std::runtime_error);
    EXPECT_THROW(json::Value::parse("\"unterminated"),
                 std::runtime_error);
}

TEST(Scheduler, MetricsAccountEveryJob)
{
    SchedulerConfig cfg;
    cfg.workers = 4;
    BatchScheduler sched(cfg);
    auto handles = sched.submitAll(smallSweep());
    sched.wait();

    const auto m = sched.metrics();
    EXPECT_EQ(m.workers, 4u);
    EXPECT_EQ(m.submitted, handles.size());
    EXPECT_EQ(m.completed, handles.size());
    EXPECT_EQ(m.ok, handles.size());
    EXPECT_GT(m.batchWallNs, 0u);
    EXPECT_GT(m.totalJobWallNs, 0u);
    EXPECT_GT(m.totalSimTicks, 0u);
    EXPECT_GT(m.speedup(), 0.0);
}
