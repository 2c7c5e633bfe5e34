#include "batch_scheduler.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <limits>

#include "obs/metrics.hh"
#include "obs/trace_sink.hh"
#include "quantum/statevector.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"

namespace qtenon::service {

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Pending: return "pending";
      case JobStatus::Running: return "running";
      case JobStatus::Ok: return "ok";
      case JobStatus::Failed: return "failed";
      case JobStatus::TimedOut: return "timed_out";
      case JobStatus::Cancelled: return "cancelled";
    }
    return "?";
}

JobStatus
jobStatusFromName(const std::string &name)
{
    for (JobStatus s : {JobStatus::Pending, JobStatus::Running,
                        JobStatus::Ok, JobStatus::Failed,
                        JobStatus::TimedOut, JobStatus::Cancelled}) {
        if (name == jobStatusName(s))
            return s;
    }
    throw std::runtime_error("unknown job status '" + name + "'");
}

const SystemRun *
JobResult::system(const std::string &label) const
{
    for (const auto &s : systems) {
        if (s.label == label)
            return &s;
    }
    return nullptr;
}

std::uint64_t
deriveJobSeed(std::uint64_t base, std::uint64_t job_id)
{
    // splitmix64 on base ^ golden-ratio-spread job id.
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (job_id + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

const CancelToken &
CancelToken::none()
{
    static const CancelToken token(nullptr, {});
    return token;
}

unsigned
resolveWorkerCount(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("QTENON_JOBS")) {
        if (const auto n = sim::toUint(
                env, 1, std::numeric_limits<unsigned>::max()))
            return static_cast<unsigned>(*n);
        sim::warn("QTENON_JOBS='", env, "' is not a positive ",
                  "integer; falling back to hardware concurrency");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace {

/** Replay @p trace on one already-built system, round by round so
 *  the token can stop between rounds. */
SystemRun
replayOnQtenon(core::QtenonSystem &sys, const vqa::Workload &workload,
               const runtime::VqaTrace &trace, std::string label,
               const CancelToken &token)
{
    SystemRun run;
    run.label = std::move(label);
    const sim::Tick shot = sys.shotDuration(workload.circuit);
    run.setup = sys.executor().installProgram(trace.image);
    for (const auto &round : trace.rounds) {
        token.checkpoint();
        run.rounds +=
            sys.executor().executeRound(round, trace.image, shot);
    }
    run.total = run.setup;
    run.total += run.rounds;
    run.busTransactions = sys.bus().transactions.value();
    run.pulsesGenerated = sys.controller().pulsesGenerated.value();
    run.sltHits = sys.controller().slt().hits;
    run.sltMisses = sys.controller().slt().misses;
    run.simTicks = sys.eventQueue().curTick();
    return run;
}

} // namespace

JobResult
runJobSpec(const JobSpec &spec, std::uint64_t job_id,
           const CancelToken &token)
{
    JobResult r;
    r.jobId = job_id;
    r.name = spec.name;

    auto driver_cfg = spec.driver;
    if (spec.deriveSeedFromJobId)
        driver_cfg.seed = deriveJobSeed(driver_cfg.seed, job_id);
    r.seed = driver_cfg.seed;
    r.numQubits = spec.workload.numQubits;
    r.algorithm = vqa::algorithmName(spec.workload.algorithm);
    r.optimizer =
        driver_cfg.optimizer == vqa::OptimizerKind::GradientDescent
        ? "GD" : "SPSA";

    if (spec.custom) {
        if (!spec.faultSpec.empty())
            sim::fatal("a job with a custom body cannot honour a "
                       "fault spec");
        JobContext ctx{job_id, r.seed, token, r};
        spec.custom(ctx);
        return r;
    }
    r.compileMode =
        runtime::compileModeName(spec.qtenon.software.compile);

    token.checkpoint();
    auto workload = vqa::Workload::build(spec.workload);

    // One private injector per job, seeded from the job's derived
    // seed (unless the spec pins one), so injection sequences are
    // bit-identical regardless of worker count or completion order.
    // A seed without sites injects nothing and runs as no plan.
    std::unique_ptr<fault::FaultInjector> inj;
    if (!spec.faultSpec.sites.empty()) {
        const std::uint64_t fseed = spec.faultSpec.seed != 0
            ? spec.faultSpec.seed : fault::mix64(r.seed);
        inj = std::make_unique<fault::FaultInjector>(spec.faultSpec,
                                                     fseed);
        driver_cfg.injector = inj.get();
    }

    // The functional optimization runs once; every replay target
    // reuses the one recorded trace.
    vqa::VqaDriver driver(driver_cfg);
    auto trace = driver.run(workload);
    r.backend = trace.backend;
    r.costHistory = trace.costHistory;
    r.finalCost =
        trace.costHistory.empty() ? 0.0 : trace.costHistory.back();
    r.rounds = trace.rounds.size();
    token.checkpoint();

    std::vector<runtime::HostCoreModel> hosts = spec.hosts;
    if (hosts.empty())
        hosts.push_back(spec.qtenon.host);

    // The host model moves only the executor's timing, so the first
    // host's q_gen results serve the later ones (QgenLog).
    controller::QgenLog qgen;
    for (const auto &host : hosts) {
        auto qcfg = spec.qtenon;
        qcfg.numQubits = spec.workload.numQubits;
        qcfg.host = host;
        qcfg.injector = inj.get();
        // The driver compiled the trace image; the replay must
        // dispatch it the same way (scalar or wave-granular vector).
        qcfg.software.vectorIsa = driver_cfg.isaVector;
        core::QtenonSystem sys(qcfg);
        sys.controller().shareQgen(&qgen);
        r.shotDuration = sys.shotDuration(workload.circuit);
        r.systems.push_back(replayOnQtenon(
            sys, workload, trace, host.name, token));
        r.simTicks += r.systems.back().simTicks;
    }

    if (spec.runBaseline) {
        token.checkpoint();
        auto bcfg = spec.baselineCfg;
        bcfg.injector = inj.get();
        baseline::DecoupledSystem base(bcfg);
        SystemRun run;
        run.label = "baseline";
        for (const auto &round : trace.rounds) {
            token.checkpoint();
            run.rounds += base.executeRound(workload.circuit, round);
        }
        run.total = run.rounds;
        r.systems.push_back(std::move(run));
    }

    if (inj)
        inj->exportCounters(r.metrics);

    return r;
}

namespace {

/**
 * Add @p delta to the workers of every live BatchScheduler and
 * derive the statevector kernel-thread cap from that count: workers
 * x kernel threads never exceeds the machine, so enabling threaded
 * kernels cannot oversubscribe a batch, however many schedulers
 * are alive. No live worker means no cap.
 */
void
addLiveWorkers(int delta)
{
    static std::mutex mutex;
    static unsigned live = 0;
    std::lock_guard<std::mutex> guard(mutex);
    live += static_cast<unsigned>(delta);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    quantum::setKernelThreadCap(live ? std::max(1u, hw / live) : 0);
}

} // namespace

BatchScheduler::BatchScheduler(SchedulerConfig cfg)
    : _cfg(cfg), _workers(resolveWorkerCount(cfg.workers))
{
    addLiveWorkers(static_cast<int>(_workers));
    _metrics.workers = _workers;
    _threads.reserve(_workers);
    for (unsigned i = 0; i < _workers; ++i)
        _threads.emplace_back([this, i] { workerLoop(i); });
}

BatchScheduler::~BatchScheduler()
{
    cancelAll();
    {
        std::lock_guard<std::mutex> guard(_mutex);
        _stopping = true;
    }
    _workAvailable.notify_all();
    for (auto &t : _threads)
        t.join();
    addLiveWorkers(-static_cast<int>(_workers));
}

JobHandle
BatchScheduler::submit(JobSpec spec)
{
    auto job = std::make_shared<Job>();
    job->spec = std::move(spec);
    job->submitted = std::chrono::steady_clock::now();
    if (obs::metricsEnabled()) {
        static auto &c = obs::counter("service.jobs.submitted",
                                      "jobs enqueued");
        c.inc();
    }

    JobHandle handle{0, job->promise.get_future().share()};
    {
        std::lock_guard<std::mutex> guard(_mutex);
        if (_nextJobId == 0)
            _batchStart = std::chrono::steady_clock::now();
        job->id = handle.id = _nextJobId++;
        _jobs.emplace(job->id, job);
        _queue.push_back(std::move(job));
    }
    _workAvailable.notify_one();
    return handle;
}

std::vector<JobHandle>
BatchScheduler::submitAll(std::vector<JobSpec> specs)
{
    std::vector<JobHandle> handles;
    handles.reserve(specs.size());
    for (auto &s : specs)
        handles.push_back(submit(std::move(s)));
    return handles;
}

bool
BatchScheduler::cancel(std::uint64_t job_id)
{
    std::lock_guard<std::mutex> guard(_mutex);
    const auto it = _jobs.find(job_id);
    if (it == _jobs.end())
        return false;
    it->second->cancelRequested.store(true);
    return true;
}

void
BatchScheduler::cancelAll()
{
    std::lock_guard<std::mutex> guard(_mutex);
    for (const auto &[id, job] : _jobs)
        job->cancelRequested.store(true);
}

std::size_t
BatchScheduler::unfinished() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    return _jobs.size();
}

void
BatchScheduler::wait()
{
    std::unique_lock<std::mutex> lock(_mutex);
    _batchDone.wait(lock, [this] { return _jobs.empty(); });
}

ResultsStore
collect(std::span<const JobHandle> handles)
{
    ResultsStore store;
    for (const auto &h : handles)
        store.add(h.result.get());
    return store;
}

BatchMetrics
BatchScheduler::metrics() const
{
    std::lock_guard<std::mutex> guard(_mutex);
    BatchMetrics m = _metrics;
    m.submitted = _nextJobId;
    if (_nextJobId > 0) {
        const auto end = _jobs.empty()
            ? _batchEnd : std::chrono::steady_clock::now();
        m.batchWallNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                end - _batchStart)
                .count());
    }
    return m;
}

void
BatchScheduler::workerLoop(unsigned index)
{
    if (auto *sink = obs::traceSink()) {
        sink->threadName(obs::TraceEventSink::wallPid,
                         obs::currentTid(),
                         "worker " + std::to_string(index));
    }
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _workAvailable.wait(lock, [this] {
                return _stopping || !_queue.empty();
            });
            if (_queue.empty()) {
                if (_stopping)
                    return;
                continue;
            }
            job = _queue.front();
            _queue.pop_front();
        }
        if (obs::metricsEnabled()) {
            static auto &queue_wait = obs::histogram(
                "service.job.queue_wait_ns",
                "submit-to-start queue wait per job");
            queue_wait.record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - job->submitted)
                    .count()));
        }
        finishJob(*job, executeJob(job->spec, job->id,
                                   _cfg.defaultTimeout,
                                   &job->cancelRequested));
    }
}

JobResult
executeJob(const JobSpec &spec, std::uint64_t job_id,
           std::chrono::milliseconds default_timeout,
           const std::atomic<bool> *cancelled)
{
    const auto started = std::chrono::steady_clock::now();
    const bool job_override = spec.timeout.count() > 0;
    const auto timeout = job_override ? spec.timeout : default_timeout;
    // A job cancelled before it started runs no attempt.
    const std::uint32_t budget = cancelled && cancelled->load()
        ? 0 : std::max(1u, spec.retry.maxAttempts);

    static auto &busy = obs::gauge(
        "service.workers.busy",
        "workers currently executing a job");
    busy.add(1);

    JobResult r;
    r.status = JobStatus::Cancelled;
    for (std::uint32_t attempt = 1; attempt <= budget; ++attempt) {
        bool user_error = false;
        const auto attempt_started = attempt == 1
            ? started : std::chrono::steady_clock::now();
        const auto deadline = timeout.count() > 0
            ? attempt_started + timeout
            : std::chrono::steady_clock::time_point{};
        CancelToken token(cancelled, deadline);

        try {
            r = runJobSpec(spec, job_id, token);
            r.status = JobStatus::Ok;
        } catch (const JobCancelledError &) {
            r = JobResult{};
            r.status = JobStatus::Cancelled;
        } catch (const JobTimedOutError &) {
            const auto elapsed = static_cast<std::uint64_t>(
                std::chrono::duration_cast<
                    std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() -
                    attempt_started)
                    .count());
            r = JobResult{};
            r.status = JobStatus::TimedOut;
            r.timeoutSource =
                job_override ? "job-override" : "scheduler-default";
            r.timeoutElapsedMs = elapsed;
            r.error = "exceeded " + std::to_string(timeout.count()) +
                      " ms deadline (" + r.timeoutSource +
                      ", elapsed " + std::to_string(elapsed) + " ms)";
        } catch (const std::exception &e) {
            r = JobResult{};
            r.status = JobStatus::Failed;
            r.error = e.what();
            user_error =
                dynamic_cast<const sim::ConfigError *>(&e) != nullptr;
        } catch (...) {
            r = JobResult{};
            r.status = JobStatus::Failed;
            r.error = "unknown exception";
        }
        r.attempts = attempt;

        // Retry only genuine failures; Ok and Cancelled are final,
        // as are a user error (a rerun fails the same way) and a
        // cancel that raced the failing attempt.
        if (r.status == JobStatus::Ok ||
            r.status == JobStatus::Cancelled || user_error ||
            attempt >= budget || token.cancelRequested())
            break;

        if (obs::metricsEnabled()) {
            static auto &c = obs::counter(
                "service.jobs.retried",
                "job attempts re-run under JobSpec::retry");
            c.inc();
        }
        if (auto *sink = obs::traceSink()) {
            sink->instant(obs::TraceEventSink::wallPid,
                          obs::currentTid(), "job.retry",
                          "service.job", sink->nowUs());
        }
        // Deterministic backoff schedule: a pure function of the
        // job's derived seed and the attempt number, so it is
        // identical at every worker count.
        const std::uint64_t backoff_ms = spec.retry.backoffBefore(
            attempt, deriveJobSeed(spec.driver.seed, job_id));
        if (backoff_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff_ms));
        }
    }
    busy.add(-1);
    r.jobId = job_id;
    r.name = spec.name;
    r.wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - started)
            .count());

    if (obs::metricsEnabled()) {
        static auto &completed = obs::counter(
            "service.jobs.completed", "jobs finished (any status)");
        static auto &ok = obs::counter("service.jobs.ok",
                                       "jobs finished Ok");
        static auto &failed = obs::counter("service.jobs.failed",
                                           "jobs finished Failed");
        static auto &run_ns = obs::histogram(
            "service.job.run_ns", "start-to-finish wall per job");
        completed.inc();
        if (r.status == JobStatus::Ok)
            ok.inc();
        else if (r.status == JobStatus::Failed)
            failed.inc();
        run_ns.record(r.wallNs);
    }
    if (auto *sink = obs::traceSink()) {
        const double end_us = sink->nowUs();
        const double dur_us =
            static_cast<double>(r.wallNs) / 1000.0;
        sink->complete(obs::TraceEventSink::wallPid,
                       obs::currentTid(),
                       r.name.empty() ? "job" : r.name,
                       "service.job", end_us - dur_us, dur_us,
                       {{"job_id", std::to_string(r.jobId)},
                        {"status", jobStatusName(r.status)}});
    }
    return r;
}

void
BatchScheduler::finishJob(Job &job, JobResult r)
{
    bool batch_finished = false;
    {
        // Booking, fulfilling and leaving _jobs happen under one
        // lock: a ready future implies metrics() counts its job, and
        // a job cancel() still finds has not finished.
        std::lock_guard<std::mutex> guard(_mutex);
        ++_metrics.completed;
        switch (r.status) {
          case JobStatus::Ok: ++_metrics.ok; break;
          case JobStatus::Failed: ++_metrics.failed; break;
          case JobStatus::TimedOut: ++_metrics.timedOut; break;
          case JobStatus::Cancelled: ++_metrics.cancelled; break;
          default: break;
        }
        _metrics.totalJobWallNs += r.wallNs;
        _metrics.totalSimTicks += r.simTicks;
        job.promise.set_value(std::move(r));
        _jobs.erase(job.id);
        if (_jobs.empty()) {
            _batchEnd = std::chrono::steady_clock::now();
            batch_finished = true;
        }
    }
    if (batch_finished)
        _batchDone.notify_all();
}

} // namespace qtenon::service
