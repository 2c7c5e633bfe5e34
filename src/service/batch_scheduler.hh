/**
 * @file
 * The batch experiment scheduler: a fixed pool of worker threads
 * draining a shared FIFO of jobs (one self-contained VQA experiment
 * each, see job.hh). Submission returns a future; finished results
 * also land in a merge-safe ResultsStore keyed by job id, so the
 * aggregate is deterministic regardless of worker count or
 * completion order.
 *
 * Worker count comes from (highest priority first) the explicit
 * SchedulerConfig value, the QTENON_JOBS environment variable, and
 * std::thread::hardware_concurrency().
 *
 * Jobs are isolated: a throwing job marks its own result Failed and
 * the batch completes; a cooperative deadline (checked between
 * simulation phases and evaluation rounds) yields TimedOut; cancel()
 * flips a flag the same checkpoints observe.
 */

#ifndef QTENON_SERVICE_BATCH_SCHEDULER_HH
#define QTENON_SERVICE_BATCH_SCHEDULER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "job.hh"
#include "results_store.hh"

namespace qtenon::service {

/** Thrown by CancelToken::checkpoint() on cancellation. */
struct JobCancelledError : std::runtime_error {
    JobCancelledError() : std::runtime_error("job cancelled") {}
};

/** Thrown by CancelToken::checkpoint() past the deadline. */
struct JobTimedOutError : std::runtime_error {
    JobTimedOutError() : std::runtime_error("job timed out") {}
};

/**
 * Cooperative cancellation/deadline handle. Long-running job bodies
 * call checkpoint() at natural boundaries (between rounds); it
 * throws the matching error, which the scheduler converts into the
 * Cancelled / TimedOut status.
 */
class CancelToken
{
  public:
    CancelToken(const std::atomic<bool> *cancelled,
                std::chrono::steady_clock::time_point deadline)
        : _cancelled(cancelled), _deadline(deadline)
    {}

    /** A token that never cancels (for running specs standalone). */
    static const CancelToken &none();

    bool
    cancelRequested() const
    {
        return _cancelled &&
               _cancelled->load(std::memory_order_relaxed);
    }

    bool
    expired() const
    {
        return _deadline != std::chrono::steady_clock::time_point{} &&
               std::chrono::steady_clock::now() > _deadline;
    }

    void
    checkpoint() const
    {
        if (cancelRequested())
            throw JobCancelledError();
        if (expired())
            throw JobTimedOutError();
    }

  private:
    const std::atomic<bool> *_cancelled;
    std::chrono::steady_clock::time_point _deadline;
};

/** Scheduler knobs. */
struct SchedulerConfig {
    /** Worker threads; 0 defers to QTENON_JOBS, then the hardware
     *  concurrency. */
    unsigned workers = 0;
    /** Default per-job deadline; zero means no deadline. */
    std::chrono::milliseconds defaultTimeout{0};
};

/** Aggregate batch accounting. */
struct BatchMetrics {
    unsigned workers = 0;
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t timedOut = 0;
    std::size_t cancelled = 0;
    /** Wall-clock from first submit until the last job finished. */
    std::uint64_t batchWallNs = 0;
    /** Sum of per-job wall-clocks (serial-equivalent time). */
    std::uint64_t totalJobWallNs = 0;
    /** Total simulated ticks across every job. */
    sim::Tick totalSimTicks = 0;

    /** Serial-equivalent over actual wall: the pool's measured
     *  parallel speedup on this batch. */
    double
    speedup() const
    {
        return batchWallNs
            ? static_cast<double>(totalJobWallNs) /
                static_cast<double>(batchWallNs)
            : 0.0;
    }
};

/** A submitted job: its id plus a future for the result. */
struct JobHandle {
    std::uint64_t id = 0;
    std::shared_future<JobResult> result;
};

/** The worker-pool scheduler. */
class BatchScheduler
{
  public:
    explicit BatchScheduler(SchedulerConfig cfg = SchedulerConfig{});
    ~BatchScheduler();

    BatchScheduler(const BatchScheduler &) = delete;
    BatchScheduler &operator=(const BatchScheduler &) = delete;

    /** Number of worker threads actually running. */
    unsigned workers() const { return _workers; }

    /** Enqueue one job. Thread-safe. */
    JobHandle submit(JobSpec spec);
    std::vector<JobHandle> submitAll(std::vector<JobSpec> specs);

    /**
     * Request cancellation of one job. Pending jobs complete
     * immediately as Cancelled; running jobs stop at their next
     * checkpoint. Returns false for unknown/finished jobs.
     */
    bool cancel(std::uint64_t job_id);
    /** Request cancellation of every unfinished job. */
    void cancelAll();

    /** Jobs submitted and not yet finished. Thread-safe. */
    std::size_t unfinished() const;

    /** Block until every submitted job finished; returns the store. */
    ResultsStore &wait();

    /** The (live) aggregated results. */
    ResultsStore &results() { return _store; }
    const ResultsStore &results() const { return _store; }

    /** Snapshot of the batch accounting. */
    BatchMetrics metrics() const;

  private:
    struct Job {
        std::uint64_t id = 0;
        JobSpec spec;
        std::promise<JobResult> promise;
        std::shared_future<JobResult> future;
        std::atomic<bool> cancelRequested{false};
        std::atomic<bool> done{false};
        /** Enqueue time, for the queue-wait histogram. */
        std::chrono::steady_clock::time_point submitted{};
    };

    void workerLoop(unsigned index);
    void finishJob(Job &job, JobResult r);

    SchedulerConfig _cfg;
    unsigned _workers = 0;
    std::vector<std::thread> _threads;

    mutable std::mutex _mutex;
    std::condition_variable _workAvailable;
    std::condition_variable _batchDone;
    std::deque<std::shared_ptr<Job>> _queue;
    /**
     * Unfinished jobs by id, for cancel(). A job leaves when it
     * finishes, so a long-lived scheduler does not keep every spec
     * it ever ran.
     */
    std::unordered_map<std::uint64_t, std::shared_ptr<Job>> _jobs;
    bool _stopping = false;
    std::uint64_t _nextJobId = 0;
    std::size_t _inFlight = 0;

    BatchMetrics _metrics;
    std::chrono::steady_clock::time_point _batchStart{};
    std::chrono::steady_clock::time_point _batchEnd{};
    bool _batchStarted = false;

    ResultsStore _store;
};

/** The SchedulerConfig / QTENON_JOBS / hardware resolution rule. */
unsigned resolveWorkerCount(unsigned requested);

/**
 * Run one declarative job spec to completion on the calling thread
 * (one attempt of executeJob; also usable standalone). Throws
 * CancelToken errors and whatever the simulation throws; a spec
 * with both a custom body and a fault spec throws sim::ConfigError.
 */
JobResult runJobSpec(const JobSpec &spec, std::uint64_t job_id,
                     const CancelToken &token = CancelToken::none());

/**
 * Run one job to its final status on the calling thread: the body
 * the scheduler's workers and the daemon's submitters share. Each
 * attempt gets its own deadline (spec.timeout, else
 * @p default_timeout); failures other than a sim::ConfigError retry
 * under spec.retry. Records service.job.run_ns, service.jobs.*, the
 * service.workers.busy gauge and the job's trace span. Never throws
 * a job's exception.
 */
JobResult executeJob(const JobSpec &spec, std::uint64_t job_id,
                     std::chrono::milliseconds default_timeout,
                     const std::atomic<bool> *cancelled = nullptr);

} // namespace qtenon::service

#endif // QTENON_SERVICE_BATCH_SCHEDULER_HH
