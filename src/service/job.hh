/**
 * @file
 * The unit of work of the batch experiment service: one *job* is one
 * self-contained VQA experiment — a QtenonConfig, a workload spec, a
 * driver/optimizer spec, and a seed. Jobs carry no shared state:
 * each one builds its own workload, its own QtenonSystem(s) (each
 * with a private event queue), and draws from an RNG stream derived
 * deterministically from the job id, so a batch's results are
 * bit-identical regardless of worker count or completion order.
 */

#ifndef QTENON_SERVICE_JOB_HH
#define QTENON_SERVICE_JOB_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "baseline/decoupled_system.hh"
#include "core/qtenon_system.hh"
#include "fault/fault.hh"
#include "vqa/driver.hh"
#include "vqa/workload.hh"

namespace qtenon::service {

/** Lifecycle of one job. */
enum class JobStatus {
    Pending,
    Running,
    Ok,
    /** The job threw; the batch kept going (failure isolation). */
    Failed,
    /** Cooperative deadline hit between phases/rounds. */
    TimedOut,
    /** Cancelled before or while running. */
    Cancelled,
};

const char *jobStatusName(JobStatus s);
JobStatus jobStatusFromName(const std::string &name);

/** One timing replay of the job's trace on one system. */
struct SystemRun {
    /** Host model name ("rocket", "boom", ...) or "baseline". */
    std::string label;
    /** Program install / JIT-free setup phase. */
    runtime::TimeBreakdown setup;
    /** Sum over all evaluation rounds. */
    runtime::TimeBreakdown rounds;
    /** setup + rounds. */
    runtime::TimeBreakdown total;
    /** Controller/bus counters (zero for the decoupled baseline). */
    double busTransactions = 0.0;
    double pulsesGenerated = 0.0;
    std::uint64_t sltHits = 0;
    std::uint64_t sltMisses = 0;
    /** Simulated time reached by this system's event queue. */
    sim::Tick simTicks = 0;
};

struct JobResult;
class CancelToken;

/** Context handed to custom job bodies. */
struct JobContext {
    std::uint64_t jobId;
    /** The job's derived deterministic seed. */
    std::uint64_t seed;
    const CancelToken &token;
    /** Fill in metrics/systems; status is set by the scheduler. */
    JobResult &result;
};

/** One job: declarative experiment spec (or a custom body). */
struct JobSpec {
    /** Human-readable job name (shows up in reports and JSON). */
    std::string name = "job";

    vqa::WorkloadConfig workload;
    vqa::DriverConfig driver;
    core::QtenonConfig qtenon;

    /**
     * Host models to replay the trace on (one SystemRun each). Empty
     * means "the one host in `qtenon`". The workload runs
     * functionally once; every host replays the same trace.
     */
    std::vector<runtime::HostCoreModel> hosts;

    /** Also replay on the decoupled baseline (label "baseline"). */
    bool runBaseline = false;
    baseline::DecoupledConfig baselineCfg;

    /**
     * Mix the job id into driver.seed (splitmix64) so every job in a
     * batch draws an independent, reproducible RNG stream. Disable
     * to use driver.seed verbatim.
     */
    bool deriveSeedFromJobId = true;

    /** Per-job deadline override; zero uses the scheduler default. */
    std::chrono::milliseconds timeout{0};

    /**
     * Fault-injection plan (`--fault-spec`); empty = perfect links,
     * which is the byte-stable frozen-baseline path. When set, the
     * job builds one private `fault::FaultInjector` seeded from the
     * job's derived seed, so injection sequences are identical on
     * every worker count. Per-site retry policies live next to the
     * components they drive (`baselineCfg.linkRetry`,
     * `qtenon.busRetry`, `driver.evalRetry`).
     */
    fault::FaultSpec faultSpec;

    /**
     * Job-level retry: re-run a Failed/TimedOut job up to
     * `retry.maxAttempts` times with deterministic exponential
     * backoff (milliseconds). A sim::ConfigError fails the job on
     * its first attempt: it is deterministic. The default
     * (1 attempt) is the historical no-retry behaviour.
     */
    fault::RetryPolicy retry;

    /**
     * Escape hatch: when set, this body runs instead of the
     * declarative spec (used e.g. by the routing ablation, which
     * exercises the router rather than a QtenonSystem). Throwing
     * marks the job failed without killing the batch. A body cannot
     * honour `faultSpec`: a job with both fails with a
     * sim::ConfigError.
     */
    std::function<void(JobContext &)> custom;
};

/** Everything one finished job reports. */
struct JobResult {
    std::uint64_t jobId = 0;
    std::string name;
    JobStatus status = JobStatus::Pending;
    /** what() of the escaped exception when status == Failed. */
    std::string error;

    /** Effective driver seed (after job-id derivation). */
    std::uint64_t seed = 0;
    std::uint32_t numQubits = 0;
    std::string algorithm;
    std::string optimizer;
    /** Functional engine the driver resolved ("statevector", ...);
     *  empty for custom jobs. Not written by the v1 JSON schema (so
     *  stored batch results stay byte-stable), but accepted on read. */
    std::string backend;
    /** Compile mode the replay charged ("incremental",
     *  "full-recompile", "cached-incremental"); empty for custom
     *  jobs. Only written to JSON when != "incremental", so stored
     *  batch results stay byte-stable at the default mode. */
    std::string compileMode;

    /** Functional optimization outcome. */
    std::vector<double> costHistory;
    double finalCost = 0.0;
    /** Evaluation rounds recorded in the trace. */
    std::uint64_t rounds = 0;
    /** One shot's wall time on the modeled chip. */
    sim::Tick shotDuration = 0;

    /** One entry per replay target, in spec order. */
    std::vector<SystemRun> systems;

    /** Free-form named metrics (custom jobs, ablation extras). */
    std::map<std::string, double> metrics;

    /** Attempts consumed under JobSpec::retry (1 = first try
     *  succeeded; only written to JSON when > 1). */
    std::uint32_t attempts = 1;

    /** Which deadline applied when status == TimedOut:
     *  "job-override" or "scheduler-default" (empty otherwise). */
    std::string timeoutSource;
    /** Elapsed wall time when the deadline fired, in milliseconds
     *  (timed-out jobs only). */
    std::uint64_t timeoutElapsedMs = 0;

    /** Measured host wall-clock of this job (excluded from the
     *  deterministic digest). */
    std::uint64_t wallNs = 0;
    /** Total simulated ticks across all replayed systems. */
    sim::Tick simTicks = 0;

    /** First SystemRun with @p label, or nullptr. */
    const SystemRun *system(const std::string &label) const;
};

/** splitmix64 mix of a base seed and a job id: statistically
 *  independent per-job streams, stable across worker counts. */
std::uint64_t deriveJobSeed(std::uint64_t base, std::uint64_t job_id);

} // namespace qtenon::service

#endif // QTENON_SERVICE_JOB_HH
