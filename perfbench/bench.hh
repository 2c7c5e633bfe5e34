/**
 * @file
 * Shared definitions of the repository benchmark: run options, the
 * metric/outcome record every workload fills, span-based layer
 * accounting for traced runs, and small statistics helpers.
 */

#ifndef QTENON_PERFBENCH_BENCH_HH
#define QTENON_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/pass/compile_cache.hh"
#include "service/batch_scheduler.hh"
#include "service/job.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the span dump of a traced run. */
    std::string outDir = ".bench_build/perfbench";
    /** Expected 128-bit output digest (hex) for this seed, or empty
     *  when none is recorded. */
    std::string expectDigest;
    /** Worker threads for the scheduler / daemon. */
    unsigned workers = 4;
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

/** What one run reports. */
struct Outcome {
    /** Every correctness check passed. */
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** 128-bit digest (hex) of the run's deterministic output. */
    std::string digest;
    /** Human-readable lines printed before the JSON result. */
    std::vector<std::string> notes;

    void
    set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Record a failed correctness check. */
    void fail(const std::string &why);
    void note(const std::string &line) { notes.push_back(line); }
};

double secondsSince(Clock::time_point t0);

/** Quantile with linear interpolation (q in [0, 1]); 0 if empty. */
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double geomean(const std::vector<double> &v);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/**
 * Run @p setup @p reps times and return the median of its wall
 * times in seconds. Set-up is repeated so one slow start does not
 * decide the reported figure.
 */
template <typename F>
double
medianSetupSeconds(unsigned reps, F &&setup)
{
    std::vector<double> times;
    for (unsigned i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        setup(i + 1 == reps);
        times.push_back(secondsSince(t0));
    }
    return median(times);
}

// ---------------------------------------------------------------
// Layer spans (traced runs only)
// ---------------------------------------------------------------

/** One closed span on one thread. */
struct Span {
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Duration minus the time covered by child spans. */
    std::int64_t selfNs = 0;
    /** Index of the parent span in the same span list, or -1. */
    std::int32_t parent = -1;
    std::uint32_t thread = 0;
};

/**
 * RAII span on the calling thread. Spans nest by scope; each one
 * charges its duration to its parent's child time, so self time is
 * exact without a post-pass. Closed spans stay in the calling
 * thread's buffer until takeThreadSpans() moves them out.
 */
class Layer
{
  public:
    explicit Layer(const char *name);
    ~Layer();

    Layer(const Layer &) = delete;
    Layer &operator=(const Layer &) = delete;

  private:
    std::int32_t _index;
};

/** Move out the calling thread's closed spans. O(1), so a job body
 *  can hand its spans over without costing unattributed time. */
std::vector<Span> takeThreadSpans();

// ---------------------------------------------------------------
// Traced layer-by-layer job replay
// ---------------------------------------------------------------

/** Spans and layer counters of one traced job (counters from the
 *  Qtenon-Rocket replay). */
struct JobLayers {
    std::vector<Span> spans;
    double quantumRuns = 0;
    double qtenonRounds = 0;
    double replayNs = 0;
    double busTxns = 0;
    double busTxnsAllHosts = 0;
    double l2Hits = 0;
    double l2Misses = 0;
    double pulses = 0;
    double roccTransfers = 0;
    double sltHits = 0;
    double sltMisses = 0;
    double compileHits = 0;
    double compiles = 0;
};

/**
 * Run @p spec layer by layer on the calling thread, wrapping each
 * public layer call in a Layer span, and fill @p ctx.result exactly
 * as service::runJobSpec would. Only the configuration the
 * benchmark uses is supported (no fault injection, sampled cost, no
 * readout error); anything else throws.
 */
void runTracedJob(const qtenon::service::JobSpec &spec,
                  qtenon::service::JobContext &ctx,
                  qtenon::isa::CompileCache *cache, JobLayers &out);

/** Deterministic bytes of one result (the daemon's cached form). */
std::string resultBytes(const qtenon::service::JobResult &r);

/** One finished job of a measured loop. */
struct JobRecord {
    qtenon::service::JobResult result;
    /** Position of the job's spec in the workload corpus. */
    std::size_t corpusIndex = 0;
    /** Submit until the result was observed, in ns. */
    double latencyNs = 0.0;
    /** Traced loops only. */
    JobLayers layers;
};

/** What a closed loop over a job corpus measured. */
struct LoopResult {
    std::vector<JobRecord> records;
    /** First submit until the last result, in seconds. */
    double windowS = 0.0;
};

/**
 * Keep one job per scheduler worker in flight, cycling through
 * @p corpus, until @p seconds have passed, at least @p min_jobs
 * were submitted and the last cycle is whole (so every run measures
 * the same job mix); then drain. A traced loop runs every job
 * through runTracedJob() inside the scheduler instead of
 * runJobSpec().
 */
LoopResult runClosedLoop(qtenon::service::BatchScheduler &sched,
                         const std::vector<qtenon::service::JobSpec> &corpus,
                         double seconds, std::size_t min_jobs,
                         bool traced,
                         qtenon::isa::CompileCache *cache = nullptr);

/** Write the spans of @p records as a Chrome trace-event document. */
void writeSpans(const std::string &path,
                const std::vector<JobRecord> &records);

/** Baseline / Qtenon-Rocket simulated wall (or classical) time. */
double simSpeedup(const qtenon::service::JobResult &r, bool classical);

/** Every per-layer metric at 0, so a workload that does not
 *  exercise a layer still reports it. */
void zeroLayerMetrics(Outcome &out);

/**
 * Per-layer metrics of traced jobs (averages per job unless the
 * name says otherwise) plus the accounting check: per job, the
 * layer self times must cover the job's host time to within
 * kAccountingTolerance.
 */
void addJobLayerMetrics(Outcome &out,
                        const std::vector<JobRecord> &traced,
                        double serialize_ns);

/** A job's host time may leave at most this share, plus
 *  kAccountingSlackNs (about one scheduler time slice, for a
 *  preemption between spans), outside its layer spans. */
constexpr double kAccountingTolerance = 0.05;
constexpr double kAccountingSlackNs = 5e6;

/** Note which layer is largest and whether it is @p expected. */
void confirmLargestLayer(Outcome &out, const std::string &expected);

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

bool isBatchWorkload(const std::string &name);
Outcome runBatchWorkload(const Options &opt);
Outcome runDaemonMix(const Options &opt);

} // namespace perfbench

#endif // QTENON_PERFBENCH_BENCH_HH
