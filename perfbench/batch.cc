/**
 * @file
 * The batch workloads: fig11/fig12/fig17-shaped VQA jobs on one
 * service::BatchScheduler, each replayed on Qtenon-Rocket,
 * Qtenon-Boom-L and the decoupled baseline.
 *
 *   gd-sv16   QAOA/VQE/QNN at 16 qubits, GD: statevector evolve
 *             dominates, replay is small.
 *   gd-mf64   QAOA/VQE/QNN at 64 qubits, GD: mean-field evolve is
 *             cheap; shot sampling and scoring dominate.
 *   spsa-320  QAOA/VQE at 256 and 320 qubits, SPSA: marginals path,
 *             timing replay (controller, bus, DRAM) dominates.
 */

#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "core/hash.hh"
#include "service/results_store.hh"

namespace perfbench {

using namespace qtenon;

namespace {

struct BatchShape {
    const char *name;
    std::vector<vqa::Algorithm> algorithms;
    std::vector<std::uint32_t> qubits;
    vqa::OptimizerKind optimizer;
    std::uint32_t iterations;
    /** Seeds per (algorithm, size) point in the corpus. */
    unsigned seedsPerPoint;
    /** The layer the workload exists to stress (see
     *  confirmLargestLayer). */
    const char *largestLayer;
};

/**
 * GD iterations are cut from the paper's 10 to 2: every GD
 * iteration repeats the same 2P+1 evaluations, so layer shares are
 * unchanged while a run completes five times more jobs. SPSA
 * iterations are raised instead so that 256/320-qubit jobs are not
 * dominated by workload build and compile. Algorithms are listed
 * costliest first: the corpus is submitted in that order, so the
 * drain at the end of a run waits on short jobs only.
 */
const BatchShape shapes[] = {
    {"gd-sv16",
     {vqa::Algorithm::Qnn, vqa::Algorithm::Vqe, vqa::Algorithm::Qaoa},
     {16}, vqa::OptimizerKind::GradientDescent, 2, 4, "quantum.run"},
    {"gd-mf64",
     {vqa::Algorithm::Vqe, vqa::Algorithm::Qnn, vqa::Algorithm::Qaoa},
     {64}, vqa::OptimizerKind::GradientDescent, 2, 4,
     "vqa.sample+score"},
    {"spsa-320", {vqa::Algorithm::Vqe, vqa::Algorithm::Qaoa},
     {320, 256}, vqa::OptimizerKind::Spsa, 40, 2,
     "runtime.install+rounds"},
};

/** Set-ups per run; the reported setup_s is their median. */
constexpr unsigned kSetupReps = 7;

const BatchShape *
findShape(const std::string &name)
{
    for (const auto &s : shapes)
        if (name == s.name)
            return &s;
    return nullptr;
}

/** splitmix64: the per-job seed derived from the workload seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** The workload's job corpus; job seeds derive from @p seed. */
std::vector<service::JobSpec>
buildCorpus(const BatchShape &shape, std::uint64_t seed)
{
    std::vector<service::JobSpec> corpus;
    for (auto alg : shape.algorithms) {
        for (auto q : shape.qubits) {
            for (unsigned s = 0; s < shape.seedsPerPoint; ++s) {
                service::JobSpec spec;
                spec.name = std::string(shape.name) + "/" +
                    vqa::algorithmName(alg) + "/q" + std::to_string(q) +
                    "/s" + std::to_string(s);
                spec.workload.algorithm = alg;
                spec.workload.numQubits = q;
                spec.driver.shots = 500;
                spec.driver.iterations = shape.iterations;
                spec.driver.optimizer = shape.optimizer;
                spec.driver.recordShotData = false;
                spec.driver.kernel.threads = 1;
                spec.driver.seed = mixSeed(seed, corpus.size());
                spec.deriveSeedFromJobId = false;
                spec.hosts = {runtime::HostCoreModel::rocket(),
                              runtime::HostCoreModel::boomLarge()};
                spec.runBaseline = true;
                corpus.push_back(std::move(spec));
            }
        }
    }
    return corpus;
}

/** The first result of every corpus entry and the run digest. */
struct Reference {
    /** Renumbered by corpus index. */
    std::vector<service::JobResult> first;
    std::vector<std::string> bytes;
    std::string digest;
};

/**
 * The first result of every corpus entry, renumbered by corpus
 * index, as the deterministic ResultsStore export; fails the run
 * when an entry never completed.
 */
Reference
referenceOf(const std::vector<JobRecord> &records, std::size_t n,
            Outcome &out)
{
    Reference ref;
    ref.bytes.resize(n);
    service::ResultsStore store;
    for (const auto &rec : records) {
        if (rec.corpusIndex >= n || store.contains(rec.corpusIndex))
            continue;
        auto r = rec.result;
        r.jobId = rec.corpusIndex;
        ref.bytes[rec.corpusIndex] = resultBytes(r);
        ref.first.push_back(r);
        store.add(std::move(r));
    }
    if (store.size() != n)
        out.fail("only " + std::to_string(store.size()) + " of " +
                 std::to_string(n) + " corpus jobs completed");
    ref.digest =
        core::fnv1a128(store.toJsonString(/*deterministic_only=*/true))
            .hex();
    return ref;
}

/** Count failures and check every result against its reference. */
void
checkRecords(const std::vector<JobRecord> &records,
             const Reference &ref, const char *what, Outcome &out)
{
    for (const auto &rec : records) {
        ++out.attempted;
        if (rec.result.status != service::JobStatus::Ok) {
            ++out.failed;
            out.fail("job '" + rec.result.name + "' " +
                     service::jobStatusName(rec.result.status) + ": " +
                     rec.result.error);
            continue;
        }
        auto r = rec.result;
        r.jobId = rec.corpusIndex;
        if (resultBytes(r) != ref.bytes[rec.corpusIndex])
            out.fail(std::string(what) + " result of '" + r.name +
                     "' differs from its first run");
    }
}

double
jobSecondsP50(const std::vector<JobRecord> &records)
{
    std::vector<double> v;
    for (const auto &rec : records)
        v.push_back(static_cast<double>(rec.result.wallNs) / 1e9);
    return median(v);
}

} // namespace

LoopResult
runClosedLoop(service::BatchScheduler &sched,
              const std::vector<service::JobSpec> &corpus,
              double seconds, std::size_t min_jobs, bool traced,
              isa::CompileCache *cache)
{
    struct InFlight {
        service::JobHandle handle;
        std::size_t index;
        Clock::time_point submitted;
    };
    std::mutex layers_mutex;
    std::map<std::uint64_t, JobLayers> layers;

    LoopResult loop;
    std::vector<InFlight> in_flight;
    std::size_t next = 0;
    const auto t0 = Clock::now();
    auto last = t0;
    for (;;) {
        while (in_flight.size() < sched.workers() &&
               (secondsSince(t0) < seconds || next < min_jobs ||
                next % corpus.size() != 0)) {
            const std::size_t index = next++ % corpus.size();
            service::JobSpec spec = corpus[index];
            if (traced) {
                spec.custom = [&, spec = corpus[index]](
                                  service::JobContext &ctx) {
                    JobLayers l;
                    runTracedJob(spec, ctx, cache, l);
                    l.spans = takeThreadSpans();
                    std::lock_guard<std::mutex> guard(layers_mutex);
                    layers[ctx.jobId] = std::move(l);
                };
            }
            in_flight.push_back(
                {sched.submit(std::move(spec)), index, Clock::now()});
        }
        if (in_flight.empty())
            break;
        bool progressed = false;
        for (std::size_t i = 0; i < in_flight.size();) {
            auto &f = in_flight[i];
            if (f.handle.result.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                ++i;
                continue;
            }
            last = Clock::now();
            JobRecord rec;
            rec.result = f.handle.result.get();
            rec.corpusIndex = f.index;
            rec.latencyNs =
                std::chrono::duration<double, std::nano>(last -
                                                         f.submitted)
                    .count();
            if (traced) {
                std::lock_guard<std::mutex> guard(layers_mutex);
                rec.layers = std::move(layers[f.handle.id]);
            }
            loop.records.push_back(std::move(rec));
            in_flight.erase(in_flight.begin() +
                            static_cast<std::ptrdiff_t>(i));
            progressed = true;
        }
        if (!progressed)
            std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    loop.windowS = std::chrono::duration<double>(last - t0).count();
    return loop;
}

bool
isBatchWorkload(const std::string &name)
{
    return findShape(name) != nullptr;
}

Outcome
runBatchWorkload(const Options &opt)
{
    const BatchShape &shape = *findShape(opt.workload);
    Outcome out;

    // Set-up: corpus generation, scheduler start, one warm-up job
    // (the corpus's last, cheapest entry).
    std::vector<service::JobSpec> corpus;
    std::unique_ptr<service::BatchScheduler> sched;
    JobRecord warmup;
    const double setup_s = medianSetupSeconds(kSetupReps, [&](bool keep) {
        corpus = buildCorpus(shape, opt.seed);
        auto s = std::make_unique<service::BatchScheduler>(
            service::SchedulerConfig{opt.workers, {}});
        auto r = s->submit(corpus.back()).result.get();
        if (r.status != service::JobStatus::Ok)
            throw std::runtime_error("warm-up job failed: " + r.error);
        if (keep) {
            sched = std::move(s);
            warmup.result = std::move(r);
            warmup.corpusIndex = corpus.size() - 1;
        }
    });
    const std::size_t n = corpus.size();

    // The untraced loop; in a traced run it is the reference phase.
    const auto plain = runClosedLoop(
        *sched, corpus, opt.trace ? 0.4 * opt.seconds : opt.seconds, n,
        /*traced=*/false);
    std::vector<JobRecord> all{warmup};
    all.insert(all.end(), plain.records.begin(), plain.records.end());
    const auto ref = referenceOf(all, n, out);
    out.digest = ref.digest;
    checkRecords(plain.records, ref, "repeated", out);

    if (!opt.trace) {
        double evals = 0.0;
        std::vector<double> latency_ms;
        for (const auto &rec : plain.records) {
            evals += static_cast<double>(rec.result.rounds);
            latency_ms.push_back(rec.latencyNs / 1e6);
        }
        std::vector<double> e2e, classical;
        for (const auto &r : ref.first) {
            e2e.push_back(simSpeedup(r, false));
            classical.push_back(simSpeedup(r, true));
        }
        const auto jobs = static_cast<double>(plain.records.size());
        out.set("setup_s", setup_s, "s");
        out.set("evals_per_s", evals / plain.windowS, "1/s");
        out.set("job_s_p50", jobSecondsP50(plain.records), "s");
        out.set("req_ms_p50", quantile(latency_ms, 0.5), "ms");
        out.set("req_ms_p90", quantile(latency_ms, 0.9), "ms");
        out.set("req_per_s", jobs / plain.windowS, "1/s");
        out.set("sim_speedup_e2e", geomean(e2e), "x");
        out.set("sim_speedup_classical", geomean(classical), "x");
        out.set("peak_rss_mb", peakRssMb(), "MB");
        out.note("jobs: " + std::to_string(plain.records.size()) +
                 " in " + std::to_string(plain.windowS) + " s");
        return out;
    }

    // Traced phase: every job replayed layer by layer inside the
    // same scheduler.
    const auto traced = runClosedLoop(*sched, corpus, 0.6 * opt.seconds,
                                      n, /*traced=*/true);
    checkRecords(traced.records, ref, "traced replay", out);

    double serialize_ns = 0.0;
    for (const auto &rec : traced.records) {
        const auto t0 = Clock::now();
        (void)resultBytes(rec.result);
        serialize_ns +=
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
    }
    // Tracing overhead per job, against the mean untraced host time
    // of the same corpus entry.
    std::vector<double> plain_sum(n), plain_count(n), overhead_ms;
    for (const auto &rec : plain.records) {
        plain_sum[rec.corpusIndex] +=
            static_cast<double>(rec.result.wallNs);
        plain_count[rec.corpusIndex] += 1;
    }
    for (const auto &rec : traced.records) {
        const auto i = rec.corpusIndex;
        if (plain_count[i] > 0)
            overhead_ms.push_back(
                (static_cast<double>(rec.result.wallNs) -
                 plain_sum[i] / plain_count[i]) /
                1e6);
    }

    zeroLayerMetrics(out);
    addJobLayerMetrics(out, traced.records, serialize_ns);
    out.set("trace.overhead_ms", median(overhead_ms), "ms");
    confirmLargestLayer(out, shape.largestLayer);
    out.note("traced jobs: " + std::to_string(traced.records.size()) +
             ", untraced reference jobs: " +
             std::to_string(plain.records.size()));
    writeSpans(opt.outDir + "/spans-" + opt.workload + ".json",
               traced.records);
    return out;
}

} // namespace perfbench
