/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: default
 * experiment configurations matching the paper's Sec. 7.1 setup,
 * small table-printing utilities, and reading batch job results.
 */

#ifndef QTENON_BENCH_BENCH_UTIL_HH
#define QTENON_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/hash.hh"
#include "service/batch_scheduler.hh"
#include "sim/logging.hh"

namespace qtenon::bench {

/**
 * The paper's benchmark setup: 500 shots, 10 iterations, and the
 * driver seed used verbatim (one fixed seed per figure point).
 */
inline service::JobSpec
paperConfig(vqa::Algorithm alg, vqa::OptimizerKind opt,
            std::uint32_t num_qubits,
            runtime::HostCoreModel host = runtime::HostCoreModel::rocket())
{
    service::JobSpec spec;
    spec.workload.algorithm = alg;
    spec.workload.numQubits = num_qubits;
    spec.driver.shots = 500;
    spec.driver.iterations = 10;
    spec.driver.optimizer = opt;
    spec.driver.recordShotData = false; // timing replay needs no words
    spec.qtenon.host = host;
    spec.deriveSeedFromJobId = false;
    return spec;
}

inline const char *
optimizerName(vqa::OptimizerKind k)
{
    return k == vqa::OptimizerKind::GradientDescent ? "GD" : "SPSA";
}

/** Print a centered section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n===== %s =====\n", title.c_str());
}

/** Print one breakdown row with percentages. */
inline void
printBreakdown(const char *label, const runtime::TimeBreakdown &bd)
{
    std::printf("%-24s total %-12s quantum %5.1f%%  pulse %5.1f%%  "
                "comm %5.1f%%  host %5.1f%%\n",
                label, core::formatTime(bd.wall).c_str(),
                bd.percent(bd.quantum), bd.percent(bd.pulseGen),
                bd.percent(bd.comm), bd.percent(bd.host));
}

/**
 * Carry a 128-bit digest through a job's metrics map as four
 * 32-bit words (digest_0..digest_3), each exact in a double.
 */
inline void
digestToMetrics(const core::Digest128 &d,
                std::map<std::string, double> &m)
{
    m["digest_0"] = static_cast<double>(d.lo & 0xffffffffull);
    m["digest_1"] = static_cast<double>(d.lo >> 32);
    m["digest_2"] = static_cast<double>(d.hi & 0xffffffffull);
    m["digest_3"] = static_cast<double>(d.hi >> 32);
}

/** The digest digestToMetrics stored; absent words read as zero. */
inline core::Digest128
digestFromMetrics(const std::map<std::string, double> &m)
{
    auto word = [&](const char *k) {
        const auto it = m.find(k);
        return it == m.end()
            ? 0ull
            : static_cast<std::uint64_t>(it->second);
    };
    return core::Digest128{
        word("digest_0") | (word("digest_1") << 32),
        word("digest_2") | (word("digest_3") << 32)};
}

/** Job @p id's result; any status but Ok is fatal. */
inline service::JobResult
okResult(const service::ResultsStore &store, std::uint64_t id)
{
    auto r = store.get(id);
    if (r.status != service::JobStatus::Ok)
        sim::fatal("job '", r.name, "' ",
                   service::jobStatusName(r.status), ": ", r.error);
    return r;
}

/** Metric @p key of @p r; absent reads as zero. */
inline double
metric(const service::JobResult &r, const char *key)
{
    const auto it = r.metrics.find(key);
    return it == r.metrics.end() ? 0.0 : it->second;
}

/** One job of a batch checked for worker-count invariance. */
struct RerunChecked {
    service::JobResult result;
    /** The one-worker rerun reproduced the job's digest. */
    bool rerunMatches = false;
};

/**
 * Run the jobs @p build makes on @p sched, then a fresh copy of them
 * on one worker (otherwise configured as @p cfg), and compare each
 * job's digestToMetrics digest across the two runs. Results come
 * back in submission order; a job of either run that is not Ok is
 * fatal.
 */
inline std::vector<RerunChecked>
runWithRerun(service::BatchScheduler &sched,
             service::SchedulerConfig cfg,
             const std::function<std::vector<service::JobSpec>()> &build)
{
    const auto handles = sched.submitAll(build());
    const auto &store = sched.wait();
    cfg.workers = 1;
    service::BatchScheduler rerun(cfg);
    const auto rerunHandles = rerun.submitAll(build());
    const auto &rerunStore = rerun.wait();
    std::vector<RerunChecked> out;
    for (std::size_t i = 0; i < handles.size(); ++i) {
        auto r = okResult(store, handles[i].id);
        const auto rr = okResult(rerunStore, rerunHandles[i].id);
        const bool matches = digestFromMetrics(r.metrics) ==
            digestFromMetrics(rr.metrics);
        out.push_back({std::move(r), matches});
    }
    return out;
}

} // namespace qtenon::bench

#endif // QTENON_BENCH_BENCH_UTIL_HH
