/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: default
 * experiment configurations matching the paper's Sec. 7.1 setup and
 * small table-printing utilities.
 */

#ifndef QTENON_BENCH_BENCH_UTIL_HH
#define QTENON_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "core/experiment.hh"
#include "core/hash.hh"

namespace qtenon::bench {

/** The paper's benchmark setup: 500 shots, 10 iterations. */
inline core::ComparisonConfig
paperConfig(vqa::Algorithm alg, vqa::OptimizerKind opt,
            std::uint32_t num_qubits,
            runtime::HostCoreModel host = runtime::HostCoreModel::rocket())
{
    core::ComparisonConfig cfg;
    cfg.workload.algorithm = alg;
    cfg.workload.numQubits = num_qubits;
    cfg.driver.shots = 500;
    cfg.driver.iterations = 10;
    cfg.driver.optimizer = opt;
    cfg.driver.recordShotData = false; // timing replay needs no words
    cfg.qtenon.host = host;
    return cfg;
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

} // namespace qtenon::bench

#endif // QTENON_BENCH_BENCH_UTIL_HH
