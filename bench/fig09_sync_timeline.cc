/**
 * @file
 * Figure 9 reproduction (the synchronization timing diagram): runs
 * one identical q_run + post-processing phase under (a) FENCE and
 * (b) fine-grained barrier synchronization and prints the resulting
 * event timeline, showing where the FENCE stalls the host and where
 * the barrier lets post-processing overlap quantum execution.
 */

#include "bench_util.hh"

using namespace qtenon;
using namespace qtenon::bench;

namespace {

runtime::TimeBreakdown
runOne(runtime::SyncPolicy sync)
{
    core::QtenonConfig cfg;
    cfg.numQubits = 16;
    cfg.software.sync = sync;
    core::QtenonSystem sys(cfg);

    auto wcfg = vqa::WorkloadConfig{};
    wcfg.algorithm = vqa::Algorithm::Vqe;
    wcfg.numQubits = 16;
    auto w = vqa::Workload::build(wcfg);

    vqa::DriverConfig dcfg;
    dcfg.iterations = 1;
    dcfg.shots = 64;
    dcfg.optimizer = vqa::OptimizerKind::Spsa;
    dcfg.recordShotData = false;
    const auto trace = vqa::VqaDriver(dcfg).run(w);
    return sys.execute(trace, w.circuit).rounds;
}

void
bar(const char *label, sim::Tick t, sim::Tick scale)
{
    const int width = scale
        ? static_cast<int>(60.0 * static_cast<double>(t) /
                           static_cast<double>(scale))
        : 0;
    std::printf("  %-10s %-8s |", label,
                core::formatTime(t).c_str());
    for (int i = 0; i < width; ++i)
        std::printf("#");
    std::printf("\n");
}

} // namespace

int
main()
{
    banner("Figure 9: FENCE vs fine-grained synchronization");

    auto fence = runOne(runtime::SyncPolicy::Fence);
    auto fine = runOne(runtime::SyncPolicy::FineGrained);

    const auto rounds_fence = fence.wall;
    const auto scale = rounds_fence;

    std::printf("\n(a) FENCE: the host stalls until q_run and every "
                "transmission retire,\n    then post-processes "
                "serially\n");
    bar("quantum", fence.quantum, scale);
    bar("comm", fence.comm, scale);
    bar("host", fence.host, scale);
    bar("wall", fence.wall, scale);

    std::printf("\n(b) fine-grained barrier: post-processing overlaps "
                "quantum execution;\n    only the tail is exposed\n");
    bar("quantum", fine.quantum, scale);
    bar("comm", fine.comm, scale);
    bar("host*", fine.host, scale);
    bar("(busy)", fine.hostBusy, scale);
    bar("wall", fine.wall, scale);

    std::printf("\nwall-time ratio (a)/(b): %.2fx; host work hidden "
                "by overlap: %s of %s\n",
                static_cast<double>(fence.wall) /
                    static_cast<double>(fine.wall),
                core::formatTime(fine.hostBusy - fine.host).c_str(),
                core::formatTime(fine.hostBusy).c_str());
    std::printf("* host = visible (critical-path) host time\n");
    return 0;
}
