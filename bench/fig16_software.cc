/**
 * @file
 * Figure 16 reproduction: the two software ablations at 64 qubits.
 * (a) synchronization: RISC-V FENCE vs Qtenon's fine-grained memory
 *     barrier - quantum-host transmission/exposure time.
 * (b) scheduling: unbatched vs batched measurement transmission -
 *     host-side time.
 *
 * Paper reference: (a) speedups around 2.7x/2.5x (QAOA), larger for
 * VQE/QNN under GD; (b) 4.4x/10.1x/3.4x (GD) and 6.6x/3.5x/2.6x
 * (SPSA).
 */

#include "bench_util.hh"

using namespace qtenon;
using namespace qtenon::bench;

namespace {

runtime::TimeBreakdown
runWithSoftware(const service::JobSpec &cfg,
                const vqa::Workload &workload,
                const runtime::VqaTrace &trace,
                runtime::SoftwareConfig sw)
{
    auto qcfg = cfg.qtenon;
    qcfg.numQubits = cfg.workload.numQubits;
    qcfg.software = sw;
    core::QtenonSystem sys(qcfg);
    return sys.execute(trace, workload.circuit).rounds;
}

void
ablationRow(vqa::Algorithm alg, vqa::OptimizerKind opt)
{
    auto cfg = paperConfig(alg, opt, 64);
    auto workload = vqa::Workload::build(cfg.workload);
    vqa::VqaDriver driver(cfg.driver);
    auto trace = driver.run(workload);

    // (a) sync ablation: everything else at full quality.
    auto fence_sw = runtime::SoftwareConfig::full();
    fence_sw.sync = runtime::SyncPolicy::Fence;
    auto bd_fence = runWithSoftware(cfg, workload, trace, fence_sw);
    auto bd_fine = runWithSoftware(cfg, workload, trace,
                                   runtime::SoftwareConfig::full());

    // Exposed transmission + stalled post-processing cost per policy.
    const double sync_fence = static_cast<double>(
        bd_fence.commAcquire + bd_fence.host);
    const double sync_fine = static_cast<double>(
        bd_fine.commAcquire + bd_fine.host);
    const double sync_speedup =
        sync_fine > 0 ? sync_fence / sync_fine : 0.0;

    // (b) scheduling ablation: batched vs immediate under FENCE
    // (where transmission cost is fully exposed).
    auto imm_sw = fence_sw;
    imm_sw.transmission = runtime::TransmissionPolicy::Immediate;
    auto bd_imm = runWithSoftware(cfg, workload, trace, imm_sw);
    const double sched_speedup = bd_fence.commAcquire > 0
        ? static_cast<double>(bd_imm.commAcquire) /
            static_cast<double>(bd_fence.commAcquire)
        : 0.0;

    std::printf("%-5s %-5s   %10s %10s %7.1fx   %10s %10s %7.1fx\n",
                vqa::algorithmName(alg).c_str(), optimizerName(opt),
                core::formatTime(static_cast<sim::Tick>(sync_fence))
                    .c_str(),
                core::formatTime(static_cast<sim::Tick>(sync_fine))
                    .c_str(),
                sync_speedup,
                core::formatTime(bd_imm.commAcquire).c_str(),
                core::formatTime(bd_fence.commAcquire).c_str(),
                sched_speedup);
}

} // namespace

int
main()
{
    banner("Figure 16: software ablations, 64 qubits");
    std::printf("%-5s %-5s   %10s %10s %8s   %10s %10s %8s\n", "algo",
                "opt", "FENCE", "fine-grd", "speedup", "unbatched",
                "batched", "speedup");
    for (auto opt : {vqa::OptimizerKind::GradientDescent,
                     vqa::OptimizerKind::Spsa}) {
        for (auto alg : {vqa::Algorithm::Qaoa, vqa::Algorithm::Vqe,
                         vqa::Algorithm::Qnn}) {
            ablationRow(alg, opt);
        }
    }
    std::printf("\npaper: (a) sync speedups ~1.3-2.8x; (b) scheduling "
                "speedups 4.4x/10.1x/3.4x (GD), 6.6x/3.5x/2.6x "
                "(SPSA)\n");
    return 0;
}
