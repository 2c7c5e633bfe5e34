/**
 * @file
 * Figure 14 reproduction: quantum-host communication time at 64
 * qubits - baseline vs Qtenon under GD and SPSA, plus the breakdown
 * of Qtenon's communication across q_set / q_update / q_acquire.
 *
 * Paper reference (GD): baseline QAOA 94.3 ms / QNN 2.7 s, Qtenon
 * 14.2 us / 456 us (speedups 6647x / 5921x); q_acquire dominates the
 * GD breakdown (85.2% QAOA, 98.1% QNN). Under SPSA the q_set and
 * q_update share dominates instead.
 */

#include "bench_util.hh"

using namespace qtenon;
using namespace qtenon::bench;

namespace {

void
commRow(vqa::Algorithm alg, vqa::OptimizerKind opt)
{
    auto spec = paperConfig(alg, opt, 64,
                            runtime::HostCoreModel::boomLarge());
    spec.runBaseline = true;
    const auto r = service::runJobSpec(spec, 0);
    const auto &qt = r.systems.front().total;
    const auto &bl = r.system("baseline")->total;

    const double speedup = qt.comm
        ? static_cast<double>(bl.comm) / static_cast<double>(qt.comm)
        : 0.0;
    const double total =
        static_cast<double>(qt.commSet + qt.commUpdate +
                            qt.commAcquire);
    std::printf("%-5s %-5s %12s %12s %9.0fx   %5.1f%% %8.1f%% %10.1f%%\n",
                vqa::algorithmName(alg).c_str(), optimizerName(opt),
                core::formatTime(bl.comm).c_str(),
                core::formatTime(qt.comm).c_str(), speedup,
                100.0 * qt.commSet / total,
                100.0 * qt.commUpdate / total,
                100.0 * qt.commAcquire / total);
}

} // namespace

int
main()
{
    banner("Figure 14: quantum-host communication, 64 qubits");
    std::printf("%-5s %-5s %12s %12s %10s   %6s %9s %11s\n", "algo",
                "opt", "baseline", "qtenon", "speedup", "q_set",
                "q_update", "q_acquire");
    for (auto opt : {vqa::OptimizerKind::GradientDescent,
                     vqa::OptimizerKind::Spsa}) {
        for (auto alg : {vqa::Algorithm::Qaoa, vqa::Algorithm::Vqe,
                         vqa::Algorithm::Qnn}) {
            commRow(alg, opt);
        }
    }
    std::printf("\npaper (GD): QAOA 94.3 ms -> 14.2 us (6647x), QNN "
                "2.7 s -> 456 us (5921x);\n"
                "q_acquire share 85.2%% (QAOA) / 98.1%% (QNN); under "
                "SPSA q_set+q_update dominate\n");
    return 0;
}
