/**
 * @file
 * Figure 15 reproduction: host execution time at 64 qubits -
 * decoupled baseline vs Qtenon-Boom vs Qtenon-Rocket under both
 * optimizers.
 *
 * Paper reference: Qtenon-Boom speedups of 308.7x/357.9x/175.0x
 * (GD) and 461.4x/123.8x/132.8x (SPSA) for QAOA/VQE/QNN.
 */

#include "bench_util.hh"

using namespace qtenon;
using namespace qtenon::bench;

namespace {

void
hostRow(vqa::Algorithm alg, vqa::OptimizerKind opt)
{
    auto spec = paperConfig(alg, opt, 64);
    spec.hosts = {runtime::HostCoreModel::rocket(),
                  runtime::HostCoreModel::boomLarge()};
    spec.runBaseline = true;
    const auto r = service::runJobSpec(spec, 0);

    // Host busy time (what the host core actually computes).
    const sim::Tick host_rocket = r.systems[0].total.hostBusy;
    const sim::Tick host_boom = r.systems[1].total.hostBusy;
    const auto &bl = r.system("baseline")->total;

    const double sp_boom = host_boom
        ? static_cast<double>(bl.host) /
            static_cast<double>(host_boom)
        : 0.0;
    std::printf("%-5s %-5s %12s %12s %12s %9.0fx\n",
                vqa::algorithmName(alg).c_str(), optimizerName(opt),
                core::formatTime(bl.host).c_str(),
                core::formatTime(host_boom).c_str(),
                core::formatTime(host_rocket).c_str(), sp_boom);
}

} // namespace

int
main()
{
    banner("Figure 15: host execution time, 64 qubits");
    std::printf("%-5s %-5s %12s %12s %12s %10s\n", "algo", "opt",
                "baseline", "qtenon-boom", "qtenon-rocket",
                "speedup(B)");
    for (auto opt : {vqa::OptimizerKind::GradientDescent,
                     vqa::OptimizerKind::Spsa}) {
        for (auto alg : {vqa::Algorithm::Qaoa, vqa::Algorithm::Vqe,
                         vqa::Algorithm::Qnn}) {
            hostRow(alg, opt);
        }
    }
    std::printf("\npaper (Boom): GD 308.7x/357.9x/175.0x; SPSA "
                "461.4x/123.8x/132.8x\n");
    return 0;
}
