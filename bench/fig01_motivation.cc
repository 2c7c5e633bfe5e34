/**
 * @file
 * Figure 1 reproduction: (a) quantum vs classical execution fraction
 * of the decoupled baseline for QAOA/VQE/QNN at 48/56/64 qubits;
 * (b) the detailed classical breakdown of 64-qubit VQE.
 *
 * Paper reference values: quantum fractions around 16.4/15/13.7%
 * falling to 7.9/7/6.3% as registers grow; the 64-qubit VQE
 * breakdown is dominated by quantum-host communication (78.7%) and
 * host computation (9%).
 */

#include "bench_util.hh"

using namespace qtenon;
using namespace qtenon::bench;

int
main()
{
    banner("Figure 1(a): quantum fraction on the decoupled baseline");
    std::printf("%-6s %8s %10s %10s %12s\n", "algo", "#qubits",
                "quantum%", "classical%", "wall");

    struct Point {
        vqa::Algorithm alg;
        std::uint32_t qubits;
    };
    const Point points[] = {
        {vqa::Algorithm::Qaoa, 48}, {vqa::Algorithm::Qaoa, 64},
        {vqa::Algorithm::Vqe, 56},  {vqa::Algorithm::Vqe, 64},
        {vqa::Algorithm::Qnn, 48},  {vqa::Algorithm::Qnn, 64},
    };
    for (const auto &p : points) {
        auto spec = paperConfig(p.alg, vqa::OptimizerKind::GradientDescent,
                                p.qubits);
        spec.runBaseline = true;
        const auto r = service::runJobSpec(spec, 0);
        const auto &bd = r.system("baseline")->total;
        std::printf("%-6s %8u %9.1f%% %9.1f%% %12s\n",
                    vqa::algorithmName(p.alg).c_str(), p.qubits,
                    bd.percent(bd.quantum),
                    100.0 - bd.percent(bd.quantum),
                    core::formatTime(bd.wall).c_str());
    }

    banner("Figure 1(b): 64-qubit VQE baseline time breakdown");
    auto spec = paperConfig(vqa::Algorithm::Vqe,
                            vqa::OptimizerKind::Spsa, 64);
    spec.runBaseline = true;
    const auto r = service::runJobSpec(spec, 0);
    const auto &bd = r.system("baseline")->total;
    std::printf("quantum execution    %6.1f%%   (paper:  7.9%%)\n",
                bd.percent(bd.quantum));
    std::printf("pulse generation     %6.1f%%   (paper:  4.4%%)\n",
                bd.percent(bd.pulseGen));
    std::printf("quantum-host comm.   %6.1f%%   (paper: 78.7%%)\n",
                bd.percent(bd.comm));
    std::printf("host computation     %6.1f%%   (paper:  9.0%%)\n",
                bd.percent(bd.host));
    std::printf("total                %s      (paper: 204.3 ms)\n",
                core::formatTime(bd.wall).c_str());
    return 0;
}
