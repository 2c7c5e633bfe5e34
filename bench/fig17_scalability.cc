/**
 * @file
 * Figure 17 reproduction: scalability of Qtenon from 64 to 320
 * qubits running QAOA and VQE under SPSA - communication time, host
 * time (both with their growth relative to 64 qubits), and the
 * 256-qubit end-to-end breakdown. All 14 points (10 scaling jobs +
 * 4 host-core jobs) run concurrently on the batch experiment
 * service (see --help for --jobs/--qubits/--seed/--json).
 *
 * Paper reference: at 320 qubits VQE needs 34.4 us of communication
 * and QAOA 12.5 us; host time reaches 11.8 ms (QAOA) / 6.4 ms (VQE);
 * at 256 qubits quantum execution dominates (77.5% / 76%).
 */

#include "bench_util.hh"
#include "service/batch_scheduler.hh"
#include "service/sweep.hh"
#include "sweep_cli.hh"

using namespace qtenon;
using namespace qtenon::bench;

int
main(int argc, char **argv)
{
    const auto cli = parseSweepCli(argc, argv);
    const auto sizes = cli.qubitsOr({64, 128, 192, 256, 320});

    const auto proto =
        cli.job(vqa::Algorithm::Qaoa, vqa::OptimizerKind::Spsa, 64);

    auto scaling_jobs =
        service::Sweep("fig17")
            .base(proto)
            .algorithms({vqa::Algorithm::Qaoa, vqa::Algorithm::Vqe})
            .qubits(sizes)
            .build();

    // Sec. 7.5's closing note: host computation can be reduced
    // further with more RISC-V cores (and pulse generation with more
    // PGUs, see ablation_pgu).
    std::vector<service::SweepVariant> core_axis;
    for (std::uint32_t cores : {1u, 2u, 4u, 8u}) {
        core_axis.push_back(
            {"cores" + std::to_string(cores),
             [cores](service::JobSpec &s) {
                 s.qtenon.host.cores = cores;
             }});
    }
    auto core_jobs = service::Sweep("fig17-hostcores")
                         .base(proto)
                         .algorithms({vqa::Algorithm::Vqe})
                         .qubits({256})
                         .axis(std::move(core_axis))
                         .build();

    service::BatchScheduler sched(cli.schedulerConfig());
    auto scaling = sched.submitAll(std::move(scaling_jobs));
    auto core_scan = sched.submitAll(std::move(core_jobs));
    auto &store = sched.wait();

    std::size_t next = 0;
    for (auto alg : {vqa::Algorithm::Qaoa, vqa::Algorithm::Vqe}) {
        banner(std::string("Figure 17: ") + vqa::algorithmName(alg) +
               " + SPSA scalability");
        std::printf("%8s %14s %10s %14s %10s %12s\n", "#qubits",
                    "comm", "rel64", "host", "rel64", "wall");
        runtime::TimeBreakdown base64;
        runtime::TimeBreakdown breakdown256;
        bool have256 = false;
        for (auto n : sizes) {
            const auto r = okResult(store, scaling[next++].id);
            const auto bd = r.systems.at(0).total;
            if (n == sizes.front())
                base64 = bd;
            if (n == 256) {
                breakdown256 = bd;
                have256 = true;
            }
            const double rel_comm = base64.comm
                ? static_cast<double>(bd.comm) /
                    static_cast<double>(base64.comm)
                : 0.0;
            const double rel_host = base64.hostBusy
                ? static_cast<double>(bd.hostBusy) /
                    static_cast<double>(base64.hostBusy)
                : 0.0;
            std::printf("%8u %14s %9.2fx %14s %9.2fx %12s\n", n,
                        core::formatTime(bd.comm).c_str(), rel_comm,
                        core::formatTime(bd.hostBusy).c_str(),
                        rel_host,
                        core::formatTime(bd.wall).c_str());
        }
        if (have256) {
            std::printf("256-qubit breakdown: ");
            printBreakdown("", breakdown256);
        }
    }

    banner("Sec. 7.5: more host cores at 256 qubits (VQE + SPSA)");
    std::printf("%8s %14s %12s\n", "#cores", "host busy", "wall");
    for (std::size_t i = 0; i < core_scan.size(); ++i) {
        const auto r = okResult(store, core_scan[i].id);
        const auto bd = r.systems.at(0).total;
        std::printf("%8u %14s %12s\n", 1u << i,
                    core::formatTime(bd.hostBusy).c_str(),
                    core::formatTime(bd.wall).c_str());
    }

    std::printf("\npaper: 320q comm 12.5 us (QAOA) / 34.4 us (VQE); "
                "host 11.8 ms / 6.4 ms;\n256q quantum share 77.5%% / "
                "76%%, comm below 0.1%%\n");
    cli.finish(sched);
    return 0;
}
