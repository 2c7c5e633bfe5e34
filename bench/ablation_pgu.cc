/**
 * @file
 * Ablation: PGU count. The paper fixes eight PGUs (Table 4) and
 * notes in Sec. 7.5 that pulse generation "could be further reduced
 * by integrating additional PGUs". This bench sweeps 1..32 PGUs on
 * the initial full generation and on a GD-style incremental round
 * for 64-qubit VQE, one job per PGU count on the batch experiment
 * service.
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
    const auto sizes = cli.qubitsOr({64});
    const std::uint32_t pgu_counts[] = {1, 2, 4, 8, 16, 32};

    banner("Ablation: PGU count, 64-qubit VQE");

    auto proto = cli.job(vqa::Algorithm::Vqe,
                         vqa::OptimizerKind::GradientDescent,
                         sizes.front());

    std::vector<service::SweepVariant> pgu_axis;
    for (auto pgus : pgu_counts) {
        pgu_axis.push_back({"pgu" + std::to_string(pgus),
                            [pgus](service::JobSpec &s) {
                                s.qtenon.pipeline.numPgus = pgus;
                            }});
    }

    service::BatchScheduler sched(cli.schedulerConfig());
    auto handles = sched.submitAll(service::Sweep("ablation-pgu")
                                       .base(std::move(proto))
                                       .qubits({sizes.front()})
                                       .axis(std::move(pgu_axis))
                                       .build());
    const auto store = service::collect(handles);

    std::printf("%6s %16s %18s %14s\n", "#PGUs", "initial q_gen",
                "per-round pulse", "round wall");
    for (std::size_t i = 0; i < handles.size(); ++i) {
        const auto r = okResult(store, handles[i].id);
        const auto &sys = r.systems.at(0);
        const double rounds =
            static_cast<double>(r.rounds ? r.rounds : 1);
        const double per_round =
            static_cast<double>(sys.rounds.pulseGen) / rounds;
        const double round_wall =
            static_cast<double>(sys.rounds.wall) / rounds;
        std::printf("%6u %16s %18s %14s\n", pgu_counts[i],
                    core::formatTime(sys.setup.pulseGen).c_str(),
                    core::formatTime(
                        static_cast<sim::Tick>(per_round)).c_str(),
                    core::formatTime(
                        static_cast<sim::Tick>(round_wall)).c_str());
    }
    std::printf("\nexpectation: initial generation scales ~1/PGUs "
                "until the pipeline front-end bounds it; incremental "
                "rounds saturate early because few pulses change\n");
    cli.finish(sched, store);
    return 0;
}
