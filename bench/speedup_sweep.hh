/**
 * @file
 * Shared sweep machinery for Figures 11 and 12, running on the batch
 * experiment service: each (algorithm, size) point is one job — one
 * functional trace, replayed on Qtenon-Rocket, Qtenon-Boom, and the
 * decoupled baseline — and the scheduler fans the 24 jobs out across
 * its worker pool.
 */

#ifndef QTENON_BENCH_SPEEDUP_SWEEP_HH
#define QTENON_BENCH_SPEEDUP_SWEEP_HH

#include "bench_util.hh"
#include "service/batch_scheduler.hh"
#include "service/sweep.hh"
#include "sweep_cli.hh"

namespace qtenon::bench {

/** The speedup ratios of one finished job. */
struct SpeedupRow {
    std::uint32_t qubits = 0;
    double classicalRocket = 0.0;
    double classicalBoom = 0.0;
    double e2eRocket = 0.0;
    double e2eBoom = 0.0;
};

inline double
speedupRatio(sim::Tick num, sim::Tick den)
{
    return den
        ? static_cast<double>(num) / static_cast<double>(den)
        : 0.0;
}

inline SpeedupRow
speedupRow(const service::JobResult &r)
{
    SpeedupRow row;
    row.qubits = r.numQubits;
    const auto *rocket = r.system("rocket");
    const auto *boom = r.system("boom-l");
    const auto *base = r.system("baseline");
    if (!rocket || !boom || !base)
        sim::fatal("job '", r.name, "' is missing a system run");
    row.classicalRocket = speedupRatio(base->total.classical(),
                                       rocket->total.classical());
    row.classicalBoom = speedupRatio(base->total.classical(),
                                     boom->total.classical());
    row.e2eRocket = speedupRatio(base->total.wall, rocket->total.wall);
    row.e2eBoom = speedupRatio(base->total.wall, boom->total.wall);
    return row;
}

/** Build the figure's 3 x |sizes| job batch for one optimizer. */
inline std::vector<service::JobSpec>
speedupJobs(vqa::OptimizerKind opt,
            const std::vector<std::uint32_t> &sizes,
            const SweepCli &cli)
{
    return service::Sweep(optimizerName(opt))
        .base(cli.job(vqa::Algorithm::Qaoa, opt, 8))
        .algorithms({vqa::Algorithm::Qaoa, vqa::Algorithm::Vqe,
                     vqa::Algorithm::Qnn})
        .qubits(sizes)
        .hosts({runtime::HostCoreModel::rocket(),
                runtime::HostCoreModel::boomLarge()})
        .withBaseline(true)
        .build();
}

/** Print the classical + end-to-end speedup series for one figure. */
inline void
printSpeedupFigure(vqa::OptimizerKind opt, const SweepCli &cli)
{
    const auto sizes =
        cli.qubitsOr({8, 16, 24, 32, 40, 48, 56, 64});

    service::BatchScheduler sched(cli.schedulerConfig());
    auto handles = sched.submitAll(speedupJobs(opt, sizes, cli));
    const auto store = service::collect(handles);

    const vqa::Algorithm algos[] = {vqa::Algorithm::Qaoa,
                                    vqa::Algorithm::Vqe,
                                    vqa::Algorithm::Qnn};
    std::size_t next = 0;
    for (auto alg : algos) {
        banner(vqa::algorithmName(alg) + std::string(" / ") +
               optimizerName(opt));
        std::printf("%8s %14s %14s %12s %12s\n", "#qubits",
                    "classical(R)x", "classical(B)x", "e2e(R)x",
                    "e2e(B)x");
        double sum_classical = 0.0;
        double max_e2e = 0.0;
        for (std::size_t i = 0; i < sizes.size(); ++i, ++next) {
            const auto r = okResult(store, handles[next].id);
            const auto row = speedupRow(r);
            sum_classical += row.classicalBoom;
            max_e2e = std::max(max_e2e,
                               std::max(row.e2eRocket, row.e2eBoom));
            std::printf("%8u %13.1fx %13.1fx %11.1fx %11.1fx\n",
                        row.qubits, row.classicalRocket,
                        row.classicalBoom, row.e2eRocket,
                        row.e2eBoom);
        }
        std::printf("average classical speedup (Boom): %.1fx, "
                    "peak end-to-end: %.1fx\n",
                    sum_classical /
                        static_cast<double>(sizes.size()),
                    max_e2e);
    }
    cli.finish(sched, store);
}

} // namespace qtenon::bench

#endif // QTENON_BENCH_SPEEDUP_SWEEP_HH
