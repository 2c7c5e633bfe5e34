/**
 * @file
 * Ablation: the Skip Lookup Table. Disables the skip path entirely
 * and sweeps its geometry (ways x entries) on a 64-qubit QAOA GD
 * run, reporting pulses computed, SLT hit rate, and pulse-generation
 * time - isolating how much of Table 5's reduction the SLT itself
 * contributes. One job per geometry on the batch experiment
 * service.
 */

#include "bench_util.hh"
#include "service/batch_scheduler.hh"
#include "service/sweep.hh"
#include "sweep_cli.hh"

using namespace qtenon;
using namespace qtenon::bench;

namespace {

struct Geometry {
    const char *label;
    bool enabled;
    std::uint32_t ways;
    std::uint32_t entries;
};

} // namespace

int
main(int argc, char **argv)
{
    const auto cli = parseSweepCli(argc, argv);
    const auto n = cli.qubitsOr({64}).front();

    banner("Ablation: Skip Lookup Table, 64-qubit QAOA + GD");

    const Geometry geometries[] = {
        {"SLT disabled", false, 2, 128},
        {"1 way x 32", true, 1, 32},
        {"1 way x 128", true, 1, 128},
        {"2 ways x 128 (paper)", true, 2, 128},
        {"4 ways x 256", true, 4, 256},
    };

    auto proto = cli.job(vqa::Algorithm::Qaoa,
                         vqa::OptimizerKind::GradientDescent, n);

    std::vector<service::SweepVariant> slt_axis;
    for (const auto &g : geometries) {
        slt_axis.push_back(
            {g.label, [g](service::JobSpec &s) {
                 s.qtenon.pipeline.sltEnabled = g.enabled;
                 s.qtenon.slt.ways = g.ways;
                 s.qtenon.slt.entriesPerWay = g.entries;
             }});
    }

    service::BatchScheduler sched(cli.schedulerConfig());
    auto handles = sched.submitAll(service::Sweep("ablation-slt")
                                       .base(std::move(proto))
                                       .qubits({n})
                                       .axis(std::move(slt_axis))
                                       .build());
    auto &store = sched.wait();

    std::printf("%-22s %10s %10s %12s %12s\n", "configuration",
                "pulses", "hit rate", "pulse time", "rounds wall");
    for (std::size_t i = 0; i < handles.size(); ++i) {
        const auto r = okResult(store, handles[i].id);
        const auto &sys = r.systems.at(0);
        const double lookups =
            static_cast<double>(sys.sltHits + sys.sltMisses);
        std::printf("%-22s %10.0f %9.1f%% %12s %12s\n",
                    geometries[i].label, sys.pulsesGenerated,
                    lookups > 0
                        ? 100.0 * static_cast<double>(sys.sltHits) /
                            lookups
                        : 0.0,
                    core::formatTime(sys.setup.pulseGen +
                                     sys.rounds.pulseGen).c_str(),
                    core::formatTime(sys.rounds.wall).c_str());
    }

    std::printf("\nexpectation: disabling the SLT multiplies computed "
                "pulses by the per-qubit parameter reuse factor; the "
                "paper's 2x128 geometry already captures nearly all "
                "reuse\n");
    cli.finish(sched);
    return 0;
}
