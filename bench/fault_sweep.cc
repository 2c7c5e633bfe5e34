/**
 * @file
 * Speedup vs. link loss rate: how the decoupled-vs-coupled gap
 * widens when the baseline's Ethernet/UDP link actually behaves like
 * UDP.
 *
 * The paper's fig11/fig12 comparison gives the decoupled baseline a
 * *perfect* link. This sweep re-runs one (algorithm, size) point per
 * loss rate with `--fault-spec eth.drop=<rate>` active, so the
 * baseline pays ack/timeout/retransmission costs (UdpExchange under
 * a RetryPolicy) while Qtenon's on-chip paths are untouched — the
 * end-to-end speedup therefore grows with the loss rate, which is
 * the robustness argument quantified.
 *
 *   fault_sweep [--loss-rates 0,0.01,0.05,0.1] [--qubits a,b,c]
 *               [sweep_cli options]
 *
 * An explicit --fault-spec adds further faults (readout flips, bus
 * errors, ADI jitter) on top of each point's eth.drop rate.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "service/batch_scheduler.hh"
#include "sweep_cli.hh"

using namespace qtenon;
using namespace qtenon::bench;

int
main(int argc, char **argv)
{
    std::vector<double> rates = {0, 0.01, 0.05, 0.1};
    const auto cli = parseSweepCli(argc, argv,
        [&rates](cli::OptionRegistry &reg) {
            reg.list("--loss-rates", "r0,r1,...",
                     "Ethernet drop rates swept "
                     "(default 0,0.01,0.05,0.1)",
                     &rates, 0.0, 1.0);
        });
    const auto sizes = cli.qubitsOr({8, 16});

    // One job per (size, loss rate): VQE under gradient descent,
    // replayed on Rocket, Boom, and the decoupled baseline.
    std::vector<service::JobSpec> specs;
    for (const auto q : sizes) {
        for (const auto rate : rates) {
            auto spec = cli.job(vqa::Algorithm::Vqe,
                                vqa::OptimizerKind::GradientDescent,
                                q);
            char loss[32];
            std::snprintf(loss, sizeof(loss), "%g", rate);
            spec.name = "vqe/gd/q" + std::to_string(q) + "/loss" +
                loss;
            spec.hosts = {runtime::HostCoreModel::rocket(),
                          runtime::HostCoreModel::boomLarge()};
            spec.runBaseline = true;
            if (rate > 0.0)
                spec.faultSpec.sites["eth"].drop = rate;
            specs.push_back(std::move(spec));
        }
    }

    service::BatchScheduler sched(cli.schedulerConfig());
    auto handles = sched.submitAll(std::move(specs));
    auto &store = sched.wait();

    std::size_t next = 0;
    for (const auto q : sizes) {
        banner("VQE / GD / " + std::to_string(q) +
               " qubits: e2e speedup vs Ethernet loss rate");
        std::printf("%10s %12s %12s %14s %14s\n", "loss", "e2e(R)x",
                    "e2e(B)x", "retransmits", "exhausted");
        for (std::size_t i = 0; i < rates.size(); ++i, ++next) {
            const auto r = okResult(store, handles[next].id);
            const auto *rocket = r.system("rocket");
            const auto *boom = r.system("boom-l");
            const auto *base = r.system("baseline");
            if (!rocket || !boom || !base)
                sim::fatal("job '", r.name,
                           "' is missing a system run");
            const double e2e_r = base->total.wall
                ? static_cast<double>(base->total.wall) /
                    static_cast<double>(rocket->total.wall)
                : 0.0;
            const double e2e_b = base->total.wall
                ? static_cast<double>(base->total.wall) /
                    static_cast<double>(boom->total.wall)
                : 0.0;
            std::printf("%10.3f %11.1fx %11.1fx %14.0f %14.0f\n",
                        rates[i], e2e_r, e2e_b,
                        metric(r, "fault.eth.retransmits"),
                        metric(r, "fault.eth.exhausted"));
        }
    }

    cli.finish(sched);
    return 0;
}
