/**
 * @file
 * Figure 13 reproduction: end-to-end breakdown of 64-qubit VQE under
 * SPSA on (a) the decoupled baseline, (b) Qtenon hardware without
 * the software optimizations, and (c) the full Qtenon system.
 *
 * Paper reference: (a) 204.3 ms with 78.7% communication,
 * (b) 22.1 ms with host computation at 21.8%, (c) 18.1 ms with
 * quantum execution at 89.2%.
 *
 * The three replays run as custom jobs on the batch service (so
 * --jobs/--trace-out show per-worker job rows), and the printed
 * quantum/pulse/comm/host totals are cross-checked *exactly* against
 * the obs layer's runtime.breakdown.* histogram sums: every tick the
 * figure reports must have been recorded by the instrumentation.
 * The baseline replay never enters the Qtenon executor, so the
 * histograms must sum to exactly (b) + (c).
 */

#include <memory>

#include "bench_util.hh"
#include "obs/metrics.hh"
#include "service/batch_scheduler.hh"
#include "sweep_cli.hh"

using namespace qtenon;
using namespace qtenon::bench;

namespace {

/** One checked category: a printed total vs a histogram's sum. */
struct CrossCheck {
    const char *label;
    const char *histogram;
    sim::Tick printed;
};

sim::Tick
categoryTotal(const runtime::TimeBreakdown &b,
              const runtime::TimeBreakdown &c, int cat)
{
    switch (cat) {
    case 0: return b.quantum + c.quantum;
    case 1: return b.pulseGen + c.pulseGen;
    case 2: return b.comm + c.comm;
    case 3: return b.host + c.host;
    default: return b.wall + c.wall;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    auto cli = parseSweepCli(argc, argv);
    // fig13 always cross-checks its stage totals against the obs
    // histograms, so the metrics layer is on regardless of
    // --metrics-json (enabling it never changes simulated results).
    obs::setMetricsEnabled(true);
    obs::registry().reset();

    const auto num_qubits = cli.qubitsOr({64}).front();
    const auto cfg = cli.job(vqa::Algorithm::Vqe,
                             vqa::OptimizerKind::Spsa, num_qubits);

    // The functional optimization runs once; all three replays
    // share the recorded trace.
    auto workload = std::make_shared<vqa::Workload>(
        vqa::Workload::build(cfg.workload));
    vqa::VqaDriver driver(cfg.driver);
    auto trace = std::make_shared<runtime::VqaTrace>(
        driver.run(*workload));

    banner("Figure 13: " + std::to_string(num_qubits) +
           "-qubit VQE + SPSA end-to-end breakdown");

    service::BatchScheduler sched(cli.schedulerConfig());

    auto make_job = [&](std::string name,
                        std::function<runtime::TimeBreakdown(
                            service::SystemRun &)> body) {
        auto spec = cfg;
        spec.name = std::move(name);
        spec.custom = [body = std::move(body)](
                          service::JobContext &ctx) {
            service::SystemRun run;
            run.total = body(run);
            ctx.result.systems.push_back(std::move(run));
        };
        return sched.submit(std::move(spec));
    };

    // (a) decoupled baseline.
    auto ha = make_job("fig13-baseline",
        [&, workload, trace](service::SystemRun &run) {
            run.label = "baseline";
            baseline::DecoupledSystem base(cfg.baselineCfg);
            return base.execute(workload->circuit, *trace);
        });

    // (b) Qtenon hardware, software optimizations off.
    auto hb = make_job("fig13-qtenon-hw",
        [&, workload, trace](service::SystemRun &run) {
            run.label = "qtenon-hw";
            auto qcfg = cfg.qtenon;
            qcfg.numQubits = workload->circuit.numQubits();
            qcfg.software = runtime::SoftwareConfig::hardwareOnly();
            core::QtenonSystem sys(qcfg);
            auto exec = sys.execute(*trace, workload->circuit);
            run.setup = exec.setup;
            run.rounds = exec.rounds;
            return exec.total();
        });

    // (c) full Qtenon.
    auto hc = make_job("fig13-qtenon-full",
        [&, workload, trace](service::SystemRun &run) {
            run.label = "qtenon-full";
            auto qcfg = cfg.qtenon;
            qcfg.numQubits = workload->circuit.numQubits();
            core::QtenonSystem sys(qcfg);
            auto exec = sys.execute(*trace, workload->circuit);
            run.setup = exec.setup;
            run.rounds = exec.rounds;
            return exec.total();
        });

    const service::JobHandle handles[] = {ha, hb, hc};
    const auto store = service::collect(handles);
    auto totalOf = [&](const service::JobHandle &h,
                       const char *label) {
        const auto r = okResult(store, h.id);
        const auto *run = r.system(label);
        if (!run)
            sim::fatal("job '", r.name, "' is missing its run");
        return run->total;
    };
    const auto bd_a = totalOf(ha, "baseline");
    const auto bd_b = totalOf(hb, "qtenon-hw");
    const auto bd_c = totalOf(hc, "qtenon-full");

    printBreakdown("(a) baseline", bd_a);
    printBreakdown("(b) qtenon w/o software", bd_b);
    printBreakdown("(c) qtenon", bd_c);

    // ---- Exact cross-check: printed totals vs histogram sums. The
    // baseline never touches the executor, so the runtime.breakdown
    // histograms must hold exactly (b) + (c), tick for tick.
    const auto hists = obs::registry().histogramValues();
    const CrossCheck checks[] = {
        {"quantum", "runtime.breakdown.quantum_ticks", 0},
        {"pulse", "runtime.breakdown.pulsegen_ticks", 0},
        {"comm", "runtime.breakdown.comm_ticks", 0},
        {"host", "runtime.breakdown.host_ticks", 0},
        {"wall", "runtime.breakdown.wall_ticks", 0},
    };
    std::printf("\ncross-check: printed stage totals vs obs "
                "histogram sums\n");
    bool ok = true;
    for (int cat = 0; cat < 5; ++cat) {
        const auto &chk = checks[cat];
        const sim::Tick printed = categoryTotal(bd_b, bd_c, cat);
        const auto it = hists.find(chk.histogram);
        const sim::Tick summed = it == hists.end() ? 0
                                                   : it->second.sum;
        const bool match = printed == summed;
        ok = ok && match;
        std::printf("  %-8s printed %14llu ticks, histogram sum "
                    "%14llu ticks  %s\n",
                    chk.label,
                    static_cast<unsigned long long>(printed),
                    static_cast<unsigned long long>(summed),
                    match ? "OK" : "MISMATCH");
    }
    if (!ok) {
        std::printf("cross-check FAILED: the figure reports ticks "
                    "the instrumentation never saw\n");
        return 1;
    }

    std::printf("\npaper: (a) 204.3 ms [comm 78.7%%, host 9%%, pulse "
                "4.4%%, quantum 7.9%%]\n"
                "       (b) 22.1 ms [quantum 74.5%%, host 21.8%%, "
                "pulse 3.7%%]\n"
                "       (c) 18.1 ms [quantum 89.2%%, host 7%%, pulse "
                "3.7%%]\n");
    cli.finish(sched, store);
    return 0;
}
