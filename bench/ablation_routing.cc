/**
 * @file
 * Ablation: connectivity. The paper's evaluation implicitly assumes
 * all-to-all coupling. This bench routes the three benchmark
 * circuits onto linear and grid coupling maps and reports the SWAP
 * and depth cost - i.e. how much longer one shot takes on a sparse
 * chip, which directly scales the quantum term of every end-to-end
 * result. Routing needs no QtenonSystem, so each point runs as a
 * *custom* job on the batch experiment service, reporting through
 * the free-form metrics map.
 */

#include "bench_util.hh"

#include "isa/pass/swap_routing.hh"
#include "quantum/mapping.hh"
#include "service/batch_scheduler.hh"
#include "sweep_cli.hh"

using namespace qtenon;
using namespace qtenon::bench;

namespace {

service::JobSpec
routingJob(const SweepCli &cli, vqa::Algorithm alg, std::uint32_t n)
{
    // Routing draws no randomness; the job records a seed derived
    // from its id, as a default JobSpec does.
    auto spec = cli.job(alg, vqa::OptimizerKind::GradientDescent, n);
    spec.name = "ablation-routing/" + vqa::algorithmName(alg) + "/q" +
                std::to_string(n);
    spec.deriveSeedFromJobId = true;
    spec.custom = [wcfg = spec.workload, n](service::JobContext &ctx) {
        auto w = vqa::Workload::build(wcfg);

        quantum::QuantumTimingModel timing;

        const auto base = timing.schedule(w.circuit).duration;
        ctx.token.checkpoint();

        auto lin = isa::pass::routeCircuit(
            w.circuit, quantum::CouplingMap::linear(n));
        const auto lin_t = timing.schedule(lin.circuit).duration;
        ctx.token.checkpoint();

        // Squarish grid holding n qubits.
        std::uint32_t rows = 1;
        while (rows * rows < n)
            ++rows;
        const auto cols = (n + rows - 1) / rows;
        auto grd = isa::pass::routeCircuit(
            w.circuit, quantum::CouplingMap::grid(rows, cols));
        const auto grd_t = timing.schedule(grd.circuit).duration;

        // Routing runs no optimizer.
        ctx.result.optimizer = "none";
        auto &m = ctx.result.metrics;
        m["all2all_ps"] = static_cast<double>(base);
        m["linear_ps"] = static_cast<double>(lin_t);
        m["linear_swaps"] = static_cast<double>(lin.swapsInserted);
        m["grid_ps"] = static_cast<double>(grd_t);
        m["grid_swaps"] = static_cast<double>(grd.swapsInserted);
    };
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto cli = parseSweepCli(argc, argv);
    const auto sizes = cli.qubitsOr({16, 32, 64});
    const vqa::Algorithm algos[] = {vqa::Algorithm::Qaoa,
                                    vqa::Algorithm::Vqe,
                                    vqa::Algorithm::Qnn};

    banner("Ablation: coupling-map routing (one-shot duration)");

    service::BatchScheduler sched(cli.schedulerConfig());
    std::vector<service::JobHandle> handles;
    for (auto alg : algos) {
        for (auto n : sizes)
            handles.push_back(sched.submit(routingJob(cli, alg, n)));
    }
    const auto store = service::collect(handles);

    std::printf("%-6s %4s %10s %34s %34s\n", "algo", "n", "all2all",
                "linear chain", "square grid");
    std::size_t next = 0;
    for (auto alg : algos) {
        for (auto n : sizes) {
            const auto r = okResult(store, handles[next++].id);
            const auto &m = r.metrics;
            const auto base =
                static_cast<sim::Tick>(m.at("all2all_ps"));
            const auto lin_t =
                static_cast<sim::Tick>(m.at("linear_ps"));
            const auto grd_t =
                static_cast<sim::Tick>(m.at("grid_ps"));
            std::printf(
                "%-6s %4u %10s %10s (%4llu swaps, %4.1fx) %10s "
                "(%4llu swaps, %4.1fx)\n",
                vqa::algorithmName(alg).c_str(), n,
                core::formatTime(base).c_str(),
                core::formatTime(lin_t).c_str(),
                static_cast<unsigned long long>(
                    m.at("linear_swaps")),
                static_cast<double>(lin_t) /
                    static_cast<double>(base),
                core::formatTime(grd_t).c_str(),
                static_cast<unsigned long long>(m.at("grid_swaps")),
                static_cast<double>(grd_t) /
                    static_cast<double>(base));
        }
    }
    std::printf("\nexpectation: VQE/QNN ladders are already nearest-"
                "neighbour (no swaps); QAOA's chord edges pay "
                "routing cost on sparse maps, inflating the quantum "
                "term the paper's all-to-all assumption hides\n");
    cli.finish(sched, store);
    return 0;
}
