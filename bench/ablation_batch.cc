/**
 * @file
 * Ablation: the batched-transmission interval. Algorithm 1 picks
 * K = floor(B / N) shots per TileLink PUT; this bench sweeps K at
 * two register widths and reports bus transactions and exposed
 * acquire time under FENCE (where transmission is fully visible),
 * showing the bandwidth-utilization argument of Sec. 6.3. Every
 * (n, K) point is one job on the batch experiment service.
 */

#include "bench_util.hh"
#include "service/batch_scheduler.hh"
#include "service/sweep.hh"
#include "sweep_cli.hh"

using namespace qtenon;
using namespace qtenon::bench;

namespace {

std::vector<std::uint64_t>
kValues(std::uint32_t n)
{
    const std::uint64_t algo1 =
        runtime::batchInterval(512, n); // 64-byte chunks
    std::vector<std::uint64_t> ks;
    std::uint64_t last_k = 0;
    for (std::uint64_t k : {std::uint64_t(1), std::uint64_t(2),
                            algo1 / 2, algo1, algo1 * 2,
                            std::uint64_t(64)}) {
        if (k == 0 || k == last_k)
            continue;
        last_k = k;
        ks.push_back(k);
    }
    return ks;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto cli = parseSweepCli(argc, argv);
    const auto sizes = cli.qubitsOr({16, 64});

    banner("Ablation: transmission batching (Algorithm 1)");

    service::BatchScheduler sched(cli.schedulerConfig());

    // One sweep per register width: the K axis depends on n.
    struct Plan {
        std::uint32_t n;
        std::vector<std::uint64_t> ks;
        std::vector<service::JobHandle> handles;
    };
    std::vector<Plan> plans;
    for (auto n : sizes) {
        Plan plan{n, kValues(n), {}};

        auto proto =
            cli.job(vqa::Algorithm::Vqe, vqa::OptimizerKind::Spsa, n);
        proto.qtenon.software.sync = runtime::SyncPolicy::Fence;

        std::vector<service::SweepVariant> k_axis;
        for (auto k : plan.ks) {
            // Appended, not "K" + ...: GCC 12 -O3 reports a false
            // -Wrestrict on a literal + std::string temporary.
            std::string label = "K";
            label += std::to_string(k);
            k_axis.push_back({std::move(label),
                              [k](service::JobSpec &s) {
                                  s.qtenon.batchIntervalOverride = k;
                              }});
        }
        plan.handles = sched.submitAll(
            service::Sweep("ablation-batch")
                .base(std::move(proto))
                .qubits({n})
                .axis(std::move(k_axis))
                .build());
        plans.push_back(std::move(plan));
    }
    auto &store = sched.wait();

    for (const auto &plan : plans) {
        const std::uint64_t algo1 =
            runtime::batchInterval(512, plan.n);
        std::printf("\n%u qubits (Algorithm 1 picks K = %llu):\n",
                    plan.n, static_cast<unsigned long long>(algo1));
        std::printf("%8s %16s %16s\n", "K", "bus txns",
                    "acquire time");
        for (std::size_t i = 0; i < plan.ks.size(); ++i) {
            const auto r = okResult(store, plan.handles[i].id);
            const auto &sys = r.systems.at(0);
            std::printf("%8llu %16.0f %16s %s\n",
                        static_cast<unsigned long long>(plan.ks[i]),
                        sys.busTransactions,
                        core::formatTime(
                            sys.rounds.commAcquire).c_str(),
                        plan.ks[i] == algo1 ? "<- Algorithm 1" : "");
        }
    }
    std::printf("\nexpectation: transactions fall ~1/K until one "
                "batch fills a bus chunk; Algorithm 1's K sits at "
                "that knee\n");
    cli.finish(sched);
    return 0;
}
