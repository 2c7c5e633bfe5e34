/**
 * @file
 * QAOA MAX-CUT end to end: optimize a 10-node 3-regular instance on
 * the modeled Qtenon system, then check the sampled cut quality
 * against the brute-force optimum and print the hardware activity
 * (SLT hit rate, pulses generated, bus traffic) behind the run.
 */

#include <cstdio>

#include "core/qtenon_system.hh"
#include "quantum/backend.hh"

int
main()
{
    using namespace qtenon;

    const std::uint32_t n = 10;
    auto graph = quantum::Graph::threeRegular(n);
    const auto optimum = graph.maxCutBruteForce();
    std::printf("MAX-CUT on a 3-regular graph, %u nodes, %zu edges; "
                "brute-force optimum = %llu\n",
                n, graph.numEdges(),
                static_cast<unsigned long long>(optimum));

    // Build the workload and the system.
    vqa::WorkloadConfig wcfg;
    wcfg.algorithm = vqa::Algorithm::Qaoa;
    wcfg.numQubits = n;
    wcfg.qaoaLayers = 3;
    auto workload = vqa::Workload::build(wcfg);

    core::QtenonConfig qcfg;
    qcfg.numQubits = n;
    core::QtenonSystem sys(qcfg);

    vqa::DriverConfig dcfg;
    dcfg.iterations = 8;
    dcfg.shots = 600;
    dcfg.optimizer = vqa::OptimizerKind::GradientDescent;
    const auto trace = vqa::VqaDriver(dcfg).run(workload);
    const auto timing = sys.execute(trace, workload.circuit);

    std::printf("\noptimization trajectory (mean cut value):\n");
    for (std::size_t i = 0; i < trace.costHistory.size(); ++i) {
        std::printf("  iter %2zu: %.3f\n", i + 1,
                    -trace.costHistory[i]);
    }

    // Sample the trained circuit and report the best observed cut.
    quantum::BackendConfig bcfg;
    bcfg.kind = quantum::BackendKind::Statevector;
    auto backend = quantum::makeBackend(n, bcfg);
    backend->run(workload.circuit);
    sim::Rng rng(123);
    auto shots = backend->sample(2000, rng);
    std::uint64_t best = 0;
    double mean = 0.0;
    for (auto s : shots) {
        const auto cut = graph.cutValue(s);
        best = std::max(best, cut);
        mean += static_cast<double>(cut);
    }
    mean /= static_cast<double>(shots.size());
    std::printf("\ntrained circuit: mean cut %.2f, best sampled cut "
                "%llu / %llu optimal (%.0f%%)\n",
                mean, static_cast<unsigned long long>(best),
                static_cast<unsigned long long>(optimum),
                100.0 * static_cast<double>(best) /
                    static_cast<double>(optimum));

    // Hardware activity behind the run.
    const auto &slt = sys.controller().slt();
    const double lookups = static_cast<double>(slt.hits + slt.misses);
    std::printf("\ncontroller activity:\n");
    std::printf("  pulses generated : %llu\n",
                static_cast<unsigned long long>(
                    sys.controller().pulsesGenerated.value()));
    std::printf("  SLT hit rate     : %.1f%% (%llu hits, %llu "
                "misses, %llu evictions)\n",
                lookups > 0 ? 100.0 * slt.hits / lookups : 0.0,
                static_cast<unsigned long long>(slt.hits),
                static_cast<unsigned long long>(slt.misses),
                static_cast<unsigned long long>(slt.evictions));
    std::printf("  bus transactions : %llu (%llu beats)\n",
                static_cast<unsigned long long>(
                    sys.bus().transactions.value()),
                static_cast<unsigned long long>(
                    sys.bus().beats.value()));
    std::printf("  q_updates issued : %llu across %zu rounds\n",
                static_cast<unsigned long long>(
                    trace.totalUpdates()),
                trace.rounds.size());

    const auto bd = timing.total();
    std::printf("\nmodeled wall time %.2f ms (quantum %.1f%%)\n",
                sim::ticksToMs(bd.wall), bd.percent(bd.quantum));
    return 0;
}
