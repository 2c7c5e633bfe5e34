/**
 * @file
 * Quickstart: optimize an 8-qubit QAOA MAX-CUT instance on the
 * modeled Qtenon system and compare against the decoupled baseline.
 *
 * The experiment is one service::JobSpec: the workload, the driver
 * and the systems to replay on. service::runJobSpec optimizes the
 * workload functionally once, then replays the recorded trace on the
 * Qtenon system and on the decoupled baseline.
 */

#include <cstdio>

#include "quantum/ansatz.hh"
#include "quantum/draw.hh"
#include "service/batch_scheduler.hh"

int
main()
{
    using namespace qtenon;

    service::JobSpec spec;
    spec.workload.algorithm = vqa::Algorithm::Qaoa;
    spec.workload.numQubits = 8;
    spec.driver.iterations = 5;
    spec.driver.shots = 500;
    spec.driver.optimizer = vqa::OptimizerKind::GradientDescent;
    spec.runBaseline = true;
    spec.deriveSeedFromJobId = false; // use driver.seed as given

    std::printf("Qtenon quickstart: 8-qubit QAOA MAX-CUT, "
                "5 GD iterations, 500 shots\n\n");

    // A taste of the circuit being run (first columns only).
    {
        auto g = quantum::Graph::threeRegular(4);
        auto preview = quantum::ansatz::qaoaMaxCut(g, 1);
        std::printf("1-layer QAOA on 4 qubits, for illustration:\n%s\n",
                    quantum::draw(preview, 10).c_str());
    }

    const auto r = service::runJobSpec(spec, 0);

    std::printf("cost history (negated mean cut value):\n");
    for (std::size_t i = 0; i < r.costHistory.size(); ++i)
        std::printf("  iter %zu: %.3f\n", i + 1, r.costHistory[i]);

    std::printf("\nrounds executed: %llu\n",
                static_cast<unsigned long long>(r.rounds));
    std::printf("one shot takes %s on the quantum chip\n\n",
                core::formatTime(r.shotDuration).c_str());

    auto report = [](const char *name,
                     const runtime::TimeBreakdown &bd) {
        std::printf("%-10s wall %-12s quantum %5.1f%%  pulse %5.1f%%  "
                    "comm %5.1f%%  host %5.1f%%\n",
                    name, core::formatTime(bd.wall).c_str(),
                    bd.percent(bd.quantum), bd.percent(bd.pulseGen),
                    bd.percent(bd.comm), bd.percent(bd.host));
    };
    const auto &qt = r.systems.front().total;
    const auto &bl = r.system("baseline")->total;
    report("baseline", bl);
    report("qtenon", qt);

    std::printf("\nend-to-end speedup: %.1fx, classical speedup: "
                "%.1fx\n",
                static_cast<double>(bl.wall) /
                    static_cast<double>(qt.wall),
                static_cast<double>(bl.classical()) /
                    static_cast<double>(qt.classical()));
    return 0;
}
