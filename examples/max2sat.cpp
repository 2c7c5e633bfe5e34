/**
 * @file
 * Hybrid MAX-2-SAT: the paper's intro motivates hybrid quantum-
 * classical acceleration of SAT problems (HyQSAT). This example maps
 * a random 2-CNF formula to its Ising Hamiltonian, optimizes a
 * QAOA-style ansatz over it with SPSA, and samples assignments -
 * reporting solution quality against brute force and the modeled
 * Qtenon hardware activity behind the run.
 */

#include <algorithm>
#include <cstdio>

#include "core/qtenon_system.hh"
#include "quantum/backend.hh"
#include "quantum/sat.hh"
#include "vqa/cost.hh"
#include "vqa/optimizer.hh"

using namespace qtenon;

int
main()
{
    sim::Rng rng(314);
    const std::uint32_t vars = 10;
    auto formula = quantum::Max2Sat::random(vars, 24, rng);
    const auto optimum = formula.bestSatisfiableBruteForce();
    std::printf("MAX-2-SAT: %u variables, %zu clauses, brute-force "
                "optimum = %llu satisfied\n",
                vars, formula.numClauses(),
                static_cast<unsigned long long>(optimum));

    auto circuit = formula.ansatz(3);
    auto ising = formula.toIsing();
    vqa::HamiltonianCost cost(ising);

    // SPSA over the sampled Ising energy (violated-clause count).
    quantum::BackendConfig bcfg;
    bcfg.kind = quantum::BackendKind::Statevector;
    auto backend = quantum::makeBackend(vars, bcfg);
    vqa::Spsa spsa(0.35, 0.2, 42);
    std::vector<double> params(circuit.numParameters(), 0.1);
    auto oracle = [&](const std::vector<double> &p) {
        circuit.setParameters(p);
        backend->run(circuit);
        return cost.fromShots(backend->sample(500, rng));
    };

    std::printf("\noptimizing (energy = expected violated clauses):\n");
    for (int it = 0; it < 25; ++it) {
        const double e = spsa.iterate(params, oracle);
        if (it % 5 == 0 || it == 24)
            std::printf("  iter %2d: energy %.3f\n", it, e);
    }

    // Sample assignments from the trained circuit.
    circuit.setParameters(params);
    backend->run(circuit);
    auto shots = backend->sample(4000, rng);
    std::uint64_t best = 0;
    double mean = 0;
    for (auto a : shots) {
        const auto sat = formula.satisfiedCount(a);
        best = std::max(best, sat);
        mean += static_cast<double>(sat);
    }
    mean /= static_cast<double>(shots.size());
    std::printf("\nsampled assignments: mean %.2f satisfied, best "
                "%llu / %llu (%s)\n",
                mean, static_cast<unsigned long long>(best),
                static_cast<unsigned long long>(optimum),
                best == optimum ? "optimal" : "suboptimal");

    // Model the hardware cost of the same loop on Qtenon.
    core::QtenonConfig qcfg;
    qcfg.numQubits = vars;
    core::QtenonSystem sys(qcfg);
    isa::QtenonCompiler compiler;
    auto image = compiler.compile(circuit);
    auto setup = sys.executor().installProgram(image);
    const auto shot_dur = sys.shotDuration(circuit);

    runtime::RoundRecord round;
    round.shots = 500;
    round.postOpsPerShot = cost.opsPerShot();
    round.optimizerOps = 50;
    // Each SPSA iteration is two evaluation rounds; all parameters
    // change every round.
    for (std::uint32_t p = 0; p < circuit.numParameters(); ++p)
        round.updates.emplace_back(p, 1000 + p);
    runtime::TimeBreakdown rounds;
    for (int r = 0; r < 50; ++r)
        rounds += sys.executor().executeRound(round, image, shot_dur);

    std::printf("\nmodeled Qtenon time: setup %s + 50 rounds %s "
                "(quantum %.1f%%)\n",
                core::formatTime(setup.wall).c_str(),
                core::formatTime(rounds.wall).c_str(),
                rounds.percent(rounds.quantum));
    return 0;
}
