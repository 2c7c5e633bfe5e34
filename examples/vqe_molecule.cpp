/**
 * @file
 * VQE for molecular ground states: find the H2 ground-state energy
 * (2-qubit reduced Hamiltonian, known answer ~= -1.857 Ha) with a
 * hardware-efficient ansatz on the Qtenon system, then show the same
 * flow on a larger synthetic molecule.
 */

#include <cstdio>

#include "core/qtenon_system.hh"
#include "quantum/molecule.hh"
#include "quantum/statevector.hh"

using namespace qtenon;

namespace {

/** Exact energy of the circuit's current state under @p h. */
double
exactEnergy(const quantum::QuantumCircuit &c,
            const quantum::Hamiltonian &h)
{
    quantum::StateVector sv(c.numQubits());
    sv.applyCircuit(c);
    return h.expectation(sv);
}

} // namespace

int
main()
{
    // ---- Part 1: H2, where the answer is known.
    std::printf("VQE on H2 (2-qubit reduced Hamiltonian)\n");
    std::printf("reference ground-state energy: -1.8573 Ha\n\n");

    auto h2 = quantum::h2();
    vqa::WorkloadConfig wcfg;
    wcfg.algorithm = vqa::Algorithm::Vqe;
    wcfg.numQubits = 2;
    wcfg.vqeLayers = 2;
    auto workload = vqa::Workload::build(wcfg);

    vqa::DriverConfig dcfg;
    dcfg.iterations = 60;
    dcfg.shots = 800;
    dcfg.optimizer = vqa::OptimizerKind::GradientDescent;
    dcfg.seed = 11;
    // Evaluate all Hamiltonian terms (incl. X0X1) exactly, as an
    // experiment measuring every required basis would.
    dcfg.useExactCost = true;
    // The H2 part checks the optimizer's answer; it replays no
    // timing (part 2 does).
    const auto trace = vqa::VqaDriver(dcfg).run(workload);

    const double energy = exactEnergy(workload.circuit, h2);
    std::printf("energy after %u GD iterations: %.4f Ha "
                "(exact state evaluation)\n",
                dcfg.iterations, energy);
    std::printf("sampled-cost trajectory: first %.4f -> last %.4f\n",
                trace.costHistory.front(), trace.costHistory.back());

    // ---- Part 2: a 16-spin-orbital synthetic molecule.
    std::printf("\nVQE on a synthetic 16-spin-orbital molecule\n");
    auto mol = quantum::syntheticMolecule(16);
    std::printf("Hamiltonian: %zu Pauli terms + offset %.3f\n",
                mol.numTerms(), mol.identityOffset());

    vqa::WorkloadConfig wcfg16;
    wcfg16.algorithm = vqa::Algorithm::Vqe;
    wcfg16.numQubits = 16;
    auto workload16 = vqa::Workload::build(wcfg16);

    core::QtenonConfig qcfg16;
    qcfg16.numQubits = 16;
    core::QtenonSystem sys16(qcfg16);

    vqa::DriverConfig dcfg16;
    dcfg16.iterations = 10;
    dcfg16.shots = 500;
    dcfg16.optimizer = vqa::OptimizerKind::Spsa;
    const auto trace16 = vqa::VqaDriver(dcfg16).run(workload16);
    const auto bd = sys16.execute(trace16, workload16.circuit).total();

    std::printf("diagonal-energy estimate: first %.4f -> best %.4f\n",
                trace16.costHistory.front(),
                *std::min_element(trace16.costHistory.begin(),
                                  trace16.costHistory.end()));
    std::printf("modeled wall %.2f ms; quantum %.1f%%, pulse %.1f%%, "
                "comm %.2f%%, host %.1f%%\n",
                sim::ticksToMs(bd.wall), bd.percent(bd.quantum),
                bd.percent(bd.pulseGen), bd.percent(bd.comm),
                bd.percent(bd.host));
    return 0;
}
