#include "measurement.hh"

#include "quantum/shot_planes.hh"
#include "sim/logging.hh"

namespace qtenon::vqa {

using quantum::GateType;
using quantum::Pauli;

void
MeasurementGroup::appendReadout(quantum::QuantumCircuit &c) const
{
    for (std::uint32_t q = 0; q < c.numQubits(); ++q) {
        if (q >= basis.size())
            break;
        switch (basis[q]) {
          case Pauli::I:
          case Pauli::Z:
            break;
          case Pauli::X:
            c.h(q);
            break;
          case Pauli::Y:
            // Rotate the Y eigenbasis onto Z: Sdg then H.
            c.gate(GateType::Sdg, q);
            c.h(q);
            break;
        }
    }
    c.measureAll();
}

GroupedEstimator::GroupedEstimator(const quantum::Hamiltonian &h)
    : _h(h)
{
    for (std::size_t t = 0; t < _h.terms().size(); ++t) {
        const auto &term = _h.terms()[t];

        // Find a group whose bases are compatible qubit-wise.
        MeasurementGroup *home = nullptr;
        for (auto &g : _groups) {
            bool ok = true;
            for (const auto &f : term.string.factors) {
                const auto current = g.basis[f.qubit];
                if (current != Pauli::I && current != f.op) {
                    ok = false;
                    break;
                }
            }
            if (ok) {
                home = &g;
                break;
            }
        }
        if (!home) {
            _groups.emplace_back();
            _groups.back().basis.assign(_h.numQubits(), Pauli::I);
            home = &_groups.back();
        }
        for (const auto &f : term.string.factors)
            home->basis[f.qubit] = f.op;
        home->terms.push_back(t);
    }
}

double
GroupedEstimator::estimate(const quantum::QuantumCircuit &ansatz,
                           quantum::Backend &backend,
                           std::size_t shots_per_group,
                           sim::Rng &rng) const
{
    for (const auto &g : ansatz.gates()) {
        if (g.type == GateType::Measure)
            sim::fatal("grouped estimation needs an unmeasured "
                       "ansatz circuit");
    }

    double energy = _h.identityOffset();
    for (const auto &group : _groups) {
        auto circuit = ansatz;
        group.appendReadout(circuit);
        backend.run(circuit);
        const quantum::ShotPlanes planes(
            backend.sample(shots_per_group, rng));

        for (auto t : group.terms) {
            const auto &term = _h.terms()[t];
            // After rotation every factor reads out in Z: the
            // eigenvalue is the parity over the term's qubits.
            const auto sum = static_cast<double>(
                planes.paritySum(term.string.parityMask()));
            energy += term.coefficient * sum /
                static_cast<double>(planes.numShots());
        }
    }
    return energy;
}

} // namespace qtenon::vqa
