/**
 * @file
 * Measurement-basis grouping for Hamiltonian estimation.
 *
 * Sampling can only read the Z basis; non-diagonal Pauli terms need
 * basis-change rotations before measurement (X -> H, Y -> Sdg H).
 * Terms whose per-qubit bases agree (qubit-wise commuting) share one
 * rotated circuit, so a full <H> estimate costs one sampled
 * execution per group - this is what a real VQE run on Qtenon would
 * schedule as several q_gen/q_run rounds per evaluation.
 */

#ifndef QTENON_VQA_MEASUREMENT_HH
#define QTENON_VQA_MEASUREMENT_HH

#include <cstddef>
#include <vector>

#include "quantum/backend.hh"
#include "quantum/circuit.hh"
#include "quantum/pauli.hh"
#include "sim/random.hh"

namespace qtenon::vqa {

/** Terms sharing one measurement basis. */
struct MeasurementGroup {
    /** Per-qubit basis requirement (I = free, measured in Z). */
    std::vector<quantum::Pauli> basis;
    /** Indices into the Hamiltonian's term list. */
    std::vector<std::size_t> terms;

    /** Append the basis-change rotations + measurement to @p c. */
    void appendReadout(quantum::QuantumCircuit &c) const;
};

/** Greedy qubit-wise-commuting grouping + sampled estimation. */
class GroupedEstimator
{
  public:
    explicit GroupedEstimator(const quantum::Hamiltonian &h);

    const quantum::Hamiltonian &hamiltonian() const { return _h; }
    const std::vector<MeasurementGroup> &groups() const
    {
        return _groups;
    }

    /**
     * Estimate <H> on the state prepared by @p ansatz (which must
     * not contain measurements): one sampled execution of the
     * rotated circuit per group on @p backend (sized for the
     * ansatz's register), @p shots_per_group each.
     */
    double estimate(const quantum::QuantumCircuit &ansatz,
                    quantum::Backend &backend,
                    std::size_t shots_per_group,
                    sim::Rng &rng) const;

    /** Quantum executions one evaluation costs (= group count). */
    std::size_t numExecutions() const { return _groups.size(); }

  private:
    quantum::Hamiltonian _h;
    std::vector<MeasurementGroup> _groups;
};

} // namespace qtenon::vqa

#endif // QTENON_VQA_MEASUREMENT_HH
