/**
 * @file
 * Pauli strings and weighted Pauli-sum Hamiltonians, the cost-function
 * substrate for VQE.
 */

#ifndef QTENON_QUANTUM_PAULI_HH
#define QTENON_QUANTUM_PAULI_HH

#include <cstdint>
#include <string>
#include <vector>

#include "circuit.hh"
#include "statevector.hh"

namespace qtenon::quantum {

/** Single-qubit Pauli operator label. */
enum class Pauli : std::uint8_t { I, X, Y, Z };

/** A tensor product of Paulis over n qubits (identity elsewhere). */
struct PauliString {
    struct Factor {
        std::uint32_t qubit;
        Pauli op;
    };

    std::vector<Factor> factors;

    /** Parse e.g. "Z0 Z3 X5" (qubit indices after each letter). */
    static PauliString parse(const std::string &text);

    /** Render as e.g. "Z0 Z3 X5" ("I" when empty). */
    std::string toString() const;

    /** Whether every factor is Z (diagonal in the readout basis). */
    bool isDiagonal() const;

    /**
     * Eigenvalue (+1/-1) on computational basis state @p bits;
     * only valid for diagonal strings.
     */
    double diagonalEigenvalue(std::uint64_t bits) const;

    /**
     * Shot-word bits whose parity is the eigenvalue's sign once each
     * factor reads out in its own basis: one bit per non-identity
     * factor, a qubit named twice cancelling. Factors must sit below
     * qubit 64.
     */
    std::uint64_t parityMask() const;
};

/** A weighted sum of Pauli strings. */
class Hamiltonian
{
  public:
    struct Term {
        double coefficient;
        PauliString string;
    };

    explicit Hamiltonian(std::uint32_t num_qubits)
        : _numQubits(num_qubits)
    {}

    std::uint32_t numQubits() const { return _numQubits; }
    const std::vector<Term> &terms() const { return _terms; }
    double identityOffset() const { return _identityOffset; }

    /** Add coefficient * string (empty string folds into offset). */
    void addTerm(double coefficient, PauliString string);

    /** Add coefficient * identity. */
    void addIdentity(double coefficient) { _identityOffset += coefficient; }

    /** Exact expectation value on a statevector. */
    double expectation(const StateVector &sv) const;

    /**
     * Estimate the expectation from diagonal-basis measurement shots
     * (ignores non-diagonal terms; the VQA layer measures each
     * non-diagonal group in a rotated basis separately).
     */
    double diagonalExpectationFromShots(
        const std::vector<std::uint64_t> &shots) const;

    /** Number of non-identity terms. */
    std::size_t numTerms() const { return _terms.size(); }

  private:
    /**
     * <psi| c * P |psi> for one general term, by building P|psi> on a
     * scratch statevector.
     */
    double termExpectation(const Term &t, const StateVector &sv) const;

    std::uint32_t _numQubits;
    std::vector<Term> _terms;
    double _identityOffset = 0.0;
};

} // namespace qtenon::quantum

#endif // QTENON_QUANTUM_PAULI_HH
