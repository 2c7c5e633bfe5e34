/**
 * @file
 * The pluggable functional-simulation backend layer.
 *
 * Every layer that needs a circuit's functional output (the VQA cost
 * evaluator, grouped estimation, the service's jobs, the examples)
 * gets it here: quantum::Backend puts the four engines behind one
 * prepare/run/measure interface with a single selection policy:
 *
 *   - BackendKind::Auto picks the dense statevector while the
 *     register fits under the exact cap and the mean-field
 *     product-state approximation above it (the seed's behaviour);
 *   - an explicit kind overrides the policy (e.g. the stabilizer
 *     engine for Clifford circuits at hundreds of qubits, or the
 *     density matrix when noise channels matter).
 *
 * A Backend instance owns its state buffer; run() resets it in place
 * and replays the circuit, so a cost evaluator can hold one backend
 * per job and never pay the per-evaluation 2^n allocation again.
 *
 * The readout-error model (independent per-qubit assignment flips)
 * lives here too, next to the engines whose shots it corrupts.
 */

#ifndef QTENON_QUANTUM_BACKEND_HH
#define QTENON_QUANTUM_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuit.hh"
#include "pauli.hh"
#include "sim/random.hh"
#include "statevector.hh"

namespace qtenon::quantum {

/** The four functional engines (plus the auto-selection policy). */
enum class BackendKind : std::uint8_t {
    /** Statevector under the exact cap, mean-field above it. */
    Auto,
    /** Dense 2^n statevector: exact, memory-bound. */
    Statevector,
    /** Product-state Bloch approximation: any size, approximate. */
    MeanField,
    /** CHP tableau: exact at hundreds of qubits, Clifford only. */
    Stabilizer,
    /** 4^n density operator: exact with noise channels, ~10 qubits. */
    DensityMatrix,
};

/** Canonical lower-case name, e.g. "statevector". */
const char *backendKindName(BackendKind k);

/** Parse a name (canonical or common alias); fatal on unknown. */
BackendKind backendKindFromName(const std::string &name);

/** Backend construction knobs. */
struct BackendConfig {
    BackendKind kind = BackendKind::Auto;
    /** Auto policy: largest register simulated densely. */
    std::uint32_t exactCap = StateVector::defaultMaxQubits;
    /** Statevector kernel tuning (fusion, threads). */
    KernelConfig kernel;
};

/**
 * One functional engine behind a uniform prepare/run/measure
 * interface. Expectations are exact on the exact engines and the
 * product-state (mean-field) values on the approximate one.
 */
class Backend
{
  public:
    virtual ~Backend() = default;

    virtual BackendKind kind() const = 0;
    const char *name() const { return backendKindName(kind()); }

    virtual std::uint32_t numQubits() const = 0;

    /** Whether results are exact (vs the mean-field approximation). */
    virtual bool exact() const = 0;

    /** Largest register this engine accepts. */
    virtual std::uint32_t maxQubits() const = 0;

    /**
     * Reset the owned state to |0...0> in place and apply every gate
     * of @p c. No allocation after construction.
     */
    virtual void run(const QuantumCircuit &c) = 0;

    /**
     * run(@p c) for a circuit whose parameters are a probe around
     * @p base (e.g. one parameter-shift evaluation of a gradient
     * step). The prepared state is bit-identical to run(c); an
     * engine may only use @p base to skip work. The statevector
     * engine resumes from its prefix checkpoint (DESIGN.md §8); the
     * others just run(c).
     */
    virtual void
    runFromBase(const QuantumCircuit &c, const std::vector<double> &base)
    {
        (void)base;
        run(c);
    }

    /**
     * Draw @p shots full-register readout words from the prepared
     * state (bit q = qubit q; requires n <= 64).
     */
    virtual std::vector<std::uint64_t> sample(std::size_t shots,
                                              sim::Rng &rng) = 0;

    /** P(qubit q reads 1) on the prepared state. */
    virtual double marginalOne(std::uint32_t q) = 0;

    /** P(read 1) for every qubit. */
    std::vector<double> marginals();

    /** <Z_q>. */
    virtual double expectationZ(std::uint32_t q) = 0;

    /** <Z_a Z_b> (exact engines include correlations). */
    virtual double expectationZZ(std::uint32_t a, std::uint32_t b) = 0;

    /** <H> for a Pauli-sum Hamiltonian. */
    virtual double expectation(const Hamiltonian &h) = 0;

    /**
     * The dense amplitudes when this engine has them (statevector
     * engine only); nullptr otherwise.
     */
    virtual const StateVector *stateVector() const { return nullptr; }
};

/**
 * The one selection policy: resolve Auto against the qubit count
 * (statevector at n <= exact_cap, mean-field above), pass explicit
 * kinds through, and fatal when an explicit kind cannot hold @p
 * num_qubits.
 */
BackendKind resolveBackendKind(BackendKind requested,
                               std::uint32_t num_qubits,
                               std::uint32_t exact_cap);

/** Build the backend selected by cfg's policy for @p num_qubits. */
std::unique_ptr<Backend> makeBackend(std::uint32_t num_qubits,
                                     const BackendConfig &cfg = {});

/*
 * Readout-error model: dispersive readout misassigns each measured
 * bit independently with flip probability e.
 */

/** Largest flip probability: above 0.5 a misread beats a true read. */
constexpr double maxReadoutError = 0.5;

/** Whether @p e is a valid flip probability, in [0, maxReadoutError]. */
constexpr bool
validReadoutError(double e)
{
    return e >= 0.0 && e <= maxReadoutError;
}

/**
 * Flip bit q (q < @p n) of each word wherever @p flip() returns true,
 * asking per word, then per qubit. The draw source is the caller's.
 */
template <typename Flip>
void
flipReadoutBits(std::vector<std::uint64_t> &words, std::uint32_t n,
                Flip &&flip)
{
    for (auto &word : words) {
        for (std::uint32_t q = 0; q < n; ++q)
            word ^= std::uint64_t(flip()) << q;
    }
}

/**
 * Apply readout error @p e to @p n-qubit shot words, one coin per bit
 * from @p rng, per word, then per qubit. Draws nothing when e is 0.
 */
void applyReadoutError(std::vector<std::uint64_t> &words,
                       std::uint32_t n, double e, sim::Rng &rng);

/** Measured P(read 1) for true P(1) = @p p under readout error e. */
constexpr double
readoutMarginal(double p, double e)
{
    return p * (1.0 - e) + (1.0 - p) * e;
}

} // namespace qtenon::quantum

#endif // QTENON_QUANTUM_BACKEND_HH
