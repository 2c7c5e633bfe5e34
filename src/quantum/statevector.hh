/**
 * @file
 * Dense statevector simulator.
 *
 * Plays the role Qiskit plays in the paper's methodology: it provides
 * the quantum chip's functional input/output. Exact up to a
 * configurable qubit cap (memory is 16 bytes x 2^n); larger circuits
 * must use the mean-field engine (BackendKind::MeanField, see
 * backend.hh).
 *
 * The gate kernels iterate the 2^(n-1) amplitude *pairs* directly via
 * low/high-bit index decomposition (instead of branch-skipping all
 * 2^n indices), apply diagonal gates (Z/S/Sdg/T/RZ/CZ/RZZ) as pure
 * phase passes with no pair gather, and run through the slab-kernel
 * backends of kernels.hh: contiguous unit-stride inner loops,
 * vectorized two complex amplitudes at a time (AVX2/NEON via the
 * portable complexf64x2 wrapper in simd.hh, scalar fallback
 * elsewhere). Multi-threaded kernels split the index space into
 * contiguous cache-blocked slabs executed by a persistent KernelPool
 * (kernel_pool.hh) — threads are created once per StateVector, not
 * per gate. Every amplitude is computed by exactly one thread with
 * the same non-fused arithmetic as the serial scalar loop, so the
 * results are bit-identical to the original scalar kernels (kept as
 * tests/reference_statevector.hh) at every thread count and SIMD
 * width; only fuse1q (which reassociates 2x2 products) changes bits.
 */

#ifndef QTENON_QUANTUM_STATEVECTOR_HH
#define QTENON_QUANTUM_STATEVECTOR_HH

#include <algorithm>
#include <complex>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "circuit.hh"
#include "kernels.hh"
#include "sim/random.hh"

namespace qtenon::quantum {

class KernelPool;

/** Kernel instruction-set policy, re-exported for configs. */
using SimdMode = kernels::SimdMode;
using kernels::simdModeFromName;
using kernels::simdModeName;

/**
 * Statevector kernel tuning.
 *
 * Defaults are chosen so that results are bit-identical to the
 * reference scalar kernels:
 *  - fuse1q multiplies runs of adjacent single-qubit gates on the
 *    same qubit into one 2x2 matrix before touching the amplitudes.
 *    Off by default because it reassociates floating-point products
 *    (results differ in the last ulp, not in correctness).
 *  - threads > 1 splits each kernel's index range into contiguous
 *    per-thread slabs executed by a persistent worker pool. Every
 *    pair is still computed by the exact same arithmetic, so
 *    threading never changes amplitudes; it is off by default and
 *    only engages at parallelMinQubits and above, where per-gate
 *    work (>= 2^19 pairs) dwarfs the barrier. threads == 0 means
 *    "auto": hardware concurrency, clamped by the process-wide cap
 *    (setKernelThreadCap) that BatchScheduler installs so --jobs x
 *    kernel threads never oversubscribes. Explicit counts are
 *    honoured beyond the hardware width (useful for determinism
 *    tests) but still respect the scheduler cap.
 *  - simd selects the slab-kernel backend; Auto picks the widest
 *    instruction set the running CPU supports. All backends are
 *    bit-identical, so this is a pure speed knob.
 */
struct KernelConfig {
    /** Fuse adjacent same-qubit single-qubit gates (applyCircuit). */
    bool fuse1q = false;
    /** Kernel worker threads; 1 = serial, 0 = auto (budgeted). */
    unsigned threads = 1;
    /** Register size below which kernels always stay serial. */
    std::uint32_t parallelMinQubits = 20;
    /** Kernel backend: Auto (runtime-detected) or forced Scalar. */
    SimdMode simd = SimdMode::Auto;
};

/**
 * Process-wide upper bound on per-statevector kernel threads
 * (0 = unbounded). BatchScheduler sets this to
 * hardware_concurrency / workers on construction and clears it on
 * destruction, so a batch of --jobs parallel jobs never multiplies
 * into jobs x threads runnable kernel threads.
 */
void setKernelThreadCap(unsigned cap);
unsigned kernelThreadCap();

/**
 * The KernelConfig.threads / hardware / cap resolution rule:
 * requested == 0 ("auto") resolves to hardware concurrency and is
 * clamped by *both* the scheduler cap and the hardware width;
 * explicit requests are honoured (tests deliberately oversubscribe
 * single-core machines) but still clamped by the scheduler cap.
 * Always returns >= 1.
 */
unsigned resolveKernelThreads(unsigned requested);

/** Dense 2^n-amplitude state vector with gate application. */
class StateVector
{
  public:
    using Amp = std::complex<double>;

    /** Maximum qubit count accepted by default (memory bound). */
    static constexpr std::uint32_t defaultMaxQubits = 24;

    explicit StateVector(std::uint32_t num_qubits,
                         std::uint32_t max_qubits = defaultMaxQubits,
                         KernelConfig kernel = KernelConfig{});
    ~StateVector();

    StateVector(StateVector &&) noexcept;
    StateVector &operator=(StateVector &&) noexcept;
    /** Copies duplicate amplitudes and config, never the pool. */
    StateVector(const StateVector &other);
    StateVector &operator=(const StateVector &other);

    std::uint32_t numQubits() const { return _numQubits; }
    std::size_t dim() const { return _amps.size(); }

    const Amp &amplitude(std::uint64_t basis) const
    {
        return _amps[basis];
    }

    const KernelConfig &kernelConfig() const { return _kernel; }
    void setKernelConfig(KernelConfig k);

    /** The slab-kernel backend in use ("scalar", "avx2", "neon"). */
    const char *simdBackendName() const;

    /** Reset to |0...0>. */
    void reset();

    /** Apply a single gate (measurements are ignored here). */
    void apply(const Gate &g, double angle);

    /**
     * Apply every gate of @p c, resolving parameters. With
     * KernelConfig::fuse1q set, runs of adjacent single-qubit gates
     * on the same qubit are multiplied into one 2x2 matrix first.
     */
    void applyCircuit(const QuantumCircuit &c);

    /**
     * Apply gates [@p begin, @p end) of @p c one kernel pass each
     * (never fused), resolving parameters. Splitting a circuit into
     * consecutive ranges gives the same bits as one unfused
     * applyCircuit().
     */
    void applyGates(const QuantumCircuit &c, std::size_t begin,
                    std::size_t end);

    /** Copy the amplitudes into @p out (resized to dim()). */
    void saveAmplitudes(std::vector<Amp> &out) const;

    /**
     * Overwrite the amplitudes with @p in (dim() entries). Unlike
     * copy-assignment, the kernel config and worker pool stay put.
     */
    void loadAmplitudes(const std::vector<Amp> &in);

    /** Probability of measuring basis state @p basis. */
    double probability(std::uint64_t basis) const;

    /** Probability that qubit @p q reads 1. */
    double marginalOne(std::uint32_t q) const;

    /**
     * Sample @p shots measurement outcomes of all qubits in the
     * computational basis (state is not collapsed). Outcome bit i is
     * qubit i's readout.
     */
    std::vector<std::uint64_t> sample(std::size_t shots,
                                      sim::Rng &rng) const;

    /**
     * Deterministic sampling entry point: one outcome per caller-
     * provided uniform in [0, 1). This is sample() with the RNG
     * draws made explicit (tests and quasi-Monte-Carlo sampling).
     */
    std::vector<std::uint64_t> sampleFromUniforms(
        const std::vector<double> &uniforms) const;

    /**
     * Mid-circuit measurement: project qubit @p q onto a sampled
     * outcome and renormalize (the primitive behind feed-forward
     * control, cf. QubiC 2.0's mid-circuit measurement support).
     *
     * @return the measured bit.
     */
    bool measureAndCollapse(std::uint32_t q, sim::Rng &rng);

    /** Active reset: measure @p q and flip it to |0> if it read 1. */
    void resetQubit(std::uint32_t q, sim::Rng &rng);

    /** <psi| Z_q |psi>. */
    double expectationZ(std::uint32_t q) const;

    /** <psi| Z_a Z_b |psi>. */
    double expectationZZ(std::uint32_t a, std::uint32_t b) const;

    /** Squared L2 norm (should stay 1 within rounding). */
    double normSquared() const;

  private:
    /** Panic unless @p c is over this register's qubit count. */
    void checkCircuit(const QuantumCircuit &c) const;
    void apply1q(std::uint32_t q, const Amp m[2][2]);
    /** Diagonal 1q gate: amp *= p0 / p1 by the qubit's bit. */
    void applyPhase1q(std::uint32_t q, Amp p0, Amp p1);
    void applyCZ(std::uint32_t a, std::uint32_t b);
    void applyCNOT(std::uint32_t control, std::uint32_t target);
    void applyRZZ(std::uint32_t a, std::uint32_t b, double angle);

    /**
     * Serial-or-pooled iteration of [0, total): @p fn receives one
     * contiguous [begin, end) slab per participant, aligned so SIMD
     * vectors and cachelines never straddle a slab boundary.
     */
    template <typename Fn>
    void forSlabs(std::uint64_t total, Fn &&fn);

    /** Threads to use for one kernel pass (1 = stay serial). */
    unsigned kernelThreads() const;

    /** The pool sized for @p threads (created/resized lazily). */
    KernelPool &pool(unsigned threads);

    std::uint32_t _numQubits;
    std::vector<Amp> _amps;
    KernelConfig _kernel;
    /** Resolved slab-kernel backend for _kernel.simd. */
    const kernels::KernelTable *_kt;
    /** Persistent worker team; null until a pass first goes wide. */
    std::unique_ptr<KernelPool> _pool;
};

/**
 * Inverse-CDF sampling over the basis states [0, @p dim) with
 * probabilities @p prob(basis): one outcome per uniform in [0, 1).
 * Sorts the uniforms and walks the CDF once, O(dim + S log S). A
 * rounding tail (cumulative weight short of 1 by an ulp or two) goes
 * to the last basis state that has weight, never to an unreachable
 * zero-weight state.
 */
template <typename Prob>
std::vector<std::uint64_t>
sampleFromCdf(const std::vector<double> &uniforms, std::uint64_t dim,
              Prob &&prob)
{
    const std::size_t shots = uniforms.size();
    std::vector<std::pair<double, std::size_t>> draws(shots);
    for (std::size_t s = 0; s < shots; ++s)
        draws[s] = {uniforms[s], s};
    std::sort(draws.begin(), draws.end());

    std::vector<std::uint64_t> outcomes(shots, 0);
    double cum = 0.0;
    std::size_t next = 0;
    for (std::uint64_t basis = 0; basis < dim && next < shots;
         ++basis) {
        cum += prob(basis);
        while (next < shots && draws[next].first < cum) {
            outcomes[draws[next].second] = basis;
            ++next;
        }
    }
    if (next < shots) {
        std::uint64_t last = dim - 1;
        while (last > 0 && prob(last) <= 0.0)
            --last;
        for (; next < shots; ++next)
            outcomes[draws[next].second] = last;
    }
    return outcomes;
}

} // namespace qtenon::quantum

#endif // QTENON_QUANTUM_STATEVECTOR_HH
