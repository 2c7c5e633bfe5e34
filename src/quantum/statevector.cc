#include "statevector.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "kernel_pool.hh"
#include "obs/metrics.hh"
#include "sim/logging.hh"

namespace qtenon::quantum {

namespace {

constexpr std::complex<double> iUnit{0.0, 1.0};

std::atomic<unsigned> gKernelThreadCap{0};

/**
 * Slab alignment, in index units (pairs or amplitudes): slab
 * boundaries land on multiples of 8 so two-complex SIMD vectors
 * never straddle threads and adjacent slabs never share a 64-byte
 * amplitude cacheline (8 pairs map to >= 128 contiguous bytes on
 * every kernel's index decomposition).
 */
constexpr std::uint64_t kSlabAlign = 8;

/** Insert a zero bit at position @p b of @p x (bits at and above @p b
 *  shift up by one). The workhorse of the pair-index decomposition:
 *  mapping p in [0, 2^(n-1)) through insertBit(p, q) enumerates, in
 *  increasing order, exactly the indices whose qubit-q bit is clear. */
inline std::uint64_t
insertBit(std::uint64_t x, std::uint32_t b)
{
    const std::uint64_t low = (std::uint64_t(1) << b) - 1;
    return ((x & ~low) << 1) | (x & low);
}

bool
isSingleQubitUnitary(GateType t)
{
    switch (t) {
      case GateType::X:
      case GateType::Y:
      case GateType::Z:
      case GateType::H:
      case GateType::S:
      case GateType::Sdg:
      case GateType::T:
      case GateType::RX:
      case GateType::RY:
      case GateType::RZ:
        return true;
      default:
        return false;
    }
}

/** The 2x2 unitary of a single-qubit gate. */
void
gateMatrix1q(GateType t, double angle, std::complex<double> m[2][2])
{
    const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
    switch (t) {
      case GateType::X:
        m[0][0] = 0; m[0][1] = 1; m[1][0] = 1; m[1][1] = 0;
        return;
      case GateType::Y:
        m[0][0] = 0; m[0][1] = -iUnit; m[1][0] = iUnit; m[1][1] = 0;
        return;
      case GateType::Z:
        m[0][0] = 1; m[0][1] = 0; m[1][0] = 0; m[1][1] = -1;
        return;
      case GateType::H:
        m[0][0] = inv_sqrt2; m[0][1] = inv_sqrt2;
        m[1][0] = inv_sqrt2; m[1][1] = -inv_sqrt2;
        return;
      case GateType::S:
        m[0][0] = 1; m[0][1] = 0; m[1][0] = 0; m[1][1] = iUnit;
        return;
      case GateType::Sdg:
        m[0][0] = 1; m[0][1] = 0; m[1][0] = 0; m[1][1] = -iUnit;
        return;
      case GateType::T:
        m[0][0] = 1; m[0][1] = 0; m[1][0] = 0;
        m[1][1] = std::exp(iUnit * (M_PI / 4.0));
        return;
      case GateType::RX: {
        const double c = std::cos(angle / 2.0);
        const double s = std::sin(angle / 2.0);
        m[0][0] = c; m[0][1] = -iUnit * s;
        m[1][0] = -iUnit * s; m[1][1] = c;
        return;
      }
      case GateType::RY: {
        const double c = std::cos(angle / 2.0);
        const double s = std::sin(angle / 2.0);
        m[0][0] = c; m[0][1] = -s; m[1][0] = s; m[1][1] = c;
        return;
      }
      case GateType::RZ:
        m[0][0] = std::exp(-iUnit * (angle / 2.0));
        m[0][1] = 0; m[1][0] = 0;
        m[1][1] = std::exp(iUnit * (angle / 2.0));
        return;
      default:
        sim::panic("gateMatrix1q on non-1q gate ", gateName(t));
    }
}

/** Whether a fused 2x2 matrix degenerated to a diagonal. */
inline bool
isDiagonal2x2(const std::complex<double> m[2][2])
{
    return m[0][1] == std::complex<double>{0.0, 0.0} &&
           m[1][0] == std::complex<double>{0.0, 0.0};
}

obs::Histogram &
passHistogram()
{
    static obs::Histogram &h = obs::histogram(
        "quantum.kernel.pass_ns",
        "wall time of one statevector kernel pass");
    return h;
}

obs::Counter &
parallelPassCounter()
{
    static obs::Counter &c = obs::counter(
        "quantum.kernel.parallel_passes",
        "kernel passes executed on the worker pool");
    return c;
}

obs::Counter &
serialPassCounter()
{
    static obs::Counter &c = obs::counter(
        "quantum.kernel.serial_passes",
        "kernel passes executed on the calling thread");
    return c;
}

} // namespace

void
setKernelThreadCap(unsigned cap)
{
    gKernelThreadCap.store(cap, std::memory_order_relaxed);
}

unsigned
kernelThreadCap()
{
    return gKernelThreadCap.load(std::memory_order_relaxed);
}

unsigned
resolveKernelThreads(unsigned requested)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    // Auto is clamped by the hardware width; explicit requests are
    // honoured (determinism tests deliberately oversubscribe) —
    // both respect the scheduler's process-wide budget.
    unsigned n = requested == 0 ? hw : requested;
    const unsigned cap = kernelThreadCap();
    if (cap != 0)
        n = std::min(n, cap);
    return std::max(1u, n);
}

StateVector::StateVector(std::uint32_t num_qubits,
                         std::uint32_t max_qubits, KernelConfig kernel)
    : _numQubits(num_qubits), _kernel(kernel),
      _kt(&kernels::activeKernels(kernel.simd))
{
    if (num_qubits == 0)
        sim::fatal("statevector needs at least one qubit");
    if (num_qubits > max_qubits) {
        sim::fatal("statevector for ", num_qubits, " qubits exceeds the ",
                   max_qubits, "-qubit cap; use the mean-field sampler");
    }
    _amps.assign(std::size_t(1) << num_qubits, Amp{0.0, 0.0});
    _amps[0] = Amp{1.0, 0.0};
}

StateVector::~StateVector() = default;
StateVector::StateVector(StateVector &&) noexcept = default;
StateVector &StateVector::operator=(StateVector &&) noexcept = default;

StateVector::StateVector(const StateVector &other)
    : _numQubits(other._numQubits), _amps(other._amps),
      _kernel(other._kernel), _kt(other._kt)
{
}

StateVector &
StateVector::operator=(const StateVector &other)
{
    _numQubits = other._numQubits;
    _amps = other._amps;
    _kernel = other._kernel;
    _kt = other._kt;
    // The worker team is per-instance; the next wide pass rebuilds.
    _pool.reset();
    return *this;
}

void
StateVector::setKernelConfig(KernelConfig k)
{
    _kernel = k;
    _kt = &kernels::activeKernels(k.simd);
    // Let the next wide pass rebuild the team at the new size.
    _pool.reset();
}

const char *
StateVector::simdBackendName() const
{
    return _kt->name;
}

void
StateVector::reset()
{
    std::fill(_amps.begin(), _amps.end(), Amp{0.0, 0.0});
    _amps[0] = Amp{1.0, 0.0};
}

unsigned
StateVector::kernelThreads() const
{
    if (_kernel.threads == 1 ||
        _numQubits < _kernel.parallelMinQubits)
        return 1;
    return resolveKernelThreads(_kernel.threads);
}

KernelPool &
StateVector::pool(unsigned threads)
{
    // Rebuilds only when the resolved width changes (e.g. a
    // BatchScheduler installed a new cap mid-life); the common case
    // reuses the same team for every gate of every circuit.
    if (!_pool || _pool->threads() != threads)
        _pool = std::make_unique<KernelPool>(threads);
    return *_pool;
}

template <typename Fn>
void
StateVector::forSlabs(std::uint64_t total, Fn &&fn)
{
    const unsigned nt = kernelThreads();
    const bool wide = nt > 1 && total >= 2 * nt * kSlabAlign;
    const bool timed = obs::metricsEnabled();
    const auto t0 = timed ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};

    if (!wide) {
        if (timed)
            serialPassCounter().inc();
        fn(std::uint64_t(0), total);
    } else {
        if (timed)
            parallelPassCounter().inc();
        // Contiguous aligned slabs: participant t owns
        // [t*chunk, (t+1)*chunk) ∩ [0, total). Every index is
        // computed by exactly one thread with the same arithmetic as
        // the serial loop, so amplitudes are identical for every
        // thread count; alignment keeps SIMD vectors and amplitude
        // cachelines from straddling slabs.
        std::uint64_t chunk = (total + nt - 1) / nt;
        chunk = (chunk + kSlabAlign - 1) & ~(kSlabAlign - 1);
        pool(nt).run([&fn, chunk, total](unsigned tid, unsigned) {
            const std::uint64_t begin = std::min<std::uint64_t>(
                std::uint64_t(tid) * chunk, total);
            const std::uint64_t end =
                std::min<std::uint64_t>(begin + chunk, total);
            if (begin < end)
                fn(begin, end);
        });
    }

    if (timed) {
        const auto t1 = std::chrono::steady_clock::now();
        passHistogram().record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t1 - t0)
                .count()));
    }
}

void
StateVector::apply1q(std::uint32_t q, const Amp m[2][2])
{
    // Iterate the 2^(n-1) (i, i|bit) pairs; the slab kernel handles
    // the group/offset decomposition and vectorization.
    const std::uint64_t pairs = _amps.size() >> 1;
    const Amp flat[4] = {m[0][0], m[0][1], m[1][0], m[1][1]};
    Amp *amps = _amps.data();
    const auto *kt = _kt;
    forSlabs(pairs, [=](std::uint64_t begin, std::uint64_t end) {
        kt->apply1q(amps, q, begin, end, flat);
    });
}

void
StateVector::applyPhase1q(std::uint32_t q, Amp p0, Amp p1)
{
    Amp *amps = _amps.data();
    const auto *kt = _kt;
    if (p0 == Amp{1.0, 0.0}) {
        // Z/S/Sdg/T: only the bit-set half picks up a phase.
        const std::uint64_t half = _amps.size() >> 1;
        forSlabs(half, [=](std::uint64_t begin, std::uint64_t end) {
            kt->phaseUpper(amps, q, begin, end, p1);
        });
        return;
    }
    // RZ and fused diagonals: one linear phase pass, no pair gather.
    const std::uint64_t bit = std::uint64_t(1) << q;
    forSlabs(_amps.size(),
             [=](std::uint64_t begin, std::uint64_t end) {
        kt->phaseLinear(amps, bit, begin, end, p0, p1);
    });
}

void
StateVector::applyCZ(std::uint32_t a, std::uint32_t b)
{
    // Enumerate only the quarter subspace with both bits set.
    const std::uint32_t lo = std::min(a, b);
    const std::uint32_t hi = std::max(a, b);
    const std::uint64_t mask =
        (std::uint64_t(1) << a) | (std::uint64_t(1) << b);
    const std::uint64_t quarter = _amps.size() >> 2;
    Amp *amps = _amps.data();
    const auto *kt = _kt;
    forSlabs(quarter, [=](std::uint64_t begin, std::uint64_t end) {
        kt->czQuarter(amps, lo, hi, mask, begin, end);
    });
}

void
StateVector::applyCNOT(std::uint32_t control, std::uint32_t target)
{
    // Enumerate only the quarter subspace with control set and
    // target clear; each visit swaps one (i, i|tbit) pair.
    const std::uint32_t lo = std::min(control, target);
    const std::uint32_t hi = std::max(control, target);
    const std::uint64_t cbit = std::uint64_t(1) << control;
    const std::uint64_t tbit = std::uint64_t(1) << target;
    const std::uint64_t quarter = _amps.size() >> 2;
    Amp *amps = _amps.data();
    const auto *kt = _kt;
    forSlabs(quarter, [=](std::uint64_t begin, std::uint64_t end) {
        kt->cnotQuarter(amps, lo, hi, cbit, tbit, begin, end);
    });
}

void
StateVector::applyRZZ(std::uint32_t a, std::uint32_t b, double angle)
{
    // exp(-i angle/2 Z_a Z_b): phase -angle/2 on equal parity,
    // +angle/2 on odd parity. Already a pure phase pass.
    const Amp even = std::exp(-iUnit * (angle / 2.0));
    const Amp odd = std::exp(iUnit * (angle / 2.0));
    const std::uint64_t abit = std::uint64_t(1) << a;
    const std::uint64_t bbit = std::uint64_t(1) << b;
    Amp *amps = _amps.data();
    const auto *kt = _kt;
    forSlabs(_amps.size(),
             [=](std::uint64_t begin, std::uint64_t end) {
        kt->parityPhase(amps, abit, bbit, begin, end, even, odd);
    });
}

void
StateVector::apply(const Gate &g, double angle)
{
    Amp m[2][2];

    switch (g.type) {
      case GateType::I:
        return;
      case GateType::Measure:
        return; // sampling handles readout
      case GateType::Z:
        applyPhase1q(g.qubit0, Amp{1.0, 0.0}, Amp{-1.0, 0.0});
        return;
      case GateType::S:
        applyPhase1q(g.qubit0, Amp{1.0, 0.0}, iUnit);
        return;
      case GateType::Sdg:
        applyPhase1q(g.qubit0, Amp{1.0, 0.0}, -iUnit);
        return;
      case GateType::T:
        applyPhase1q(g.qubit0, Amp{1.0, 0.0},
                     std::exp(iUnit * (M_PI / 4.0)));
        return;
      case GateType::RZ:
        applyPhase1q(g.qubit0, std::exp(-iUnit * (angle / 2.0)),
                     std::exp(iUnit * (angle / 2.0)));
        return;
      case GateType::X:
      case GateType::Y:
      case GateType::H:
      case GateType::RX:
      case GateType::RY:
        gateMatrix1q(g.type, angle, m);
        apply1q(g.qubit0, m);
        return;
      case GateType::RZZ:
        applyRZZ(g.qubit0, g.qubit1, angle);
        return;
      case GateType::CZ:
        applyCZ(g.qubit0, g.qubit1);
        return;
      case GateType::CNOT:
        applyCNOT(g.qubit0, g.qubit1);
        return;
    }
    sim::panic("unhandled gate in statevector");
}

void
StateVector::checkCircuit(const QuantumCircuit &c) const
{
    if (c.numQubits() != _numQubits) {
        sim::panic("circuit qubit count ", c.numQubits(),
                   " != statevector ", _numQubits);
    }
}

void
StateVector::applyGates(const QuantumCircuit &c, std::size_t begin,
                        std::size_t end)
{
    checkCircuit(c);
    const auto &gates = c.gates();
    for (std::size_t i = begin; i < end; ++i)
        apply(gates[i], c.resolveAngle(gates[i]));
}

void
StateVector::saveAmplitudes(std::vector<Amp> &out) const
{
    out.assign(_amps.begin(), _amps.end());
}

void
StateVector::loadAmplitudes(const std::vector<Amp> &in)
{
    if (in.size() != _amps.size())
        sim::panic("loading ", in.size(), " amplitudes into a ",
                   _amps.size(), "-amplitude statevector");
    std::copy(in.begin(), in.end(), _amps.begin());
}

void
StateVector::applyCircuit(const QuantumCircuit &c)
{
    if (!_kernel.fuse1q) {
        applyGates(c, 0, c.numGates());
        return;
    }
    checkCircuit(c);

    // Gate fusion: accumulate runs of adjacent single-qubit gates on
    // the same qubit into one 2x2 matrix, flushed lazily when a
    // two-qubit gate touches the qubit (or at circuit end). Gates on
    // *different* qubits commute, so each qubit's run survives
    // interleaving with other qubits' gates.
    struct Pending {
        bool active = false;
        Amp m[2][2];
    };
    std::vector<Pending> pending(_numQubits);

    auto flush = [&](std::uint32_t q) {
        Pending &p = pending[q];
        if (!p.active)
            return;
        if (isDiagonal2x2(p.m))
            applyPhase1q(q, p.m[0][0], p.m[1][1]);
        else
            apply1q(q, p.m);
        p.active = false;
    };

    for (const auto &g : c.gates()) {
        const double angle = c.resolveAngle(g);
        if (g.type == GateType::I || g.type == GateType::Measure)
            continue;
        if (isSingleQubitUnitary(g.type)) {
            Amp gm[2][2];
            gateMatrix1q(g.type, angle, gm);
            Pending &p = pending[g.qubit0];
            if (!p.active) {
                p.active = true;
                p.m[0][0] = gm[0][0]; p.m[0][1] = gm[0][1];
                p.m[1][0] = gm[1][0]; p.m[1][1] = gm[1][1];
            } else {
                // new = gm * old (gm applies after old).
                const Amp f00 = gm[0][0] * p.m[0][0] +
                                gm[0][1] * p.m[1][0];
                const Amp f01 = gm[0][0] * p.m[0][1] +
                                gm[0][1] * p.m[1][1];
                const Amp f10 = gm[1][0] * p.m[0][0] +
                                gm[1][1] * p.m[1][0];
                const Amp f11 = gm[1][0] * p.m[0][1] +
                                gm[1][1] * p.m[1][1];
                p.m[0][0] = f00; p.m[0][1] = f01;
                p.m[1][0] = f10; p.m[1][1] = f11;
            }
            continue;
        }
        // Two-qubit gate: flush both operands, then apply.
        flush(g.qubit0);
        flush(g.qubit1);
        apply(g, angle);
    }
    for (std::uint32_t q = 0; q < _numQubits; ++q)
        flush(q);
}

double
StateVector::probability(std::uint64_t basis) const
{
    return std::norm(_amps[basis]);
}

double
StateVector::marginalOne(std::uint32_t q) const
{
    // Only bit-set indices contribute; enumerate just that half (in
    // the same increasing order the full scan visited them, so the
    // floating-point sum is unchanged).
    const std::uint64_t bit = std::uint64_t(1) << q;
    const std::uint64_t half = _amps.size() >> 1;
    double p = 0.0;
    for (std::uint64_t k = 0; k < half; ++k)
        p += std::norm(_amps[insertBit(k, q) | bit]);
    return p;
}

std::vector<std::uint64_t>
StateVector::sample(std::size_t shots, sim::Rng &rng) const
{
    std::vector<double> uniforms(shots);
    for (std::size_t s = 0; s < shots; ++s)
        uniforms[s] = rng.uniform();
    return sampleFromUniforms(uniforms);
}

std::vector<std::uint64_t>
StateVector::sampleFromUniforms(
    const std::vector<double> &uniforms) const
{
    return sampleFromCdf(uniforms, _amps.size(), [this](std::uint64_t b) {
        return std::norm(_amps[b]);
    });
}

bool
StateVector::measureAndCollapse(std::uint32_t q, sim::Rng &rng)
{
    const double p1 = marginalOne(q);
    const bool outcome = rng.coin(p1);
    const double keep_prob = outcome ? p1 : 1.0 - p1;
    if (keep_prob <= 0.0)
        sim::panic("collapse onto a zero-probability outcome");

    const std::uint64_t bit = std::uint64_t(1) << q;
    const double scale = 1.0 / std::sqrt(keep_prob);
    for (std::uint64_t i = 0; i < _amps.size(); ++i) {
        const bool is_one = i & bit;
        if (is_one == outcome)
            _amps[i] *= scale;
        else
            _amps[i] = Amp{0.0, 0.0};
    }
    return outcome;
}

void
StateVector::resetQubit(std::uint32_t q, sim::Rng &rng)
{
    if (measureAndCollapse(q, rng)) {
        Gate x{GateType::X, q, q, ParamRef{}};
        apply(x, 0.0);
    }
}

double
StateVector::expectationZ(std::uint32_t q) const
{
    const std::uint64_t bit = std::uint64_t(1) << q;
    double e = 0.0;
    for (std::uint64_t i = 0; i < _amps.size(); ++i) {
        const double p = std::norm(_amps[i]);
        e += (i & bit) ? -p : p;
    }
    return e;
}

double
StateVector::expectationZZ(std::uint32_t a, std::uint32_t b) const
{
    const std::uint64_t abit = std::uint64_t(1) << a;
    const std::uint64_t bbit = std::uint64_t(1) << b;
    double e = 0.0;
    for (std::uint64_t i = 0; i < _amps.size(); ++i) {
        const double p = std::norm(_amps[i]);
        const bool odd = bool(i & abit) != bool(i & bbit);
        e += odd ? -p : p;
    }
    return e;
}

double
StateVector::normSquared() const
{
    double n = 0.0;
    for (const auto &a : _amps)
        n += std::norm(a);
    return n;
}

} // namespace qtenon::quantum
