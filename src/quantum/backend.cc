#include "backend.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "density_matrix.hh"
#include "obs/metrics.hh"
#include "sim/logging.hh"
#include "stabilizer.hh"

namespace qtenon::quantum {

const char *
backendKindName(BackendKind k)
{
    switch (k) {
      case BackendKind::Auto: return "auto";
      case BackendKind::Statevector: return "statevector";
      case BackendKind::MeanField: return "meanfield";
      case BackendKind::Stabilizer: return "stabilizer";
      case BackendKind::DensityMatrix: return "densitymatrix";
    }
    return "?";
}

BackendKind
backendKindFromName(const std::string &name)
{
    if (name == "auto")
        return BackendKind::Auto;
    if (name == "statevector" || name == "sv")
        return BackendKind::Statevector;
    if (name == "meanfield" || name == "mean-field" || name == "mf")
        return BackendKind::MeanField;
    if (name == "stabilizer" || name == "stab")
        return BackendKind::Stabilizer;
    if (name == "densitymatrix" || name == "density-matrix" ||
        name == "dm")
        return BackendKind::DensityMatrix;
    sim::fatal("unknown backend '", name, "' (expected auto, "
               "statevector, meanfield, stabilizer, or densitymatrix)");
}

std::vector<double>
Backend::marginals()
{
    std::vector<double> p1(numQubits());
    for (std::uint32_t q = 0; q < numQubits(); ++q)
        p1[q] = marginalOne(q);
    return p1;
}

namespace {

/** Equality of two doubles by IEEE-754 bits. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
        std::bit_cast<std::uint64_t>(b);
}

/** Bit-for-bit gate equality (literal angles by IEEE-754 bits). */
bool
sameGate(const Gate &a, const Gate &b)
{
    return a.type == b.type && a.qubit0 == b.qubit0 &&
        a.qubit1 == b.qubit1 && a.param.index == b.param.index &&
        sameBits(a.param.value, b.param.value);
}

/**
 * Index of the first gate of @p c whose symbolic parameter differs
 * bit for bit from @p base (numGates() when none does). Every gate
 * before it resolves to the angle it would have under @p base.
 */
std::size_t
firstShiftedGate(const QuantumCircuit &c, const std::vector<double> &base)
{
    const auto &gates = c.gates();
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        if (!isParameterized(g.type) || !g.param.isSymbolic())
            continue;
        if (!sameBits(c.parameter(g.param.index), base[g.param.index]))
            return i;
    }
    return gates.size();
}

obs::Counter &
gatesSkippedCounter()
{
    static obs::Counter &c = obs::counter(
        "quantum.checkpoint.gates_skipped",
        "gates not replayed because a run resumed from the prefix "
        "checkpoint");
    return c;
}

/** Dense statevector engine: exact, reuses one 2^n buffer. */
class StatevectorBackend : public Backend
{
  public:
    StatevectorBackend(std::uint32_t n, std::uint32_t max_qubits,
                       KernelConfig kernel)
        : _sv(n, max_qubits, kernel), _maxQubits(max_qubits)
    {}

    BackendKind kind() const override
    {
        return BackendKind::Statevector;
    }
    std::uint32_t numQubits() const override
    {
        return _sv.numQubits();
    }
    bool exact() const override { return true; }
    std::uint32_t maxQubits() const override { return _maxQubits; }

    void
    run(const QuantumCircuit &c) override
    {
        _sv.reset();
        _sv.applyCircuit(c);
    }

    /**
     * Resume from the one rolling prefix checkpoint: the state after
     * gates [0, K) under (gate list, base). With d the first gate
     * whose parameter moved off @p base, a checkpoint taken under the
     * same gate list and base with K <= d is restored instead of
     * replaying [0, K); the checkpoint then advances to d, so a
     * gradient step's probes apply each base gate once between them.
     * Fusion regroups products across the boundary, so fuse1q runs
     * in full.
     */
    void
    runFromBase(const QuantumCircuit &c,
                const std::vector<double> &base) override
    {
        if (_sv.kernelConfig().fuse1q ||
            base.size() != c.numParameters()) {
            run(c);
            return;
        }
        const auto &gates = c.gates();
        const std::size_t total = gates.size();
        const std::size_t d = firstShiftedGate(c, base);
        const bool valid = _ckptGate <= d &&
            std::equal(base.begin(), base.end(), _ckptBase.begin(),
                       _ckptBase.end(), sameBits) &&
            std::equal(gates.begin(), gates.end(), _ckptGates.begin(),
                       _ckptGates.end(), sameGate);

        std::size_t from = 0;
        if (valid && _ckptGate > 0) {
            _sv.loadAmplitudes(_ckptAmps);
            from = _ckptGate;
            if (obs::metricsEnabled())
                gatesSkippedCounter().add(_ckptGate);
        } else {
            _sv.reset();
        }
        // A checkpoint at 0 is |0...0> and one at the end serves only
        // an exact repeat, so neither displaces a useful one.
        if (d > from && d < total) {
            _sv.applyGates(c, from, d);
            _sv.saveAmplitudes(_ckptAmps);
            if (!valid) {
                _ckptGates = gates;
                _ckptBase = base;
            }
            _ckptGate = d;
            from = d;
        }
        _sv.applyGates(c, from, total);
    }

    std::vector<std::uint64_t>
    sample(std::size_t shots, sim::Rng &rng) override
    {
        if (_sv.numQubits() > 64)
            sim::fatal("64-bit sample words cap the register at 64 "
                       "qubits");
        return _sv.sample(shots, rng);
    }

    double marginalOne(std::uint32_t q) override
    {
        return _sv.marginalOne(q);
    }
    double expectationZ(std::uint32_t q) override
    {
        return _sv.expectationZ(q);
    }
    double expectationZZ(std::uint32_t a, std::uint32_t b) override
    {
        return _sv.expectationZZ(a, b);
    }
    double expectation(const Hamiltonian &h) override
    {
        return h.expectation(_sv);
    }
    const StateVector *stateVector() const override { return &_sv; }

  private:
    StateVector _sv;
    std::uint32_t _maxQubits;
    /** Prefix checkpoint: amplitudes after gates [0, _ckptGate) of
     *  _ckptGates under parameters _ckptBase. Empty until the first
     *  runFromBase() takes one. */
    std::vector<StateVector::Amp> _ckptAmps;
    std::vector<Gate> _ckptGates;
    std::vector<double> _ckptBase;
    std::size_t _ckptGate = 0;
};

using Bloch = std::array<double, 3>;

/** Rotate a Bloch vector by @p angle around the given axis. */
void
rotateBloch(Bloch &b, int axis, double angle)
{
    const double c = std::cos(angle);
    const double s = std::sin(angle);
    double x = b[0], y = b[1], z = b[2];
    switch (axis) {
      case 0: // X axis
        b[1] = c * y - s * z;
        b[2] = s * y + c * z;
        break;
      case 1: // Y axis
        b[0] = c * x + s * z;
        b[2] = -s * x + c * z;
        break;
      case 2: // Z axis
        b[0] = c * x - s * y;
        b[1] = s * x + c * y;
        break;
      default:
        sim::panic("bad Bloch axis");
    }
}

/** H on a Bloch vector: (x, y, z) -> (z, -y, x). */
void
hadamardBloch(Bloch &b)
{
    Bloch nb{b[2], -b[1], b[0]};
    b = nb;
}

/**
 * Exact single-qubit reduced-state update for RZZ(angle) against a
 * product-state partner with <Z> = z_partner: the transverse
 * component (x - iy) is multiplied by cos(angle) - i sin(angle) *
 * z_partner, which both rotates it and shrinks it (the shrink is the
 * physically correct loss of local coherence to entanglement).
 */
void
rzzReduced(Bloch &b, double z_partner, double angle)
{
    const double c = std::cos(angle);
    const double s = std::sin(angle) * z_partner;
    const double x = b[0];
    const double y = b[1];
    b[0] = c * x - s * y;
    b[1] = c * y + s * x;
}

/** RZZ on a product pair: each side sees the other's <Z>. */
void
rzzBloch(Bloch &a, Bloch &b, double angle)
{
    const double za = a[2];
    const double zb = b[2];
    rzzReduced(a, zb, angle);
    rzzReduced(b, za, angle);
}

/** CZ = (global phase) RZZ(-pi/2) . RZ(pi/2) x RZ(pi/2). */
void
czBloch(Bloch &a, Bloch &b)
{
    rzzBloch(a, b, -M_PI / 2.0);
    rotateBloch(a, 2, M_PI / 2.0);
    rotateBloch(b, 2, M_PI / 2.0);
}

/**
 * Product-state engine: each qubit carries a Bloch vector.
 * Single-qubit rotations are exact, and two-qubit entanglers apply
 * the exact single-qubit reduced-state map for product inputs (the
 * transverse component is rotated by the partner's <Z> and shrunk by
 * the coherence lost to entanglement). Correlations across repeated
 * interactions are dropped: the documented substitution for dense
 * simulation beyond the statevector cap (DESIGN.md §5).
 */
class MeanFieldBackend : public Backend
{
  public:
    explicit MeanFieldBackend(std::uint32_t n)
        : _n(n), _bloch(n, Bloch{0.0, 0.0, 1.0})
    {}

    BackendKind kind() const override { return BackendKind::MeanField; }
    std::uint32_t numQubits() const override { return _n; }
    bool exact() const override { return false; }
    std::uint32_t maxQubits() const override { return 4096; }

    void
    run(const QuantumCircuit &c) override
    {
        if (c.numQubits() != _n) {
            sim::panic("circuit qubit count ", c.numQubits(),
                       " != mean-field register ", _n);
        }
        // Bloch convention: |0> = (0, 0, 1); P(read 1) = (1 - z) / 2.
        std::fill(_bloch.begin(), _bloch.end(), Bloch{0.0, 0.0, 1.0});
        for (const auto &g : c.gates()) {
            const double angle = c.resolveAngle(g);
            auto &b0 = _bloch[g.qubit0];
            switch (g.type) {
              case GateType::I:
              case GateType::Measure:
                break;
              case GateType::X:
                rotateBloch(b0, 0, M_PI);
                break;
              case GateType::Y:
                rotateBloch(b0, 1, M_PI);
                break;
              case GateType::Z:
                rotateBloch(b0, 2, M_PI);
                break;
              case GateType::H:
                hadamardBloch(b0);
                break;
              case GateType::S:
                rotateBloch(b0, 2, M_PI / 2.0);
                break;
              case GateType::Sdg:
                rotateBloch(b0, 2, -M_PI / 2.0);
                break;
              case GateType::T:
                rotateBloch(b0, 2, M_PI / 4.0);
                break;
              case GateType::RX:
                rotateBloch(b0, 0, angle);
                break;
              case GateType::RY:
                rotateBloch(b0, 1, angle);
                break;
              case GateType::RZ:
                rotateBloch(b0, 2, angle);
                break;
              case GateType::RZZ:
                rzzBloch(b0, _bloch[g.qubit1], angle);
                break;
              case GateType::CZ:
                czBloch(b0, _bloch[g.qubit1]);
                break;
              case GateType::CNOT: {
                // CNOT = H_t . CZ . H_t.
                auto &b1 = _bloch[g.qubit1];
                hadamardBloch(b1);
                czBloch(b0, b1);
                hadamardBloch(b1);
                break;
              }
            }
        }
    }

    std::vector<std::uint64_t>
    sample(std::size_t shots, sim::Rng &rng) override
    {
        if (_n > 64)
            sim::fatal("64-bit sample words cap the register at 64 "
                       "qubits");
        // One rng.coin(P(read 1)) per qubit per shot, as a compare
        // on the raw draw.
        std::vector<sim::CoinThreshold> one;
        one.reserve(_n);
        for (std::uint32_t q = 0; q < _n; ++q)
            one.emplace_back((1.0 - _bloch[q][2]) / 2.0);
        std::vector<std::uint64_t> out(shots);
        rng.coinWords(one.data(), _n, shots, out.data());
        return out;
    }

    double
    marginalOne(std::uint32_t q) override
    {
        checkQubit(q);
        return (1.0 - _bloch[q][2]) / 2.0;
    }

    double
    expectationZ(std::uint32_t q) override
    {
        checkQubit(q);
        return _bloch[q][2];
    }

    double
    expectationZZ(std::uint32_t a, std::uint32_t b) override
    {
        checkQubit(a);
        checkQubit(b);
        // Product state: <Z_a Z_b> factorizes.
        return _bloch[a][2] * _bloch[b][2];
    }

    double
    expectation(const Hamiltonian &h) override
    {
        // <prod P_q> ~= prod <P_q>, each factor read off the Bloch
        // vector (<X> = x, <Y> = y, <Z> = z).
        double e = h.identityOffset();
        for (const auto &t : h.terms()) {
            double prod = 1.0;
            for (const auto &f : t.string.factors) {
                checkQubit(f.qubit);
                switch (f.op) {
                  case Pauli::I:
                    break;
                  case Pauli::X:
                    prod *= _bloch[f.qubit][0];
                    break;
                  case Pauli::Y:
                    prod *= _bloch[f.qubit][1];
                    break;
                  case Pauli::Z:
                    prod *= _bloch[f.qubit][2];
                    break;
                }
            }
            e += t.coefficient * prod;
        }
        return e;
    }

  private:
    void
    checkQubit(std::uint32_t q) const
    {
        if (q >= _n)
            sim::panic("qubit ", q, " out of range");
    }

    std::uint32_t _n;
    std::vector<Bloch> _bloch;
};

/** CHP tableau engine: Clifford circuits only, exact. */
class StabilizerBackend : public Backend
{
  public:
    explicit StabilizerBackend(std::uint32_t n) : _tableau(n) {}

    BackendKind kind() const override
    {
        return BackendKind::Stabilizer;
    }
    std::uint32_t numQubits() const override
    {
        return _tableau.numQubits();
    }
    bool exact() const override { return true; }
    std::uint32_t maxQubits() const override { return 1024; }

    void
    run(const QuantumCircuit &c) override
    {
        _tableau.reset();
        _tableau.applyCircuit(c); // fatal on non-Clifford content
    }

    std::vector<std::uint64_t>
    sample(std::size_t shots, sim::Rng &rng) override
    {
        return _tableau.sample(shots, rng);
    }

    double marginalOne(std::uint32_t q) override
    {
        return _tableau.marginalOne(q);
    }
    double expectationZ(std::uint32_t q) override
    {
        return _tableau.expectationZ(q);
    }
    double expectationZZ(std::uint32_t a, std::uint32_t b) override
    {
        return _tableau.expectationZZ(a, b);
    }

    double
    expectation(const Hamiltonian &h) override
    {
        double e = h.identityOffset();
        for (const auto &t : h.terms())
            e += t.coefficient * _tableau.pauliExpectation(t.string);
        return e;
    }

  private:
    StabilizerSimulator _tableau;
};

/** Open-system engine: 4^n density operator with noise channels. */
class DensityMatrixBackend : public Backend
{
  public:
    explicit DensityMatrixBackend(std::uint32_t n)
        : _dm(n, DensityMatrix::defaultMaxQubits)
    {}

    BackendKind kind() const override
    {
        return BackendKind::DensityMatrix;
    }
    std::uint32_t numQubits() const override
    {
        return _dm.numQubits();
    }
    bool exact() const override { return true; }
    std::uint32_t maxQubits() const override
    {
        return DensityMatrix::defaultMaxQubits;
    }

    void
    run(const QuantumCircuit &c) override
    {
        _dm.reset();
        _dm.applyCircuit(c);
    }

    std::vector<std::uint64_t>
    sample(std::size_t shots, sim::Rng &rng) override
    {
        std::vector<double> uniforms(shots);
        for (std::size_t s = 0; s < shots; ++s)
            uniforms[s] = rng.uniform();
        return sampleFromCdf(uniforms, _dm.dim(), [this](std::uint64_t b) {
            return _dm.probability(b);
        });
    }

    double marginalOne(std::uint32_t q) override
    {
        return _dm.marginalOne(q);
    }
    double expectationZ(std::uint32_t q) override
    {
        return _dm.expectationZ(q);
    }
    double expectationZZ(std::uint32_t a, std::uint32_t b) override
    {
        return _dm.expectationZZ(a, b);
    }
    double expectation(const Hamiltonian &h) override
    {
        return _dm.expectation(h);
    }

    /** Noise channels and purity remain engine-specific; expose the
     *  operator for callers that ask for this kind explicitly. */
    DensityMatrix &densityMatrix() { return _dm; }

  private:
    DensityMatrix _dm;
};

} // namespace

BackendKind
resolveBackendKind(BackendKind requested, std::uint32_t num_qubits,
                   std::uint32_t exact_cap)
{
    if (requested == BackendKind::Auto) {
        return num_qubits <= exact_cap ? BackendKind::Statevector
                                       : BackendKind::MeanField;
    }
    if (requested == BackendKind::Statevector &&
        num_qubits > std::max(exact_cap, StateVector::defaultMaxQubits))
        sim::fatal("statevector backend forced for ", num_qubits,
                   " qubits (cap ",
                   std::max(exact_cap, StateVector::defaultMaxQubits),
                   "); use meanfield or stabilizer");
    if (requested == BackendKind::DensityMatrix &&
        num_qubits > DensityMatrix::defaultMaxQubits)
        sim::fatal("density-matrix backend forced for ", num_qubits,
                   " qubits (cap ", DensityMatrix::defaultMaxQubits,
                   ")");
    return requested;
}

std::unique_ptr<Backend>
makeBackend(std::uint32_t num_qubits, const BackendConfig &cfg)
{
    const BackendKind kind =
        resolveBackendKind(cfg.kind, num_qubits, cfg.exactCap);
    switch (kind) {
      case BackendKind::Statevector:
        return std::make_unique<StatevectorBackend>(
            num_qubits,
            std::max(cfg.exactCap, StateVector::defaultMaxQubits),
            cfg.kernel);
      case BackendKind::MeanField:
        return std::make_unique<MeanFieldBackend>(num_qubits);
      case BackendKind::Stabilizer:
        return std::make_unique<StabilizerBackend>(num_qubits);
      case BackendKind::DensityMatrix:
        return std::make_unique<DensityMatrixBackend>(num_qubits);
      case BackendKind::Auto:
        break; // resolved above
    }
    sim::panic("unresolved backend kind");
}

void
applyReadoutError(std::vector<std::uint64_t> &words, std::uint32_t n,
                  double e, sim::Rng &rng)
{
    if (e == 0.0)
        return;
    const std::vector<sim::CoinThreshold> flip(n, sim::CoinThreshold(e));
    std::vector<std::uint64_t> flips(words.size());
    rng.coinWords(flip.data(), n, flips.size(), flips.data());
    for (std::size_t s = 0; s < words.size(); ++s)
        words[s] ^= flips[s];
}

} // namespace qtenon::quantum
