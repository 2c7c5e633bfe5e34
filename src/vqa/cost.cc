#include "cost.hh"

#include "quantum/backend.hh"
#include "quantum/shot_planes.hh"

#include "sim/logging.hh"

namespace qtenon::vqa {

double
CostFunction::exactFromCircuit(const quantum::QuantumCircuit &c) const
{
    quantum::BackendConfig cfg;
    cfg.kind = quantum::BackendKind::Statevector;
    auto b = quantum::makeBackend(c.numQubits(), cfg);
    b->run(c);
    return fromBackend(*b);
}

double
MaxCutCost::fromShots(const std::vector<std::uint64_t> &shots) const
{
    if (shots.empty())
        return 0.0;
    // An edge is cut in the shots where its endpoints differ.
    const quantum::ShotPlanes planes(shots);
    std::uint64_t cut = 0;
    for (const auto &e : _graph.edges()) {
        cut += planes.oddCount(quantum::ShotPlanes::bit(e.u) |
                               quantum::ShotPlanes::bit(e.v));
    }
    return -static_cast<double>(cut) / static_cast<double>(shots.size());
}

double
MaxCutCost::fromMarginals(const std::vector<double> &p1) const
{
    double expected = 0.0;
    for (const auto &e : _graph.edges()) {
        const double pu = p1[e.u];
        const double pv = p1[e.v];
        expected += pu * (1.0 - pv) + pv * (1.0 - pu);
    }
    return -expected;
}

double
MaxCutCost::fromBackend(quantum::Backend &b) const
{
    double expected = 0.0;
    for (const auto &e : _graph.edges())
        expected += (1.0 - b.expectationZZ(e.u, e.v)) / 2.0;
    return -expected;
}

double
MaxCutCost::opsPerShot() const
{
    // Bit-sliced evaluation, as fromShots runs it: each edge XORs
    // its endpoints' bit-planes and popcounts the words, 64 shots at
    // a time, amortizing to less than two ops per edge.
    return 1.5 * static_cast<double>(_graph.numEdges()) + 8.0;
}

double
HamiltonianCost::fromShots(
    const std::vector<std::uint64_t> &shots) const
{
    return _hamiltonian.diagonalExpectationFromShots(shots);
}

double
HamiltonianCost::fromMarginals(const std::vector<double> &p1) const
{
    using quantum::Pauli;
    double e = _hamiltonian.identityOffset();
    for (const auto &t : _hamiltonian.terms()) {
        if (!t.string.isDiagonal())
            continue;
        // Mean-field: <prod Z> ~= prod <Z>.
        double prod = 1.0;
        for (const auto &f : t.string.factors) {
            if (f.op == Pauli::Z)
                prod *= 1.0 - 2.0 * p1[f.qubit];
        }
        e += t.coefficient * prod;
    }
    return e;
}

double
HamiltonianCost::fromBackend(quantum::Backend &b) const
{
    return b.expectation(_hamiltonian);
}

double
HamiltonianCost::opsPerShot() const
{
    // Diagonal terms evaluate as fromShots runs them: XOR the
    // term's Z bit-planes and popcount, 64 shots per word, under one
    // op per factor per shot amortized.
    double ops = 8.0;
    for (const auto &t : _hamiltonian.terms()) {
        if (t.string.isDiagonal())
            ops += 0.75 * static_cast<double>(t.string.factors.size());
    }
    return ops;
}

double
QnnLoss::fromShots(const std::vector<std::uint64_t> &shots) const
{
    if (shots.empty())
        return 0.0;
    double ones = 0.0;
    for (auto s : shots)
        ones += (s & 1) ? 1.0 : 0.0;
    const double p1 = ones / static_cast<double>(shots.size());
    const double d = p1 - _target;
    return d * d;
}

double
QnnLoss::fromMarginals(const std::vector<double> &p1) const
{
    if (p1.empty())
        sim::panic("QNN loss needs at least one marginal");
    const double d = p1[0] - _target;
    return d * d;
}

double
QnnLoss::fromBackend(quantum::Backend &b) const
{
    const double d = b.marginalOne(0) - _target;
    return d * d;
}

double
QnnLoss::opsPerShot() const
{
    // The loss itself is cheap per shot, but training evaluates the
    // prediction against every dataset sample (forward bookkeeping,
    // gradients of the loss head), multiplying the per-shot work.
    return 2.0 * static_cast<double>(_datasetSize) +
        0.5 * static_cast<double>(_numQubits);
}

} // namespace qtenon::vqa
