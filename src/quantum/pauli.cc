#include "pauli.hh"

#include <bit>
#include <cctype>
#include <complex>

#include "shot_planes.hh"
#include "sim/logging.hh"

namespace qtenon::quantum {

PauliString
PauliString::parse(const std::string &text)
{
    PauliString ps;
    std::size_t i = 0;
    while (i < text.size()) {
        if (std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
            continue;
        }
        Pauli op;
        switch (text[i]) {
          case 'I': op = Pauli::I; break;
          case 'X': op = Pauli::X; break;
          case 'Y': op = Pauli::Y; break;
          case 'Z': op = Pauli::Z; break;
          default:
            sim::fatal("bad Pauli letter '", text[i], "' in \"", text,
                       "\"");
        }
        ++i;
        if (op == Pauli::I) {
            // Identity factors carry no qubit index.
            continue;
        }
        std::size_t start = i;
        while (i < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        if (start == i)
            sim::fatal("missing qubit index in Pauli string \"", text,
                       "\"");
        auto q = static_cast<std::uint32_t>(
            std::stoul(text.substr(start, i - start)));
        ps.factors.push_back({q, op});
    }
    return ps;
}

std::string
PauliString::toString() const
{
    if (factors.empty())
        return "I";
    std::string out;
    for (const auto &f : factors) {
        if (!out.empty())
            out += ' ';
        switch (f.op) {
          case Pauli::I: out += 'I'; break;
          case Pauli::X: out += 'X'; break;
          case Pauli::Y: out += 'Y'; break;
          case Pauli::Z: out += 'Z'; break;
        }
        out += std::to_string(f.qubit);
    }
    return out;
}

bool
PauliString::isDiagonal() const
{
    for (const auto &f : factors) {
        if (f.op == Pauli::X || f.op == Pauli::Y)
            return false;
    }
    return true;
}

double
PauliString::diagonalEigenvalue(std::uint64_t bits) const
{
    return std::popcount(bits & parityMask()) % 2 ? -1.0 : 1.0;
}

std::uint64_t
PauliString::parityMask() const
{
    std::uint64_t mask = 0;
    for (const auto &f : factors) {
        if (f.op != Pauli::I)
            mask ^= ShotPlanes::bit(f.qubit);
    }
    return mask;
}

void
Hamiltonian::addTerm(double coefficient, PauliString string)
{
    for (const auto &f : string.factors) {
        if (f.qubit >= _numQubits) {
            sim::fatal("Pauli factor on qubit ", f.qubit,
                       " outside Hamiltonian of ", _numQubits, " qubits");
        }
    }
    // Drop explicit identity factors.
    std::vector<PauliString::Factor> kept;
    for (const auto &f : string.factors) {
        if (f.op != Pauli::I)
            kept.push_back(f);
    }
    string.factors = std::move(kept);
    if (string.factors.empty()) {
        _identityOffset += coefficient;
        return;
    }
    _terms.push_back({coefficient, std::move(string)});
}

double
Hamiltonian::termExpectation(const Term &t, const StateVector &sv) const
{
    // Compute <psi|P|psi> = sum_i conj(psi_i) * (P psi)_i without an
    // extra statevector: P maps basis |i> to phase(i) |i ^ flipmask|.
    std::uint64_t flip_mask = 0;
    for (const auto &f : t.string.factors) {
        if (f.op == Pauli::X || f.op == Pauli::Y)
            flip_mask |= std::uint64_t(1) << f.qubit;
    }

    std::complex<double> acc{0.0, 0.0};
    const std::uint64_t dim = std::uint64_t(1) << sv.numQubits();
    for (std::uint64_t j = 0; j < dim; ++j) {
        // Row i receives column j = i ^ flip_mask with a phase that
        // depends on j's bits.
        const std::uint64_t i = j ^ flip_mask;
        std::complex<double> phase{1.0, 0.0};
        for (const auto &f : t.string.factors) {
            const bool bit = j & (std::uint64_t(1) << f.qubit);
            switch (f.op) {
              case Pauli::I:
                break;
              case Pauli::X:
                break; // pure flip
              case Pauli::Y:
                // Y|0> = i|1>, Y|1> = -i|0>
                phase *= bit ? std::complex<double>{0.0, -1.0}
                             : std::complex<double>{0.0, 1.0};
                break;
              case Pauli::Z:
                if (bit)
                    phase = -phase;
                break;
            }
        }
        acc += std::conj(sv.amplitude(i)) * phase * sv.amplitude(j);
    }
    return t.coefficient * acc.real();
}

double
Hamiltonian::expectation(const StateVector &sv) const
{
    if (sv.numQubits() != _numQubits) {
        sim::panic("Hamiltonian on ", _numQubits,
                   " qubits applied to state of ", sv.numQubits());
    }
    double e = _identityOffset;
    for (const auto &t : _terms)
        e += termExpectation(t, sv);
    return e;
}

double
Hamiltonian::diagonalExpectationFromShots(
    const std::vector<std::uint64_t> &shots) const
{
    if (shots.empty())
        return _identityOffset;
    const ShotPlanes planes(shots);
    double e = 0.0;
    for (const auto &t : _terms) {
        if (!t.string.isDiagonal())
            continue;
        const auto sum = static_cast<double>(
            planes.paritySum(t.string.parityMask()));
        e += t.coefficient * sum / static_cast<double>(shots.size());
    }
    return e + _identityOffset;
}

} // namespace qtenon::quantum
