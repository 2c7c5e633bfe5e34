#include "mitigation.hh"

#include "sim/logging.hh"

namespace qtenon::vqa {

std::vector<ConfusionMatrix>
ReadoutMitigator::calibrate(const std::vector<std::uint64_t> &zero_shots,
                            const std::vector<std::uint64_t> &one_shots,
                            std::uint32_t num_qubits)
{
    if (num_qubits > 64)
        sim::fatal("calibration capped at 64 qubits (shot words)");
    if (zero_shots.empty() || one_shots.empty())
        sim::fatal("calibration needs shots of both prepared states");

    std::vector<ConfusionMatrix> out(num_qubits);
    for (std::uint32_t q = 0; q < num_qubits; ++q) {
        const std::uint64_t bit = std::uint64_t(1) << q;
        // Every 1 read from |0...0> is a 0->1 misread.
        double mis0 = 0.0;
        for (auto s : zero_shots)
            mis0 += (s & bit) ? 1.0 : 0.0;
        // Every 0 read from |1...1> is a 1->0 misread.
        double mis1 = 0.0;
        for (auto s : one_shots)
            mis1 += (s & bit) ? 0.0 : 1.0;
        out[q].p01 = mis0 / static_cast<double>(zero_shots.size());
        out[q].p10 = mis1 / static_cast<double>(one_shots.size());
    }
    return out;
}

std::vector<double>
ReadoutMitigator::correctedMarginals(
    const std::vector<std::uint64_t> &shots) const
{
    std::vector<double> p1(_confusion.size(), 0.0);
    if (shots.empty())
        return p1;
    for (auto s : shots) {
        for (std::size_t q = 0; q < _confusion.size(); ++q) {
            if (s & (std::uint64_t(1) << q))
                p1[q] += 1.0;
        }
    }
    for (std::size_t q = 0; q < _confusion.size(); ++q) {
        p1[q] /= static_cast<double>(shots.size());
        p1[q] = _confusion[q].correct(p1[q]);
    }
    return p1;
}

double
ReadoutMitigator::correctedExpectationZ(
    const std::vector<std::uint64_t> &shots, std::uint32_t q) const
{
    if (q >= _confusion.size())
        sim::panic("qubit ", q, " outside calibration");
    double ones = 0.0;
    for (auto s : shots)
        ones += (s & (std::uint64_t(1) << q)) ? 1.0 : 0.0;
    const double measured =
        shots.empty() ? 0.0 : ones / static_cast<double>(shots.size());
    return 1.0 - 2.0 * _confusion[q].correct(measured);
}

} // namespace qtenon::vqa
