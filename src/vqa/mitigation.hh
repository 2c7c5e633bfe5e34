/**
 * @file
 * Readout-error mitigation by confusion-matrix inversion.
 *
 * With independent per-qubit assignment errors, the measured
 * excitation probability relates to the true one through a 2x2
 * confusion matrix; calibrating that matrix (by preparing |0> and
 * |1> and counting misreads) lets the host unfold marginals and
 * expectation values classically - post-processing that Qtenon's
 * tight coupling makes cheap enough to run inside the optimization
 * loop (cf. the measurement-error-mitigation line of work the paper
 * cites, e.g. VarSaw).
 */

#ifndef QTENON_VQA_MITIGATION_HH
#define QTENON_VQA_MITIGATION_HH

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace qtenon::vqa {

/** Per-qubit 2x2 confusion model: P(read r | true t). */
struct ConfusionMatrix {
    /** P(read 1 | true 0). */
    double p01 = 0.0;
    /** P(read 0 | true 1). */
    double p10 = 0.0;

    /** Unfold a measured P(read 1) into the true P(1). */
    double
    correct(double measured_p1) const
    {
        // measured = true*(1-p10) + (1-true)*p01
        const double denom = 1.0 - p01 - p10;
        if (denom <= 1e-9)
            return measured_p1; // non-invertible; give up gracefully
        double t = (measured_p1 - p01) / denom;
        return std::min(1.0, std::max(0.0, t));
    }

    /** Unfold a measured <Z> likewise. */
    double
    correctZ(double measured_z) const
    {
        return 1.0 - 2.0 * correct((1.0 - measured_z) / 2.0);
    }
};

/** Calibration + correction driver. */
class ReadoutMitigator
{
  public:
    /**
     * Calibrate per-qubit confusion matrices from the shot words
     * measured on prepared |0...0> (@p zero_shots) and |1...1>
     * (@p one_shots) states of a @p num_qubits register.
     */
    static std::vector<ConfusionMatrix> calibrate(
        const std::vector<std::uint64_t> &zero_shots,
        const std::vector<std::uint64_t> &one_shots,
        std::uint32_t num_qubits);

    explicit ReadoutMitigator(std::vector<ConfusionMatrix> confusion)
        : _confusion(std::move(confusion))
    {}

    const std::vector<ConfusionMatrix> &confusion() const
    {
        return _confusion;
    }

    /** Corrected per-qubit P(1) estimates from raw shot words. */
    std::vector<double> correctedMarginals(
        const std::vector<std::uint64_t> &shots) const;

    /** Corrected <Z_q> from raw shot words. */
    double correctedExpectationZ(
        const std::vector<std::uint64_t> &shots,
        std::uint32_t q) const;

  private:
    std::vector<ConfusionMatrix> _confusion;
};

} // namespace qtenon::vqa

#endif // QTENON_VQA_MITIGATION_HH
