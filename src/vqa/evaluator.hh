/**
 * @file
 * The cost evaluator: one owned quantum::Backend + one RNG stream,
 * turning a parameterized circuit into a cost value per optimizer
 * round. This used to live as three near-identical inline paths in
 * the driver (sampled, exact, large-register marginal), each building
 * its own simulator per evaluation; the evaluator allocates the
 * backend once per job and reset()s it in place every round.
 */

#ifndef QTENON_VQA_EVALUATOR_HH
#define QTENON_VQA_EVALUATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cost.hh"
#include "fault/fault.hh"
#include "quantum/backend.hh"
#include "quantum/circuit.hh"
#include "sim/random.hh"

namespace qtenon::vqa {

/** Evaluation policy (a subset of DriverConfig, backend-facing). */
struct EvaluatorConfig {
    /** Engine selection + statevector kernel tuning. */
    quantum::BackendConfig backend;
    std::uint64_t shots = 500;
    /**
     * Evaluate the cost from backend expectation values (all bases)
     * instead of the sampled diagonal readout. Only honoured on
     * exact engines within the exact cap.
     */
    bool useExactCost = false;
    /** Per-qubit readout bit-flip probability in
     *  [0, quantum::maxReadoutError] (0 = ideal). */
    double readoutError = 0.0;
    /** Optional fault injection (not owned): site "readout" adds
     *  injector-driven measurement bit flips on top of readoutError,
     *  drawn from the injector's own stream so they are counted. */
    fault::FaultInjector *injector = nullptr;
};

/**
 * Evaluates a cost function against circuits on one backend chosen by
 * the selection policy at construction. The same instance serves
 * every optimizer round of a job: run() resets the state in place,
 * so there is no per-evaluation 2^n allocation.
 */
class CostEvaluator
{
  public:
    CostEvaluator(std::uint32_t num_qubits, const EvaluatorConfig &cfg,
                  std::uint64_t seed);

    /**
     * Execute @p c on the backend and evaluate @p cost. When
     * @p shot_data is non-null, readout words are drawn (and stored
     * there) and the cost comes from them — unless exact-cost mode is
     * active, which still draws the shots for the timing trace but
     * scores from expectation values. When @p shot_data is null the
     * cost comes from expectation values (exact mode), sampled words
     * (n <= 64), or per-qubit marginals (wide registers), matching
     * the historical driver paths.
     * @p base is the optimizer iteration's starting point; the
     * backend runs @p c through Backend::runFromBase(c, base).
     */
    double evaluate(const quantum::QuantumCircuit &c,
                    const CostFunction &cost,
                    const std::vector<double> &base,
                    std::vector<std::uint64_t> *shot_data = nullptr);

    quantum::Backend &backend() { return *_backend; }
    const quantum::Backend &backend() const { return *_backend; }
    sim::Rng &rng() { return _rng; }

  private:
    /** Sample the prepared backend, applying readout flips if any. */
    std::vector<std::uint64_t> sampleWithReadout();

    EvaluatorConfig _cfg;
    std::unique_ptr<quantum::Backend> _backend;
    sim::Rng _rng;
    fault::FaultInjector *_inj = nullptr;
    fault::SiteId _readoutSite = 0;
    /** Injected per-bit flip rate (cached from the spec). */
    double _flipRate = 0.0;
};

} // namespace qtenon::vqa

#endif // QTENON_VQA_EVALUATOR_HH
