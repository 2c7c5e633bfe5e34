#include "evaluator.hh"

#include "sim/logging.hh"

namespace qtenon::vqa {

CostEvaluator::CostEvaluator(std::uint32_t num_qubits,
                             const EvaluatorConfig &cfg,
                             std::uint64_t seed)
    : _cfg(cfg),
      _backend(quantum::makeBackend(num_qubits, cfg.backend)),
      _rng(seed)
{
    if (!quantum::validReadoutError(cfg.readoutError))
        sim::fatal("readout flip probability must be in [0, ",
                   quantum::maxReadoutError, "], got ",
                   cfg.readoutError);
    if (cfg.injector) {
        _inj = cfg.injector;
        _readoutSite = _inj->site("readout");
        _flipRate = _inj->faults(_readoutSite).flip;
    }
}

std::vector<std::uint64_t>
CostEvaluator::sampleWithReadout()
{
    auto out = _backend->sample(_cfg.shots, _rng);
    const auto n = _backend->numQubits();
    quantum::applyReadoutError(out, n, _cfg.readoutError, _rng);
    if (_flipRate > 0.0) {
        // Injected flips draw from the injector's "readout" stream,
        // so each one is counted and traced.
        quantum::flipReadoutBits(out, n, [this] {
            return _inj->shouldFlipBit(_readoutSite);
        });
    }
    return out;
}

double
CostEvaluator::evaluate(const quantum::QuantumCircuit &c,
                        const CostFunction &cost,
                        const std::vector<double> &base,
                        std::vector<std::uint64_t> *shot_data)
{
    _backend->runFromBase(c, base);
    const auto n = _backend->numQubits();
    const bool exact_cost = _cfg.useExactCost && _backend->exact() &&
        n <= _cfg.backend.exactCap;

    if (shot_data != nullptr) {
        *shot_data = sampleWithReadout();
        return exact_cost ? cost.fromBackend(*_backend)
                          : cost.fromShots(*shot_data);
    }
    if (exact_cost)
        return cost.fromBackend(*_backend);
    if (n <= 64) {
        const auto shots = sampleWithReadout();
        return cost.fromShots(shots);
    }
    // Wide registers: evaluate from per-qubit marginals, with the
    // analytic readout-error adjustment.
    auto p1 = _backend->marginals();
    if (_cfg.readoutError > 0.0 || _flipRate > 0.0) {
        // Independent flip sources compose: 1-2e' = (1-2a)(1-2b).
        const double a = _cfg.readoutError;
        const double b = _flipRate;
        const double e = a + b - 2.0 * a * b;
        for (auto &p : p1)
            p = quantum::readoutMarginal(p, e);
    }
    return cost.fromMarginals(p1);
}

} // namespace qtenon::vqa
