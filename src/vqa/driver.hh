/**
 * @file
 * The VQA driver: runs the functional optimization loop once and
 * records a runtime::VqaTrace both timing models replay. This is the
 * highest-level entry point beneath the core/ facade.
 */

#ifndef QTENON_VQA_DRIVER_HH
#define QTENON_VQA_DRIVER_HH

#include <cstdint>

#include "fault/fault.hh"
#include "isa/pass/compile_cache.hh"
#include "optimizer.hh"
#include "quantum/backend.hh"
#include "runtime/trace.hh"
#include "workload.hh"

namespace qtenon::vqa {

/** Driver parameters (paper defaults: 500 shots, 10 iterations). */
struct DriverConfig {
    std::uint64_t shots = 500;
    std::uint32_t iterations = 10;
    OptimizerKind optimizer = OptimizerKind::GradientDescent;
    std::uint64_t seed = 7;
    /** Statevector cap; beyond it the mean-field engine is used. */
    std::uint32_t exactCap = 20;
    /** Functional engine; Auto applies the exactCap policy. */
    quantum::BackendKind backend = quantum::BackendKind::Auto;
    /** Statevector kernel tuning (gate fusion, worker threads). */
    quantum::KernelConfig kernel;
    /** Store per-shot readout words in the trace (n <= 64 only). */
    bool recordShotData = true;
    /**
     * Evaluate the cost exactly from the statevector (all bases,
     * including non-diagonal Hamiltonian terms) instead of from the
     * sampled diagonal readout. Requires n <= exactCap. Shots are
     * still drawn for the timing trace.
     */
    bool useExactCost = false;
    /** Per-qubit readout bit-flip probability in
     *  [0, quantum::maxReadoutError] (0 = ideal). */
    double readoutError = 0.0;
    /**
     * Optional fault injection (not owned). Site "eval" makes whole
     * cost evaluations fail (drop) or come back detectably corrupted
     * (corrupt); each failed attempt still costs a full round in the
     * timing trace (the shots ran, the result was lost) and is
     * re-queued under `evalRetry`. A job that exhausts the budget
     * discards the evaluation and falls back to the last good cost,
     * which is gradient-safe for both GD (zero contribution) and
     * SPSA (bounded symmetric difference). Site "readout" adds
     * measurement bit flips (see EvaluatorConfig::injector).
     */
    fault::FaultInjector *injector = nullptr;
    /** Evaluation re-queue budget when faults are injected. */
    fault::RetryPolicy evalRetry{.maxAttempts = 3};
    /**
     * Optional content-addressed compile cache (not owned). When
     * set, the trace's program image is served from the cache on a
     * structural hit; images are byte-identical either way, so this
     * is excluded from canonicalText like the injector.
     */
    isa::CompileCache *compileCache = nullptr;
    /**
     * Compile the trace image with the vector-packing pass
     * (`--isa-vector`): the image carries q_update.v / q_gen.v wave
     * annotations the runtime's vector dispatch needs. Off keeps the
     * byte-stable scalar image and the historical cache keys.
     */
    bool isaVector = false;
};

/**
 * Canonical textual form of every DriverConfig field that can alter
 * a job's functional or recorded outcome: shots, iterations,
 * optimizer, seed, exact cap, backend kind, kernel knobs (fusion and
 * SIMD mode are included even though they are bit-identical by
 * contract — the cache key is deliberately conservative), exact-cost
 * mode, readout error (raw IEEE-754 bits), and shot-data recording.
 * The fault injector pointer is excluded; the owning JobSpec's
 * FaultSpec canonicalizes separately. Used by the daemon's
 * content-addressed result-cache key.
 */
std::string canonicalText(const DriverConfig &cfg);

/** Runs workloads functionally and produces timing traces. */
class VqaDriver
{
  public:
    explicit VqaDriver(DriverConfig cfg = DriverConfig{}) : _cfg(cfg) {}

    const DriverConfig &config() const { return _cfg; }

    /**
     * Optimize @p w for the configured iterations, recording one
     * RoundRecord per cost evaluation. The workload's circuit
     * parameters are updated in place.
     */
    runtime::VqaTrace run(Workload &w);

  private:
    DriverConfig _cfg;
};

} // namespace qtenon::vqa

#endif // QTENON_VQA_DRIVER_HH
