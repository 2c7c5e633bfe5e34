/**
 * @file
 * The Qtenon host runtime: executes a VQA trace against the modeled
 * tightly-coupled system, round by round, issuing the five ISA
 * operations to the controller and accounting the four-way time
 * breakdown. The software policies (sync method, transmission
 * schedule, compile mode) are pluggable so Fig. 13 and Fig. 16 can
 * ablate them.
 */

#ifndef QTENON_RUNTIME_EXECUTOR_HH
#define QTENON_RUNTIME_EXECUTOR_HH

#include <cstdint>
#include <vector>

#include "breakdown.hh"
#include "controller/controller.hh"
#include "host_core.hh"
#include "isa/compiler.hh"
#include "policies.hh"
#include "quantum/timing.hh"
#include "trace.hh"

namespace qtenon::runtime {

/** Executor knobs. */
struct ExecutorConfig {
    SoftwareConfig software;
    HostCoreModel host = HostCoreModel::rocket();
    quantum::GateTiming gateTiming;
    /**
     * Ablation override for the transmission interval K: 0 follows
     * the configured policy (Algorithm 1 or per-shot), any other
     * value forces that many shots per TileLink PUT.
     */
    std::uint64_t batchIntervalOverride = 0;
    /** Host-memory base where measurement batches land. */
    std::uint64_t hostMeasureBase = 0x1000'0000ull;
    /** Host-memory base the program image is staged at for q_set. */
    std::uint64_t hostProgramBase = 0x2000'0000ull;
};

/** Setup + summed-round results of a trace replay. */
struct ExecutionResult {
    TimeBreakdown setup;
    TimeBreakdown rounds;

    TimeBreakdown
    total() const
    {
        TimeBreakdown t = setup;
        t += rounds;
        return t;
    }
};

/** The runtime. */
class QtenonExecutor
{
  public:
    QtenonExecutor(sim::EventQueue &eq,
                   controller::QuantumController &ctrl,
                   isa::QtenonCompiler compiler, ExecutorConfig cfg);

    const ExecutorConfig &config() const { return _cfg; }

    /**
     * Install @p image: host compile + q_set of every qubit chunk +
     * regfile initialization + the initial full q_gen.
     */
    TimeBreakdown installProgram(const isa::ProgramImage &image);

    /**
     * Execute one evaluation round of @p trace: updates, q_gen,
     * q_run with the configured transmission schedule, host
     * post-processing under the configured sync policy, optimizer
     * step.
     *
     * @param shot_duration one shot's wall time on the quantum chip.
     */
    TimeBreakdown executeRound(const RoundRecord &round,
                               const isa::ProgramImage &image,
                               sim::Tick shot_duration);

    /** Replay an entire trace (install + all rounds). */
    ExecutionResult execute(const VqaTrace &trace,
                            sim::Tick shot_duration);

    /**
     * Deliver @p updates to the regfile over RoCC, advancing time
     * past each transfer: one q_update per update or, under the
     * vector ISA with a wave-annotated @p image, one q_update.v per
     * touched wave. Charges no host time. Panics on a vector-path
     * update outside every image wave.
     */
    void
    deliverUpdates(const isa::ProgramImage &image,
                   const isa::UpdatePlan &updates)
    {
        deliverUpdates(image, updates, waveSpans(image, updates));
    }

  private:
    /** The regfile slots one q_update.v spans; none when lo > hi. */
    struct WaveSpan {
        std::uint32_t lo = ~std::uint32_t(0);
        std::uint32_t hi = 0;
    };

    /**
     * Per image wave, the span of the slots @p updates changes; empty
     * when the plan goes out as scalar q_updates.
     */
    std::vector<WaveSpan> waveSpans(const isa::ProgramImage &image,
                                    const isa::UpdatePlan &updates) const;

    /** deliverUpdates with @p spans = waveSpans(image, updates). */
    void deliverUpdates(const isa::ProgramImage &image,
                        const isa::UpdatePlan &updates,
                        const std::vector<WaveSpan> &spans);

    /** Advance simulated time to @p t, draining due events. */
    void advanceTo(sim::Tick t);

    /** Drain every pending event. */
    void drain();

    /** q_set every qubit's chunk of @p image; wait for the last. */
    void setPrograms(const isa::ProgramImage &image);

    /** Record @p bd into the obs breakdown histograms + a span. */
    void observeBreakdown(const char *what, const TimeBreakdown &bd,
                          sim::Tick start);

    sim::EventQueue &_eq;
    controller::QuantumController &_ctrl;
    isa::QtenonCompiler _compiler;
    ExecutorConfig _cfg;
    bool _programInstalled = false;
    /** Lazily allocated trace-sink process id (0 = none yet). */
    std::uint32_t _tracePid = 0;
};

} // namespace qtenon::runtime

#endif // QTENON_RUNTIME_EXECUTOR_HH
