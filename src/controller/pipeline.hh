/**
 * @file
 * The four-stage pulse-computation pipeline (paper Sec. 5.3, Fig. 6).
 *
 *   Stage 1  read the circuit definition from the Program Index
 *            Buffer (the .program segment) at the PC
 *   Stage 2  decode: fetch .regfile data when the R flag is set;
 *            when the entry's QAddress is invalid, query the SLT
 *            (hit -> skip generation; miss -> allocate)
 *   Stage 3  priority-encode a free PGU and dispatch; when all PGUs
 *            are busy, stall stages 1-2 (stage 4 is decoupled by a
 *            ready/valid interface)
 *   Stage 4  arbiter selects one finished PGU per cycle and writes
 *            the pulse's descriptor (PulseKey) to its .pulse QAddress
 *
 * The model is cycle-stepped in the pipeline clock domain with
 * fast-forwarding across cycles where every stage is blocked on PGU
 * completion, so large programs simulate quickly without losing
 * cycle accuracy.
 */

#ifndef QTENON_CONTROLLER_PIPELINE_HH
#define QTENON_CONTROLLER_PIPELINE_HH

#include <cstdint>
#include <vector>

#include "qcc.hh"
#include "slt.hh"
#include "sim/sim_object.hh"

namespace qtenon::controller {

/** Pipeline and PGU parameters (Table 4: 8 PGUs, 1000-cycle latency). */
struct PipelineConfig {
    std::uint32_t numPgus = 8;
    sim::Cycles pguLatency = 1000;
    /**
     * Ablation switch: with the SLT disabled every entry allocates a
     * fresh pulse slot and regenerates, as a controller without the
     * skip path would.
     */
    bool sltEnabled = true;
};

/** Aggregate result of one q_gen pipeline run. */
struct PipelineResult {
    sim::Cycles cycles = 0;
    std::uint64_t entriesProcessed = 0;
    std::uint64_t pulsesGenerated = 0;
    std::uint64_t sltHits = 0;
    std::uint64_t sltMisses = 0;
    std::uint64_t qspaceHits = 0;
    std::uint64_t skippedValid = 0;
    sim::Cycles pguStallCycles = 0;
    /**
     * Cycles each stage did useful work (fetch, decode+SLT, PGU
     * dispatch, arbiter writeback) — the per-stage decomposition the
     * observability layer turns into trace spans and histograms.
     */
    sim::Cycles stage1BusyCycles = 0;
    sim::Cycles stage2BusyCycles = 0;
    sim::Cycles stage3BusyCycles = 0;
    sim::Cycles stage4BusyCycles = 0;
    /**
     * PGU dispatches by the busy-PGU count right after them (index
     * 1..numPgus; index 0 stays 0): the pgu_occupancy records.
     */
    std::vector<std::uint64_t> dispatchesAtOccupancy;
    /** QCC SRAM accesses the run made (the QCC counts them too). */
    std::uint64_t programReads = 0;
    std::uint64_t programWrites = 0;
    std::uint64_t pulseWrites = 0;

    double
    skipRate() const
    {
        return entriesProcessed
            ? 1.0 - static_cast<double>(pulsesGenerated) /
                  static_cast<double>(entriesProcessed)
            : 0.0;
    }
};

/**
 * The pulse pipeline. Owns the PGU pool; borrows the QCC (for
 * .program/.regfile/.pulse state) and the SLT.
 */
class PulsePipeline
{
  public:
    PulsePipeline(QuantumControllerCache &qcc, SkipLookupTable &slt,
                  PipelineConfig cfg = PipelineConfig{});

    const PipelineConfig &config() const { return _cfg; }

    /**
     * Process the given .program QAddresses (one per gate needing
     * attention) and overwrite @p res with the cycle-level result,
     * reusing its storage. The QCC's program/pulse state is updated
     * in place.
     */
    void run(const std::vector<std::uint64_t> &work,
             PipelineResult &res);

  private:
    /** A decoded entry travelling between stages. */
    struct InFlight {
        std::uint64_t programQaddr = 0;
        std::uint32_t qubit = 0;
        ProgramEntry entry;
        std::uint64_t pulseQaddr = 0;
        /** Cycle at which stage 2 releases it (QSpace delays). */
        sim::Cycles readyCycle = 0;
    };

    /** One pulse generation unit. */
    struct Pgu {
        bool busy = false;
        sim::Cycles doneCycle = 0;
        std::uint64_t pulseQaddr = 0;
        std::uint64_t programQaddr = 0;
    };

    QuantumControllerCache &_qcc;
    SkipLookupTable &_slt;
    PipelineConfig _cfg;
    /** The PGU pool; every PGU is idle between runs. */
    std::vector<Pgu> _pgus;
    /**
     * Pulse QAddresses being generated (status Pending) during a
     * run: later entries hitting the same parameter must not
     * re-dispatch. Empty between runs.
     */
    std::vector<std::uint64_t> _inFlight;
};

} // namespace qtenon::controller

#endif // QTENON_CONTROLLER_PIPELINE_HH
