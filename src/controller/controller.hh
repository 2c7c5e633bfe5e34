/**
 * @file
 * The Qtenon quantum controller (paper Sec. 5.2): ties together the
 * QCC, the per-qubit SLTs, the pulse pipeline, the RBQ/WBQ bus
 * machinery, the soft memory barrier, and the ADI, and exposes the
 * operations the five ISA instructions map onto:
 *
 *   data path 1  roccWrite / roccRead (host register <-> public QCC)
 *   data path 2  dmaSet / dmaAcquire  (host L2 <-> public QCC)
 *   data path 3  QSpace traffic inside the SLT (host L2 <-> private)
 *   data path 4  the ADI toward the quantum chip
 */

#ifndef QTENON_CONTROLLER_CONTROLLER_HH
#define QTENON_CONTROLLER_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "adi.hh"
#include "barrier.hh"
#include "memory/tilelink.hh"
#include "pipeline.hh"
#include "qcc.hh"
#include "rbq.hh"
#include "slt.hh"

namespace qtenon::controller {

/** Complete controller configuration. */
struct ControllerConfig {
    memory::QccLayout layout;
    SltConfig slt;
    PipelineConfig pipeline;
    AdiConfig adi;
    /** Core-side clock (RoCC, pipeline). */
    std::uint64_t coreFreqHz = 1'000'000'000ull;
    /** QCC SRAM clock. */
    std::uint64_t sramFreqHz = 200'000'000ull;
    /** Host-memory footprint of one serialized program entry. */
    std::uint32_t programEntryHostBytes = 12;
    /** Bus chunk used for DMA transfers. */
    std::uint32_t dmaChunkBytes = 64;
};

/**
 * A q_acquire's completion, owned by the caller and tallied by the
 * transfer's bus responses. It must stay put until they have all
 * arrived.
 */
struct AcquireTally {
    /** Chunks whose bus response is still outstanding. */
    std::uint64_t remaining = 0;
    /** Latest chunk completion tick: the transfer's, once
     *  `remaining` is 0. */
    sim::Tick done = 0;
};

/**
 * A q_set's completion, owned by the caller and tallied by the
 * transfer's bus responses. It and the entries must stay put until
 * they have all arrived.
 */
struct SetTally {
    /** Chunks whose bus response is still outstanding. */
    std::uint64_t remaining = 0;
    std::uint32_t qubit = 0;
    /** The entries installed when the last chunk lands. */
    std::span<const ProgramEntry> entries;
    /** When the WBQ has drained, set once `remaining` is 0. */
    sim::Tick done = 0;
};

/**
 * One job's q_gen results, shared by the controllers that replay the
 * same trace (service::runJobSpec's hosts). The first controller to
 * share an empty log leads: its n-th q_gen runs the pipeline and
 * appends the result. A controller that shares a filled log follows:
 * its n-th q_gen recalls the n-th result instead. This is exact
 * because q_gen is functional state only: the host model moves
 * neither the work lists nor the QCC and SLT contents, and the
 * pipeline touches neither the bus nor the ADI.
 *
 * Each entry keeps its work list's length and word FNV-1a; a recall
 * whose work list differs panics. Controllers use a log one at a
 * time: a follower must not pass its leader's progress.
 */
class QgenLog
{
  public:
    /** Logged q_gen runs. */
    std::size_t size() const { return _entries.size(); }

  private:
    friend class QuantumController;

    struct Entry {
        PipelineResult result;
        std::size_t workLen;
        std::uint64_t workHash;
    };

    std::vector<Entry> _entries;
};

/** The controller proper. */
class QuantumController : public sim::Clocked
{
  public:
    QuantumController(sim::EventQueue &eq, std::string name,
                      ControllerConfig cfg, memory::TileLinkBus *bus);

    /** Publishes the counts below into obs (when enabled). */
    ~QuantumController() override;

    const ControllerConfig &config() const { return _cfg; }
    QuantumControllerCache &qcc() { return *_qcc; }
    SkipLookupTable &slt() { return _slt; }
    MemoryBarrier &barrier() { return _barrier; }
    const AdiModel &adi() const { return _adi; }
    PulsePipeline &pipeline() { return *_pipeline; }

    /** The ADI's `link::Channel` view (injection site "adi"). */
    AdiChannel &adiChannel() { return _adiIn; }

    /** Attach fault injection to the ADI readout path. */
    void
    attachAdiInjector(fault::FaultInjector *inj)
    {
        _adiIn.attachInjector(inj);
    }

    /**
     * Readout-path ADI latency for one transfer, including injected
     * jitter. Identical to `adi().inputLatency()` when no injector
     * is attached.
     */
    sim::Tick adiInputLatency() { return _adiIn.sampleLatency(0); }

    /** @name Data path 1: RoCC register transfers (1 cycle, 64-bit) */
    /// @{

    /**
     * q_update: write @p data to public QAddress @p qaddr. Returns the
     * completion tick. Regfile writes invalidate dependent program
     * entries so the next q_gen regenerates their pulses.
     */
    sim::Tick roccWrite(std::uint64_t qaddr, std::uint64_t data);

    /**
     * q_update.v: one RoCC transfer delivering @p values to regfile
     * QAddresses base, base + stride, ... Lanes whose value matches
     * the current regfile contents are skipped — they neither touch
     * the SRAM nor invalidate dependents, so the stale set equals
     * the scalar path's for the same effective update. Timing: one
     * dispatch cycle plus one cycle per two 32-bit elements on the
     * 64-bit operand path.
     */
    sim::Tick roccWriteVector(std::uint64_t base_qaddr,
                              std::uint32_t stride,
                              const std::vector<std::uint32_t> &values);

    /** Read a public QAddress over RoCC. */
    sim::Tick roccRead(std::uint64_t qaddr, std::uint64_t &data) const;

    /**
     * Non-blocking barrier query (single cycle): may the host read
     * [host_addr, host_addr + size)?
     */
    bool barrierQuery(std::uint64_t host_addr, std::uint64_t size);
    /// @}

    /** @name Data path 2: bulk DMA via the system bus */
    /// @{

    /**
     * q_set: install @p entries at the program chunk of @p qubit,
     * transferring from host memory at @p host_addr. The RBQ realigns
     * out-of-order bus responses and the WBQ staging drains into the
     * SRAM at one 32-bit word per SRAM cycle. The transfer fills
     * @p tally (reset here). Allocates nothing.
     */
    void dmaSetProgram(std::uint64_t host_addr, std::uint32_t qubit,
                       std::span<const ProgramEntry> entries,
                       SetTally &tally);

    /**
     * q_acquire: transfer @p num_entries of .measure to host memory
     * at @p host_addr. Marks the host range synced in the barrier as
     * each PUT leaves on the bus, and tallies the PUTs' responses in
     * @p tally (reset here). Allocates nothing.
     */
    void dmaAcquire(std::uint64_t host_addr, std::uint32_t num_entries,
                    AcquireTally &tally);
    /// @}

    /** @name Computation */
    /// @{

    /**
     * q_gen over explicit work items. Returns the finish tick; no
     * event may be pending when it starts, so advancing to that tick
     * is exact.
     */
    sim::Tick generate(const std::vector<std::uint64_t> &work);

    /** q_gen over every installed program entry. */
    sim::Tick generateAll() { return generate(_qcc->installedPrograms()); }

    /** The last q_gen's result, valid until the next q_gen. */
    const PipelineResult &qgenResult() const { return *_qgenResult; }

    /**
     * Share @p log's q_gen results (see QgenLog): lead when it is
     * empty, else follow. Call before the first q_gen.
     */
    void shareQgen(QgenLog *log);
    /// @}

    /** Functional helper: record one shot's readout in .measure. */
    void recordMeasurement(std::uint32_t entry, std::uint64_t bits);

    /** Register that regfile slot @p reg feeds program @p qaddr. */
    void linkRegfile(std::uint32_t reg, std::uint64_t program_qaddr);

    /** Clear the regfile->program dependency map. */
    void clearRegfileLinks();

    /**
     * Invalidated-but-installed entries awaiting regeneration, in
     * ascending QAddress order without duplicates.
     */
    std::vector<std::uint64_t> staleProgramEntries() const;

    /** @name Statistics */
    /// @{
    /** RoCC register transfers (roccRead is const, hence mutable). */
    mutable sim::Count roccTransfers;
    /** Regfile elements moved by q_update.v. */
    sim::Count roccVectorElements;
    /** Bytes moved by q_set. */
    sim::Count setBytes;
    /** Bytes moved by q_acquire. */
    sim::Count acquireBytes;
    /** q_gen pipeline invocations. */
    sim::Count generateRuns;
    /** Control pulses produced by PGUs. */
    sim::Count pulsesGenerated;
    /** Host barrier queries over RoCC. */
    sim::Count barrierQueries;
    /// @}

  private:
    /** Drain one q_set beat through the WBQ (RBQ in-order delivery). */
    void drainSetBeat(const memory::BusResponse &r);

    /**
     * Regfile slot @p reg changed: invalidate and mark stale every
     * program entry linked to it.
     */
    void invalidateDependents(std::uint32_t reg);

    /** Mark .program entry @p qaddr stale. */
    void markStale(std::uint64_t qaddr);
    /** Drop every stale mark (q_gen consumed them). */
    void clearStale();

    /**
     * The q_gen result for @p work: the pipeline's, or the shared
     * log's when this controller follows.
     */
    const PipelineResult &
    runOrRecall(const std::vector<std::uint64_t> &work);

    /** Flush per-run q_gen obs metrics and emit per-stage spans. */
    void observeGenerate(const PipelineResult &result, sim::Tick fin);

    ControllerConfig _cfg;
    memory::TileLinkBus *_bus;
    sim::ClockDomain _sramClock;
    std::unique_ptr<QuantumControllerCache> _qcc;
    SkipLookupTable _slt;
    std::unique_ptr<PulsePipeline> _pipeline;
    MemoryBarrier _barrier;
    AdiModel _adi;
    AdiChannel _adiIn;
    ReorderBufferQueue<memory::BusResponse> _rbq;
    /**
     * The Write Buffer Queue, modelled by its drain horizon: the tick
     * its eight 32-bit lanes have emptied into the SRAM.
     */
    sim::Tick _wbqDrainFree = 0;
    /** Dependent program entries, indexed by regfile slot. */
    std::vector<std::vector<std::uint64_t>> _regfileLinks;
    /**
     * Program entries invalidated by q_update since the last q_gen:
     * one bit per .program index, so the list comes out in address
     * order without a sort. Bit w of _staleSummary is set iff
     * _staleBits word w may be nonzero, so a sparse stale set spread
     * over every qubit visits only its marked words.
     */
    std::vector<std::uint64_t> _staleBits;
    std::vector<std::uint64_t> _staleSummary;
    /** Lazily allocated trace-sink process id (0 = none yet). */
    std::uint32_t _tracePid = 0;
    /** Reused by every q_gen that runs the pipeline without a log. */
    PipelineResult _ownResult;
    /** The last q_gen's result: _ownResult or a log entry. */
    const PipelineResult *_qgenResult = &_ownResult;
    /** The shared q_gen log (none: every q_gen runs the pipeline). */
    QgenLog *_qgenLog = nullptr;
    /** Whether this controller recalls, and the entry it recalls
     *  next. */
    bool _qgenFollows = false;
    std::size_t _qgenNext = 0;
};

} // namespace qtenon::controller

#endif // QTENON_CONTROLLER_CONTROLLER_HH
