#include "controller.hh"

#include <algorithm>
#include <bit>

#include "core/hash.hh"
#include "obs/metrics.hh"
#include "obs/trace_sink.hh"
#include "sim/logging.hh"

namespace qtenon::controller {

QuantumController::QuantumController(sim::EventQueue &eq,
                                     std::string name,
                                     ControllerConfig cfg,
                                     memory::TileLinkBus *bus)
    : Clocked(eq, name, sim::ClockDomain::fromHz(cfg.coreFreqHz)),
      _cfg(cfg), _bus(bus),
      _sramClock(sim::ClockDomain::fromHz(cfg.sramFreqHz)),
      _slt(cfg.layout.numQubits, cfg.slt), _adi(cfg.adi),
      _adiIn(AdiModel(cfg.adi), AdiChannel::Direction::Input)
{
    if (!bus)
        sim::fatal("controller '", name, "' needs a system bus");
    _qcc = std::make_unique<QuantumControllerCache>(
        eq, name + ".qcc", _sramClock, cfg.layout);
    _pipeline = std::make_unique<PulsePipeline>(*_qcc, _slt,
                                                cfg.pipeline);
    _regfileLinks.resize(cfg.layout.regfileEntries);
    _staleBits.assign((cfg.layout.programEnd() + 63) / 64, 0);
    _staleSummary.assign((_staleBits.size() + 63) / 64, 0);
}

QuantumController::~QuantumController()
{
    const auto runs = generateRuns.value();
    obs::publish({
        {"controller.rocc.transfers", "RoCC register transfers",
         roccTransfers.value()},
        {"controller.rocc.vector_elements",
         "regfile elements moved by q_update.v",
         roccVectorElements.value()},
        {"controller.dma.set_bytes", "bytes moved by q_set",
         setBytes.value()},
        {"controller.dma.acquire_bytes", "bytes moved by q_acquire",
         acquireBytes.value()},
        {"controller.pipeline.runs", "q_gen pipeline invocations", runs},
        // A q_gen that skipped every entry still reports 0 pulses.
        {"controller.pipeline.pulses_generated", "pulses produced by PGUs",
         pulsesGenerated.value(), runs != 0},
        // The pipeline is the SLT's only client.
        {"controller.slt.hits", "SLT skip-lookup hits", _slt.hits,
         runs != 0},
        {"controller.slt.misses", "SLT skip-lookup misses", _slt.misses,
         runs != 0},
        {"controller.slt.qspace_hits", "SLT lookups served from QSpace",
         _slt.qspaceHits, runs != 0},
    });
}

sim::Tick
QuantumController::roccWrite(std::uint64_t qaddr, std::uint64_t data)
{
    if (!_qcc->userAccessible(qaddr))
        sim::fatal("q_update to non-public QAddress 0x", std::hex,
                   qaddr);
    ++roccTransfers;

    const auto seg = _cfg.layout.segmentOf(qaddr);
    if (seg == memory::QccSegment::Regfile) {
        const auto reg = static_cast<std::uint32_t>(
            qaddr - _cfg.layout.regfileBase());
        _qcc->writeRegfile(reg, static_cast<std::uint32_t>(data));
        // Invalidate dependent program entries: their pulses must be
        // regenerated at the next q_gen.
        invalidateDependents(reg);
    } else if (seg == memory::QccSegment::Program) {
        // Direct program-entry rewrite over RoCC (low 64 bits of the
        // 65-bit entry; the top type bit rides in data path metadata).
        auto e = ProgramEntry::unpack(data, 0);
        _qcc->writeProgram(qaddr, e);
        markStale(qaddr);
    } else {
        sim::fatal("q_update targets .regfile or .program, got "
                   "segment ", int(seg));
    }
    // One core cycle, per the paper's RoCC path.
    return clockEdge(1);
}

sim::Tick
QuantumController::roccWriteVector(
    std::uint64_t base_qaddr, std::uint32_t stride,
    const std::vector<std::uint32_t> &values)
{
    if (stride == 0)
        sim::fatal("q_update.v with stride 0");
    if (values.empty())
        sim::fatal("q_update.v with an empty element vector");

    // One instruction, one RoCC transfer — the whole point of the
    // vector form.
    ++roccTransfers;
    roccVectorElements += values.size();

    for (std::size_t i = 0; i < values.size(); ++i) {
        const std::uint64_t qaddr = base_qaddr + i * stride;
        if (!_qcc->userAccessible(qaddr))
            sim::fatal("q_update.v lane to non-public QAddress 0x",
                       std::hex, qaddr);
        if (_cfg.layout.segmentOf(qaddr) != memory::QccSegment::Regfile)
            sim::fatal("q_update.v targets .regfile, got QAddress 0x",
                       std::hex, qaddr);
        const auto reg = static_cast<std::uint32_t>(
            qaddr - _cfg.layout.regfileBase());
        // Write-if-different: unchanged lanes neither touch the SRAM
        // nor invalidate dependents, keeping the stale set identical
        // to an equivalent scalar q_update sequence.
        if (_qcc->readRegfile(reg) == values[i])
            continue;
        _qcc->writeRegfile(reg, values[i]);
        invalidateDependents(reg);
    }
    // Dispatch cycle plus two 32-bit elements per cycle over the
    // 64-bit RoCC operand path.
    return clockEdge(1 + (values.size() + 1) / 2);
}

sim::Tick
QuantumController::roccRead(std::uint64_t qaddr,
                            std::uint64_t &data) const
{
    if (!_qcc->userAccessible(qaddr))
        sim::fatal("RoCC read from non-public QAddress 0x", std::hex,
                   qaddr);
    ++roccTransfers;

    const auto seg = _cfg.layout.segmentOf(qaddr);
    if (seg == memory::QccSegment::Measure) {
        data = _qcc->readMeasure(static_cast<std::uint32_t>(
            qaddr - _cfg.layout.measureBase()));
    } else if (seg == memory::QccSegment::Regfile) {
        data = _qcc->readRegfile(static_cast<std::uint32_t>(
            qaddr - _cfg.layout.regfileBase()));
    } else {
        std::uint64_t lo, hi;
        _qcc->readProgram(qaddr).pack(lo, hi);
        data = lo;
    }
    return clockEdge(1);
}

bool
QuantumController::barrierQuery(std::uint64_t host_addr,
                                std::uint64_t size)
{
    ++barrierQueries;
    return _barrier.query(host_addr, size);
}

void
QuantumController::dmaSetProgram(std::uint64_t host_addr,
                                 std::uint32_t qubit,
                                 std::span<const ProgramEntry> entries,
                                 SetTally &tally)
{
    const auto &layout = _cfg.layout;
    if (qubit >= layout.numQubits)
        sim::fatal("q_set on out-of-range qubit ", qubit);
    if (entries.size() > layout.programEntriesPerQubit)
        sim::fatal("q_set of ", entries.size(),
                   " entries exceeds the program chunk");

    const std::uint64_t total_bytes =
        entries.size() * _cfg.programEntryHostBytes;
    setBytes += total_bytes;

    const std::uint32_t chunk = _cfg.dmaChunkBytes;
    const std::uint64_t num_chunks =
        std::max<std::uint64_t>(1, (total_bytes + chunk - 1) / chunk);

    // The entries install when the last chunk lands; timing is
    // carried by the bus events.
    tally = {num_chunks, qubit, entries, 0};

    for (std::uint64_t c = 0; c < num_chunks; ++c) {
        memory::MemPacket pkt;
        pkt.cmd = memory::MemCmd::Read;
        pkt.addr = host_addr + c * chunk;
        pkt.size = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunk, total_bytes - c * chunk));

        // Two pointers, which std::function holds without
        // allocating.
        _bus->accessTagged(pkt,
            [this, &tally](const memory::BusResponse &resp) {
                _rbq.arrive(resp.tag, resp,
                    [this](std::uint8_t, const memory::BusResponse &r) {
                        drainSetBeat(r);
                    });
                if (--tally.remaining == 0) {
                    // Install entries and finish when the WBQ drains.
                    const auto &layout = _cfg.layout;
                    for (std::size_t i = 0; i < tally.entries.size(); ++i) {
                        _qcc->writeProgram(
                            layout.programAddr(
                                tally.qubit, static_cast<std::uint32_t>(i)),
                            tally.entries[i]);
                    }
                    _qcc->setProgramLength(
                        tally.qubit,
                        static_cast<std::uint32_t>(tally.entries.size()));
                    tally.done = std::max(curTick(), _wbqDrainFree);
                }
            },
            [this](std::uint8_t tag, sim::Tick,
                   const memory::MemPacket &) {
                _rbq.expect(tag);
                if (obs::metricsEnabled()) {
                    static auto &rq_occ = obs::histogram(
                        "controller.rbq.tag_occupancy",
                        "in-flight RBQ tags after each expect");
                    rq_occ.record(_rbq.pending());
                }
            });
    }
}

void
QuantumController::drainSetBeat(const memory::BusResponse &r)
{
    // The beat's words queue behind the WBQ backlog and drain into
    // the SRAM one word per cycle.
    const std::uint32_t words = (r.pkt.size + 3) / 4;
    const sim::Tick start = std::max(r.completed, _wbqDrainFree);
    _wbqDrainFree = start + _sramClock.cyclesToTicks(words);
    if (obs::metricsEnabled()) {
        static auto &wq_words = obs::counter(
            "controller.wbq.drained_words",
            "32-bit words drained into the SRAM");
        static auto &wq_wait = obs::histogram(
            "controller.wbq.drain_wait_ticks",
            "beat arrival to drain-start backlog");
        wq_words.add(words);
        wq_wait.record(start - r.completed);
    }
}

void
QuantumController::dmaAcquire(std::uint64_t host_addr,
                              std::uint32_t num_entries,
                              AcquireTally &tally)
{
    const std::uint64_t total_bytes = std::uint64_t(num_entries) *
        memory::QccLayout::measureEntryBits / 8;
    acquireBytes += total_bytes;

    // Read the .measure SRAM (port-serialized), then PUT to host.
    _qcc->portAccess(num_entries);

    const std::uint32_t chunk = _cfg.dmaChunkBytes;
    const std::uint64_t num_chunks =
        std::max<std::uint64_t>(1, (total_bytes + chunk - 1) / chunk);
    tally = {num_chunks, 0};

    for (std::uint64_t c = 0; c < num_chunks; ++c) {
        memory::MemPacket pkt;
        pkt.cmd = memory::MemCmd::Write;
        pkt.addr = host_addr + c * chunk;
        pkt.size = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunk, total_bytes - c * chunk));

        // Both callbacks capture one pointer, which std::function
        // holds without allocating.
        _bus->accessTagged(pkt,
            [&tally](const memory::BusResponse &resp) {
                tally.done = std::max(tally.done, resp.completed);
                --tally.remaining;
            },
            [this](std::uint8_t, sim::Tick,
                   const memory::MemPacket &put) {
                // The barrier goes valid once the PUT has been sent
                // through the system bus (Sec. 6.2).
                _barrier.markSynced(put.addr, put.size);
            });
    }
}

sim::Tick
QuantumController::generate(const std::vector<std::uint64_t> &work)
{
    // The caller advances to the returned tick, where a completion
    // event would have fired: nothing else may fire before it.
    if (!eventq().empty())
        sim::panic("q_gen with ", eventq().size(), " events pending");
    ++generateRuns;
    const auto &result = runOrRecall(work);
    _qgenResult = &result;
    pulsesGenerated += result.pulsesGenerated;
    clearStale();
    const sim::Tick fin = clockEdge(result.cycles);
    observeGenerate(result, fin);
    return fin;
}

void
QuantumController::shareQgen(QgenLog *log)
{
    _qgenLog = log;
    _qgenFollows = log && log->size() != 0;
    _qgenNext = 0;
}

const PipelineResult &
QuantumController::runOrRecall(const std::vector<std::uint64_t> &work)
{
    if (!_qgenLog) {
        _pipeline->run(work, _ownResult);
        return _ownResult;
    }
    auto &log = _qgenLog->_entries;
    const auto hash = core::fnv1aWords(work.data(), work.size());
    if (!_qgenFollows) {
        auto &entry = log.emplace_back();
        entry.workLen = work.size();
        entry.workHash = hash;
        _pipeline->run(work, entry.result);
        return entry.result;
    }
    if (_qgenNext >= log.size() || log[_qgenNext].workLen != work.size() ||
        log[_qgenNext].workHash != hash)
        sim::panic("q_gen recall ", _qgenNext, " of ", log.size(),
                   " does not match the logged work list");
    const auto &result = log[_qgenNext++].result;
    // Leave this controller's counters and .program statuses as the
    // logged run left its leader's.
    _slt.hits += result.sltHits;
    _slt.misses += result.sltMisses;
    _slt.qspaceHits += result.qspaceHits;
    _qcc->programReads += result.programReads;
    _qcc->programWrites += result.programWrites;
    _qcc->pulseWrites += result.pulseWrites;
    _qcc->markProgramValid(work);
    return result;
}

void
QuantumController::observeGenerate(const PipelineResult &result,
                                   sim::Tick fin)
{
    if (obs::metricsEnabled()) {
        static auto &cycles = obs::counter(
            "controller.pipeline.cycles",
            "pipeline cycles across all q_gen runs");
        static auto &entries = obs::counter(
            "controller.pipeline.entries",
            "program entries processed");
        static auto &skipped = obs::counter(
            "controller.pipeline.skipped_valid",
            "entries skipped with a valid pulse");
        static auto &stalls = obs::counter(
            "controller.pipeline.pgu_stall_cycles",
            "cycles stage 3 stalled on busy PGUs");
        static auto &s1 = obs::counter(
            "controller.pipeline.stage1_busy_cycles",
            "cycles stage 1 (fetch) did work");
        static auto &s2 = obs::counter(
            "controller.pipeline.stage2_busy_cycles",
            "cycles stage 2 (decode+SLT) did work");
        static auto &s3 = obs::counter(
            "controller.pipeline.stage3_busy_cycles",
            "cycles stage 3 (PGU dispatch) did work");
        static auto &s4 = obs::counter(
            "controller.pipeline.stage4_busy_cycles",
            "cycles stage 4 (arbiter writeback) did work");
        static auto &run_cycles = obs::histogram(
            "controller.pipeline.run_cycles",
            "cycles per q_gen pipeline run");
        cycles.add(result.cycles);
        entries.add(result.entriesProcessed);
        skipped.add(result.skippedValid);
        stalls.add(result.pguStallCycles);
        s1.add(result.stage1BusyCycles);
        s2.add(result.stage2BusyCycles);
        s3.add(result.stage3BusyCycles);
        s4.add(result.stage4BusyCycles);
        run_cycles.record(result.cycles);
        // Registered at the first dispatch, as when the pipeline
        // recorded each dispatch itself.
        const auto &tally = result.dispatchesAtOccupancy;
        for (std::size_t busy = 0; busy < tally.size(); ++busy) {
            if (tally[busy] == 0)
                continue;
            static auto &occupancy = obs::histogram(
                "controller.pipeline.pgu_occupancy",
                "busy PGUs after each dispatch");
            occupancy.record(busy, tally[busy]);
        }
    }

    auto *sink = obs::traceSink();
    if (!sink)
        return;
    if (_tracePid == 0) {
        _tracePid = sink->allocProcess(name() + " (sim time)");
        sink->threadName(_tracePid, 0, "q_gen");
        sink->threadName(_tracePid, 1, "stage1 fetch");
        sink->threadName(_tracePid, 2, "stage2 decode+SLT");
        sink->threadName(_tracePid, 3, "stage3 PGU dispatch");
        sink->threadName(_tracePid, 4, "stage4 arbiter");
    }
    const double t0 = sim::ticksToUs(curTick());
    const auto &cd = clockDomain();
    sink->complete(
        _tracePid, 0, "q_gen", "controller", t0,
        sim::ticksToUs(fin - curTick()),
        {{"entries", std::to_string(result.entriesProcessed)},
         {"pulses", std::to_string(result.pulsesGenerated)},
         {"slt_hits", std::to_string(result.sltHits)},
         {"slt_misses", std::to_string(result.sltMisses)}});
    const auto stage = [&](std::uint64_t tid, const char *nm,
                           sim::Cycles busy) {
        sink->complete(_tracePid, tid, nm, "controller.stage", t0,
                       sim::ticksToUs(cd.cyclesToTicks(busy)),
                       {{"busy_cycles", std::to_string(busy)}});
    };
    stage(1, "stage1.fetch", result.stage1BusyCycles);
    stage(2, "stage2.decode-slt", result.stage2BusyCycles);
    stage(3, "stage3.pgu-dispatch", result.stage3BusyCycles);
    stage(4, "stage4.arbiter", result.stage4BusyCycles);
}

void
QuantumController::recordMeasurement(std::uint32_t entry,
                                     std::uint64_t bits)
{
    _qcc->writeMeasure(entry, bits);
}

void
QuantumController::linkRegfile(std::uint32_t reg,
                               std::uint64_t program_qaddr)
{
    if (reg >= _regfileLinks.size())
        _regfileLinks.resize(std::size_t(reg) + 1);
    _regfileLinks[reg].push_back(program_qaddr);
}

void
QuantumController::clearRegfileLinks()
{
    for (auto &links : _regfileLinks)
        links.clear();
    clearStale();
}

void
QuantumController::invalidateDependents(std::uint32_t reg)
{
    if (reg >= _regfileLinks.size())
        return;
    for (auto pq : _regfileLinks[reg]) {
        auto e = _qcc->readProgram(pq);
        if (e.status != EntryStatus::Invalid) {
            e.status = EntryStatus::Invalid;
            _qcc->writeProgram(pq, e);
        }
        markStale(pq);
    }
}

void
QuantumController::markStale(std::uint64_t qaddr)
{
    const auto idx = qaddr - _cfg.layout.programBase();
    const std::size_t word = idx / 64;
    _staleSummary[word / 64] |= std::uint64_t(1) << (word % 64);
    _staleBits[word] |= std::uint64_t(1) << (idx % 64);
}

void
QuantumController::clearStale()
{
    for (std::size_t s = 0; s < _staleSummary.size(); ++s) {
        for (auto marked = _staleSummary[s]; marked != 0;
             marked &= marked - 1)
            _staleBits[s * 64 + std::countr_zero(marked)] = 0;
        _staleSummary[s] = 0;
    }
}

std::vector<std::uint64_t>
QuantumController::staleProgramEntries() const
{
    std::vector<std::uint64_t> stale;
    for (std::size_t s = 0; s < _staleSummary.size(); ++s) {
        for (auto marked = _staleSummary[s]; marked != 0;
             marked &= marked - 1) {
            const std::size_t w = s * 64 + std::countr_zero(marked);
            for (auto bits = _staleBits[w]; bits != 0;
                 bits &= bits - 1) {
                stale.push_back(_cfg.layout.programBase() + w * 64 +
                                std::countr_zero(bits));
            }
        }
    }
    return stale;
}

} // namespace qtenon::controller
