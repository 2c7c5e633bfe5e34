#include "pipeline.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace qtenon::controller {

PulsePipeline::PulsePipeline(QuantumControllerCache &qcc,
                             SkipLookupTable &slt, PipelineConfig cfg)
    : _qcc(qcc), _slt(slt), _cfg(cfg), _pgus(cfg.numPgus)
{
    if (cfg.numPgus == 0)
        sim::fatal("pipeline needs at least one PGU");
}

void
PulsePipeline::run(const std::vector<std::uint64_t> &work,
                   PipelineResult &res)
{
    // Zero the result but keep the tally's storage.
    auto tally = std::move(res.dispatchesAtOccupancy);
    tally.assign(std::size_t(_cfg.numPgus) + 1, 0);
    res = PipelineResult{};
    res.dispatchesAtOccupancy = std::move(tally);
    const auto &layout = _qcc.layout();
    const auto reads0 = _qcc.programReads.value();
    const auto writes0 = _qcc.programWrites.value();
    const auto pulses0 = _qcc.pulseWrites.value();

    std::size_t pc = 0; // stage 1 program counter over the work list
    // Stage latches, modeled as value + valid bit like RTL registers.
    InFlight stage1{};
    bool stage1_valid = false;
    InFlight stage2out{}; // awaiting a PGU in stage 3
    bool stage2_valid = false;
    // Completion horizon: the busy PGU count and the earliest
    // doneCycle among busy PGUs (`never` when none is busy).
    constexpr sim::Cycles never = ~sim::Cycles(0);
    std::size_t busy = 0;
    sim::Cycles next_done = never;
    auto is_in_flight = [&](std::uint64_t qaddr) {
        return std::find(_inFlight.begin(), _inFlight.end(), qaddr) !=
            _inFlight.end();
    };

    sim::Cycles cycle = 0;

    while (pc < work.size() || stage1_valid || stage2_valid ||
           busy != 0) {
        bool progress = false;

        // ---- Stage 4: arbiter writes back one finished PGU/cycle:
        // the lowest-numbered PGU finishing at the horizon.
        if (next_done <= cycle) {
            Pgu *done = nullptr;
            sim::Cycles following = never;
            for (auto &p : _pgus) {
                if (!p.busy)
                    continue;
                if (!done && p.doneCycle == next_done)
                    done = &p;
                else
                    following = std::min(following, p.doneCycle);
            }
            // The .pulse slot records what to play; a bad type code
            // panics here, where the PGU decodes it.
            auto e = _qcc.readProgram(done->programQaddr);
            const auto data =
                e.regFlag ? _qcc.readRegfile(e.data) : e.data;
            ProgramEntry::decodeType(e.type);
            _qcc.writePulse(done->pulseQaddr, pulseKey(e.type, data));
            e.status = EntryStatus::Valid;
            _qcc.writeProgram(done->programQaddr, e);
            _inFlight.erase(std::remove(_inFlight.begin(),
                                        _inFlight.end(),
                                        done->pulseQaddr),
                            _inFlight.end());
            done->busy = false;
            --busy;
            next_done = following;
            ++res.pulsesGenerated;
            ++res.stage4BusyCycles;
            progress = true;
        }

        // ---- Stage 3: dispatch the stage-2 output to a free PGU.
        bool stall = false;
        if (stage2_valid && stage2out.readyCycle <= cycle) {
            if (busy < _pgus.size()) {
                // Priority encoder: lowest-numbered free PGU.
                auto it = std::find_if(_pgus.begin(), _pgus.end(),
                                       [](const Pgu &p) {
                                           return !p.busy;
                                       });
                it->busy = true;
                it->doneCycle = cycle + _cfg.pguLatency;
                it->pulseQaddr = stage2out.pulseQaddr;
                it->programQaddr = stage2out.programQaddr;
                ++busy;
                next_done = std::min(next_done, it->doneCycle);
                stage2_valid = false;
                ++res.stage3BusyCycles;
                ++res.dispatchesAtOccupancy[busy];
                progress = true;
            } else {
                stall = true;
                ++res.pguStallCycles;
            }
        } else if (stage2_valid) {
            // Held in stage 2 while a QSpace access completes.
            stall = true;
        }

        // ---- Stage 2: decode + SLT.
        if (!stall && stage1_valid) {
            InFlight f = stage1;
            stage1_valid = false;
            progress = true;
            ++res.entriesProcessed;
            ++res.stage2BusyCycles;

            auto entry = f.entry;
            std::uint32_t data = entry.data;
            if (entry.regFlag)
                data = _qcc.readRegfile(entry.data);

            if (entry.status == EntryStatus::Valid &&
                _qcc.pulseValid(entry.qaddr)) {
                // Pulse already present: nothing to do.
                ++res.skippedValid;
            } else if (!_cfg.sltEnabled) {
                // Ablation: no skip path; regenerate unconditionally.
                const auto pulse_entry = _slt.allocate(
                    f.qubit, layout.pulseEntriesPerQubit);
                const auto pulse_qaddr =
                    layout.pulseAddr(f.qubit, pulse_entry);
                entry.qaddr = static_cast<std::uint32_t>(pulse_qaddr);
                entry.status = EntryStatus::Pending;
                _qcc.writeProgram(f.programQaddr, entry);
                f.entry = entry;
                f.pulseQaddr = pulse_qaddr;
                f.readyCycle = cycle + 1;
                stage2out = f;
                stage2_valid = true;
            } else {
                auto slt = _slt.lookup(f.qubit, entry.type, data,
                                       layout.pulseEntriesPerQubit);
                res.sltHits += slt.hit ? 1 : 0;
                res.sltMisses += slt.hit ? 0 : 1;
                res.qspaceHits += slt.qspaceHit ? 1 : 0;

                const auto pulse_qaddr =
                    layout.pulseAddr(f.qubit, slt.pulseEntry);
                entry.qaddr = static_cast<std::uint32_t>(pulse_qaddr);
                const bool must_generate =
                    (slt.needsGeneration ||
                     !_qcc.pulseValid(pulse_qaddr)) &&
                    !is_in_flight(pulse_qaddr);
                if (must_generate) {
                    entry.status = EntryStatus::Pending;
                    _qcc.writeProgram(f.programQaddr, entry);
                    _inFlight.push_back(pulse_qaddr);
                    f.entry = entry;
                    f.pulseQaddr = pulse_qaddr;
                    f.readyCycle = cycle + slt.cycles;
                    stage2out = f;
                    stage2_valid = true;
                } else {
                    // Hit (or generation already in flight): link the
                    // program entry to the cached pulse.
                    entry.status = EntryStatus::Valid;
                    _qcc.writeProgram(f.programQaddr, entry);
                }
            }
        }

        // ---- Stage 1: fetch the next work item.
        if (!stall && !stage1_valid && pc < work.size()) {
            InFlight f{};
            f.programQaddr = work[pc++];
            f.qubit = layout.qubitOf(f.programQaddr);
            f.entry = _qcc.readProgram(f.programQaddr);
            stage1 = f;
            stage1_valid = true;
            ++res.stage1BusyCycles;
            progress = true;
        }

        // ---- Advance time: fast-forward when only PGUs are working.
        if (progress) {
            ++cycle;
            continue;
        }
        sim::Cycles next = next_done;
        if (stage2_valid && stage2out.readyCycle > cycle)
            next = std::min(next, stage2out.readyCycle);
        if (next == never) {
            // Nothing in flight and no progress: should be done.
            break;
        }
        if (stall && next > cycle)
            res.pguStallCycles += next - cycle - 1;
        cycle = std::max(cycle + 1, next);
    }

    res.cycles = cycle;
    res.programReads = _qcc.programReads.value() - reads0;
    res.programWrites = _qcc.programWrites.value() - writes0;
    res.pulseWrites = _qcc.pulseWrites.value() - pulses0;
}

} // namespace qtenon::controller
