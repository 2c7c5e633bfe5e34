#include "executor.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/trace_sink.hh"
#include "sim/logging.hh"

namespace qtenon::runtime {

QtenonExecutor::QtenonExecutor(sim::EventQueue &eq,
                               controller::QuantumController &ctrl,
                               isa::QtenonCompiler compiler,
                               ExecutorConfig cfg)
    : _eq(eq), _ctrl(ctrl), _compiler(std::move(compiler)),
      _cfg(std::move(cfg))
{}

void
QtenonExecutor::advanceTo(sim::Tick t)
{
    if (t > _eq.curTick())
        _eq.run(t);
}

void
QtenonExecutor::drain()
{
    _eq.run();
}

void
QtenonExecutor::setPrograms(const isa::ProgramImage &image)
{
    // The transfers pipeline on the system bus; each fills its own
    // tally, which stays put until the drain.
    std::vector<controller::SetTally> tallies(image.numQubits);
    std::uint64_t host_off = 0;
    for (std::uint32_t q = 0; q < image.numQubits; ++q) {
        _ctrl.dmaSetProgram(_cfg.hostProgramBase + host_off, q,
                            image.perQubit[q], tallies[q]);
        host_off += image.perQubit[q].size() *
            _ctrl.config().programEntryHostBytes;
    }
    drain();
    sim::Tick done = _eq.curTick();
    for (const auto &t : tallies) {
        if (t.remaining != 0)
            sim::panic("q_set transfers did not drain");
        done = std::max(done, t.done);
    }
    advanceTo(done);
}

void
QtenonExecutor::observeBreakdown(const char *what,
                                 const TimeBreakdown &bd,
                                 sim::Tick start)
{
    if (obs::metricsEnabled()) {
        static auto &quantum = obs::histogram(
            "runtime.breakdown.quantum_ticks",
            "quantum execution ticks per install/round");
        static auto &pulse = obs::histogram(
            "runtime.breakdown.pulsegen_ticks",
            "pulse-generation ticks per install/round");
        static auto &comm = obs::histogram(
            "runtime.breakdown.comm_ticks",
            "communication ticks per install/round");
        static auto &host = obs::histogram(
            "runtime.breakdown.host_ticks",
            "host-visible ticks per install/round");
        static auto &wall = obs::histogram(
            "runtime.breakdown.wall_ticks",
            "end-to-end ticks per install/round");
        quantum.record(bd.quantum);
        pulse.record(bd.pulseGen);
        comm.record(bd.comm);
        host.record(bd.host);
        wall.record(bd.wall);
    }
    if (auto *sink = obs::traceSink()) {
        if (_tracePid == 0) {
            _tracePid =
                sink->allocProcess("executor (sim time)");
            sink->threadName(_tracePid, 0, "install/rounds");
        }
        sink->complete(
            _tracePid, 0, what, "runtime", sim::ticksToUs(start),
            sim::ticksToUs(bd.wall),
            {{"quantum_ticks", std::to_string(bd.quantum)},
             {"pulsegen_ticks", std::to_string(bd.pulseGen)},
             {"comm_ticks", std::to_string(bd.comm)},
             {"host_ticks", std::to_string(bd.host)}});
    }
}

TimeBreakdown
QtenonExecutor::installProgram(const isa::ProgramImage &image)
{
    TimeBreakdown bd;
    const sim::Tick start = _eq.curTick();
    const auto &layout = _ctrl.config().layout;

    // Host-side compile of the whole image. Under CachedIncremental
    // the structural image comes from the compile cache, so the host
    // pays only the front end plus a regfile refill.
    const sim::Tick compile_t = _cfg.host.timeFor(
        _cfg.software.compile == CompileMode::CachedIncremental
            ? _compiler.cachedCompileCycles(image)
            : _compiler.initialCompileCycles(image));
    bd.host += compile_t;
    bd.hostBusy += compile_t;
    advanceTo(start + compile_t);

    // Register regfile dependencies with the controller.
    _ctrl.clearRegfileLinks();
    for (const auto &l : image.links) {
        _ctrl.linkRegfile(l.reg, layout.programAddr(l.qubit, l.entry));
    }

    // Initialize the regfile over RoCC with a plan writing every slot.
    isa::UpdatePlan init;
    init.reserve(image.regfileInit.size());
    for (std::size_t r = 0; r < image.regfileInit.size(); ++r)
        init.emplace_back(static_cast<std::uint32_t>(r),
                          image.regfileInit[r]);
    const sim::Tick reg_t0 = _eq.curTick();
    deliverUpdates(image, init);
    bd.commUpdate += _eq.curTick() - reg_t0;

    // q_set every qubit's program chunk.
    const sim::Tick set_t0 = _eq.curTick();
    setPrograms(image);
    bd.commSet += _eq.curTick() - set_t0;

    // Initial full q_gen.
    const sim::Tick gen_t0 = _eq.curTick();
    advanceTo(_ctrl.generateAll());
    bd.pulseGen += _eq.curTick() - gen_t0;

    bd.comm = bd.commSet + bd.commUpdate;
    bd.wall = _eq.curTick() - start;
    _programInstalled = true;
    observeBreakdown("install", bd, start);
    return bd;
}

TimeBreakdown
QtenonExecutor::executeRound(const RoundRecord &round,
                             const isa::ProgramImage &image,
                             sim::Tick shot_duration)
{
    if (!_programInstalled)
        sim::panic("executeRound before installProgram");

    TimeBreakdown bd;
    const auto &layout = _ctrl.config().layout;
    const auto &sw = _cfg.software;
    const sim::Tick start = _eq.curTick();

    // ---- Parameter delivery. Both incremental modes take the
    // q_update path; only FullRecompile re-emits the program.
    if (sw.compile != CompileMode::FullRecompile) {
        const auto spans = waveSpans(image, round.updates);
        double prep_cycles;
        if (spans.empty()) {
            prep_cycles = _compiler.incrementalCycles(round.updates.size());
        } else {
            std::size_t waves = 0, elements = 0;
            for (std::size_t w = 0; w < spans.size(); ++w) {
                const auto &s = spans[w];
                if (s.lo > s.hi)
                    continue;
                ++waves;
                elements +=
                    (s.hi - s.lo) / image.updateWaves[w].stride + 1;
            }
            prep_cycles =
                _compiler.incrementalCyclesVector(waves, elements);
        }
        const sim::Tick prep = _cfg.host.timeFor(prep_cycles);
        bd.host += prep;
        bd.hostBusy += prep;
        advanceTo(start + prep);

        const sim::Tick upd_t0 = _eq.curTick();
        deliverUpdates(image, round.updates, spans);
        bd.commUpdate += _eq.curTick() - upd_t0;
    } else {
        // Full recompile + full q_set each round, as a system without
        // communication instructions would be forced to do.
        const sim::Tick compile_t =
            _cfg.host.timeFor(_compiler.initialCompileCycles(image));
        bd.host += compile_t;
        bd.hostBusy += compile_t;
        advanceTo(start + compile_t);

        // Apply the updates functionally so SLT contents stay honest.
        for (const auto &[reg, val] : round.updates)
            _ctrl.roccWrite(layout.regfileAddr(reg), val);

        const sim::Tick set_t0 = _eq.curTick();
        setPrograms(image);
        bd.commSet += _eq.curTick() - set_t0;
    }

    // ---- q_gen of whatever is stale.
    const sim::Tick gen_t0 = _eq.curTick();
    advanceTo(sw.compile != CompileMode::FullRecompile
                  ? _ctrl.generate(_ctrl.staleProgramEntries())
                  : _ctrl.generateAll());
    bd.pulseGen += _eq.curTick() - gen_t0;

    // ---- q_run: shots with scheduled transmission (Algorithm 1).
    const sim::Tick run_start = _eq.curTick();
    const std::uint32_t n = layout.numQubits;
    const std::uint64_t shots = round.shots;
    const std::uint32_t words_per_shot = (n + 63) / 64;
    const std::uint64_t bus_width =
        8ull * _ctrl.config().dmaChunkBytes; // bits per chunk
    const std::uint64_t K = _cfg.batchIntervalOverride
        ? _cfg.batchIntervalOverride
        : ((sw.transmission == TransmissionPolicy::Batched)
               ? batchInterval(bus_width, n)
               : 1);
    const sim::Tick barrier_cycle = _ctrl.clockPeriod();

    // The shot loop records each batch PUT; none is released yet.
    struct PendingPut {
        sim::Tick time;
        std::uint64_t hostAddr;
        std::uint32_t count;
        /** Filled in by the PUT's bus responses. */
        controller::AcquireTally acquire;
    };
    std::vector<PendingPut> pending;
    pending.reserve((shots + K - 1) / K);

    sim::Tick host_free = _eq.curTick();
    std::uint64_t batch_shots = 0;
    std::uint32_t entry = 0;
    std::uint64_t host_addr = _cfg.hostMeasureBase;

    for (std::uint64_t s = 0; s < shots; ++s) {
        const sim::Tick t_shot = run_start + (s + 1) * shot_duration;
        // Functional readout into .measure.
        const std::uint64_t bits =
            s < round.shotData.size() ? round.shotData[s] : 0;
        for (std::uint32_t w = 0; w < words_per_shot; ++w) {
            _ctrl.recordMeasurement(
                entry % layout.measureEntries, w == 0 ? bits : 0);
            ++entry;
        }
        ++batch_shots;

        if (batch_shots == K || s + 1 == shots) {
            // Per-PUT ADI crossing: with an injector attached each
            // batch draws its own jitter; otherwise this is the
            // constant interface latency.
            const sim::Tick put_time =
                t_shot + _ctrl.adiInputLatency();
            const auto count = static_cast<std::uint32_t>(
                batch_shots * words_per_shot);
            pending.push_back({put_time, host_addr, count, {}});

            if (sw.sync == SyncPolicy::FineGrained) {
                // The host polls the barrier (1 cycle) and processes
                // the batch as soon as the PUT has left on the bus,
                // overlapping the remaining quantum shots.
                const sim::Tick ready =
                    std::max(host_free, put_time + barrier_cycle);
                host_free = ready + _cfg.host.timeFor(
                    static_cast<double>(batch_shots) *
                    round.postOpsPerShot);
            }

            host_addr += std::uint64_t(count) * 8;
            batch_shots = 0;
        }
    }

    // Release the PUTs one at a time in (tick, batch) order, each
    // where it would fire had the whole round been scheduled before
    // the drain: the release band puts it ahead of every
    // default-priority event at its tick (sim/event_queue.hh). ADI
    // jitter can make put times non-monotone; the stable sort keeps
    // batch order on ties. Without jitter they are already in order.
    const auto by_time = [](const PendingPut &a, const PendingPut &b) {
        return a.time < b.time;
    };
    if (!std::is_sorted(pending.begin(), pending.end(), by_time))
        std::stable_sort(pending.begin(), pending.end(), by_time);
    for (auto &p : pending) {
        _eq.fireInline(p.time, sim::Event::releasePrio, [&] {
            _ctrl.dmaAcquire(p.hostAddr, p.count, p.acquire);
        });
    }

    const sim::Tick quantum_end = run_start + shots * shot_duration;
    bd.quantum += shots * shot_duration;

    // The PUTs' bus responses fire in here, filling their tallies.
    // Each PUT's latency counts once, at its slowest chunk.
    drain();
    sim::Tick last_done = run_start;
    sim::Tick latency_sum = 0;
    for (const auto &p : pending) {
        if (p.acquire.remaining != 0)
            sim::panic("q_run PUT did not drain");
        last_done = std::max(last_done, p.acquire.done);
        latency_sum += p.acquire.done - p.time;
    }
    const sim::Tick post_ops_all = _cfg.host.timeFor(
        static_cast<double>(shots) * round.postOpsPerShot);

    sim::Tick round_end;
    if (sw.sync == SyncPolicy::Fence) {
        // FENCE #1: host stalls until the quantum program and every
        // transmission retire, then post-processes everything.
        const sim::Tick fence1 = std::max(quantum_end, last_done);
        bd.commAcquire += latency_sum;
        bd.host += post_ops_all;
        bd.hostBusy += post_ops_all;
        round_end = fence1 + post_ops_all;
    } else {
        // Fine-grained: only the non-overlapped transmission tail is
        // exposed on the critical path.
        bd.commAcquire += last_done > quantum_end
            ? last_done - quantum_end : 0;
        bd.commAcquire += barrier_cycle;
        bd.hostBusy += post_ops_all;
        // Visible host time: post-processing overflow past the end of
        // quantum execution (the rest hides behind the shots).
        if (host_free > quantum_end)
            bd.host += host_free - quantum_end;
        round_end = std::max({quantum_end, host_free, last_done});
    }

    // ---- Optimizer step.
    const sim::Tick opt_t = _cfg.host.timeFor(round.optimizerOps);
    bd.host += opt_t;
    bd.hostBusy += opt_t;
    round_end += opt_t;
    advanceTo(round_end);

    bd.comm = bd.commSet + bd.commUpdate + bd.commAcquire;
    bd.wall = _eq.curTick() - start;
    observeBreakdown("round", bd, start);
    return bd;
}

std::vector<QtenonExecutor::WaveSpan>
QtenonExecutor::waveSpans(const isa::ProgramImage &image,
                          const isa::UpdatePlan &updates) const
{
    std::vector<WaveSpan> spans;
    if (!_cfg.software.vectorIsa || !image.hasWaves() || updates.empty())
        return spans;
    spans.resize(image.updateWaves.size());
    for (const auto &[reg, val] : updates) {
        const auto w = image.waveOfReg(reg);
        if (w == ~std::uint32_t(0))
            sim::panic("update to regfile slot ", reg,
                       " outside every image wave");
        spans[w].lo = std::min(spans[w].lo, reg);
        spans[w].hi = std::max(spans[w].hi, reg);
    }
    return spans;
}

void
QtenonExecutor::deliverUpdates(const isa::ProgramImage &image,
                               const isa::UpdatePlan &updates,
                               const std::vector<WaveSpan> &spans)
{
    const auto &layout = _ctrl.config().layout;
    if (spans.empty()) {
        for (const auto &[reg, val] : updates)
            advanceTo(_ctrl.roccWrite(layout.regfileAddr(reg), val));
        return;
    }
    // Untouched interior lanes of a wave ride along carrying their
    // current values (the controller's write-if-different keeps them
    // from invalidating anything).
    for (std::size_t w = 0; w < spans.size(); ++w) {
        const auto &s = spans[w];
        if (s.lo > s.hi)
            continue;
        const auto stride = image.updateWaves[w].stride;
        std::vector<std::uint32_t> values;
        values.reserve((s.hi - s.lo) / stride + 1);
        for (std::uint32_t r = s.lo; r <= s.hi; r += stride)
            values.push_back(_ctrl.qcc().readRegfile(r));
        for (const auto &[reg, val] : updates) {
            if (reg >= s.lo && reg <= s.hi)
                values[(reg - s.lo) / stride] = val;
        }
        advanceTo(_ctrl.roccWriteVector(layout.regfileAddr(s.lo), stride,
                                        values));
    }
}

ExecutionResult
QtenonExecutor::execute(const VqaTrace &trace, sim::Tick shot_duration)
{
    ExecutionResult res;
    res.setup = installProgram(trace.image);
    for (const auto &r : trace.rounds)
        res.rounds += executeRound(r, trace.image, shot_duration);
    return res;
}

} // namespace qtenon::runtime
