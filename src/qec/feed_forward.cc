#include "feed_forward.hh"

#include <cmath>

#include "core/qtenon_system.hh"
#include "isa/compiler.hh"
#include "sim/logging.hh"

namespace qtenon::qec {

namespace {

void
advanceTo(sim::EventQueue &eq, sim::Tick t)
{
    if (t > eq.curTick())
        eq.run(t);
}

} // namespace

FeedForwardHarness::FeedForwardHarness(FeedForwardConfig cfg)
    : _cfg(cfg)
{
    if (cfg.rounds == 0)
        sim::fatal("feed-forward harness needs at least one round");
}

FeedForwardResult
FeedForwardHarness::run() const
{
    const RepetitionCode code(
        RepetitionCodeConfig{_cfg.distance, _cfg.dataErrorRate});

    // ---- The tight system: one controller spanning the code block.
    core::QtenonConfig qcfg;
    qcfg.numQubits = code.numQubits();
    qcfg.software.vectorIsa = _cfg.vectorIsa;
    qcfg.host = _cfg.tightHost;
    qcfg.injector = _cfg.injector;
    core::QtenonSystem sys(qcfg);
    auto &ctrl = sys.controller();
    auto &eq = sys.eventQueue();

    // The correction program: one symbolic X rotation per data
    // qubit; a feed-forward correction toggles its angle between 0
    // and pi, and the executor delivers it exactly as it delivers a
    // VQA parameter update (q_update, or q_update.v per wave).
    quantum::QuantumCircuit c(code.numQubits());
    for (std::uint32_t q = 0; q < code.numData(); ++q) {
        const auto p = c.addParameter(0.0);
        c.rx(q, quantum::ParamRef::symbol(p));
    }
    isa::PipelineConfig pipe;
    pipe.vectorIsa = _cfg.vectorIsa;
    isa::QtenonCompiler compiler(isa::CompilerCostModel{}, pipe);
    const auto image = compiler.compile(c);
    sys.executor().installProgram(image);

    // ---- The decoupled baseline's link.
    baseline::EthernetChannel eth(_cfg.eth);
    if (_cfg.injector)
        eth.attachInjector(_cfg.injector);
    baseline::UdpExchange udp(eth, _cfg.udpRetry);

    quantum::StabilizerSimulator stab(code.numQubits());
    sim::Rng rng(_cfg.seed);
    std::vector<double> angles(code.numData(), 0.0);

    const sim::Tick deadline = _cfg.deadlineNs * sim::nsTicks;
    const double decode_ops =
        _cfg.decodeOpsPerSyndromeBit * code.numAncilla();
    const std::uint64_t syndrome_bytes = code.numAncilla();
    const std::uint64_t correction_bytes = code.numData();
    constexpr std::uint64_t host_base = 0x1000'0000ull;

    FeedForwardResult res;
    res.rounds.reserve(_cfg.rounds);
    sim::Tick decoupled_now = 0;

    for (std::uint32_t r = 0; r < _cfg.rounds; ++r) {
        const auto sr = code.round(stab, rng);
        res.injectedErrors += sr.injectedErrors;
        res.correctionsApplied += sr.correctionsApplied;

        FeedForwardRound round;
        round.injectedErrors = sr.injectedErrors;
        round.corrections = sr.correctionsApplied;

        // ---- Tight path: ADI crossing, q_acquire DMA of the
        // syndrome, one soft-barrier poll, host decode, corrections
        // over RoCC, incremental q_gen.
        const sim::Tick t0 = eq.curTick();
        advanceTo(eq, t0 + ctrl.adiInputLatency());
        controller::AcquireTally dma;
        ctrl.dmaAcquire(host_base, code.numAncilla(), dma);
        eq.run();
        advanceTo(eq, dma.done);

        const sim::Tick decode_t =
            _cfg.tightHost.timeFor(decode_ops);
        advanceTo(eq, eq.curTick() + ctrl.clockPeriod() + decode_t);

        const auto old_angles = angles;
        for (std::uint32_t q = 0; q < code.numData(); ++q) {
            if (sr.corrections[q])
                angles[q] = angles[q] == 0.0 ? M_PI : 0.0;
        }
        const auto plan =
            compiler.planUpdates(image, old_angles, angles);
        if (!plan.empty()) {
            sys.executor().deliverUpdates(image, plan);
            advanceTo(eq, ctrl.generate(ctrl.staleProgramEntries()));
        }
        const sim::Tick tight_elapsed = eq.curTick() - t0;
        round.tightNs = static_cast<std::uint64_t>(
            sim::ticksToNs(tight_elapsed));
        round.tightMiss = tight_elapsed > deadline;

        // ---- Decoupled path: syndrome up over UDP, x86 decode,
        // corrections back down; injected loss burns retransmission
        // rounds on either leg.
        const auto up = udp.transfer(syndrome_bytes, decoupled_now);
        const sim::Tick dec_t =
            _cfg.decoupledHost.timeFor(decode_ops);
        const auto down = udp.transfer(
            correction_bytes, decoupled_now + up.elapsed + dec_t);
        const sim::Tick dec_elapsed =
            up.elapsed + dec_t + down.elapsed;
        decoupled_now += dec_elapsed;
        round.decoupledNs = static_cast<std::uint64_t>(
            sim::ticksToNs(dec_elapsed));
        round.decoupledMiss = dec_elapsed > deadline;

        if (round.tightMiss)
            ++res.tightMisses;
        if (round.decoupledMiss)
            ++res.decoupledMisses;
        res.rounds.push_back(round);
    }

    res.roccTransfers = ctrl.roccTransfers.value();
    res.roccVectorElements = ctrl.roccVectorElements.value();
    res.logicalValue = code.logicalValue(stab, rng);
    return res;
}

} // namespace qtenon::qec
