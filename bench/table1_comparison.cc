/**
 * @file
 * Table 1 reproduction: decoupled (eQASM / HiSEP-Q style) versus the
 * tightly coupled Qtenon system - communication latency, instruction
 * counts for the 64-qubit five-layer QAOA / 10 GD iterations case,
 * and recompile overhead.
 */

#include "bench_util.hh"

#include "baseline/ethernet.hh"
#include "isa/baseline_isa.hh"
#include "isa/compiler.hh"
#include "quantum/ansatz.hh"
#include "quantum/graph.hh"

using namespace qtenon;
using namespace qtenon::bench;

int
main()
{
    banner("Table 1: system architecture comparison");

    auto g = quantum::Graph::threeRegular(64);
    auto circuit = quantum::ansatz::qaoaMaxCut(g, 5);

    // --- Decoupled communication latency (per round trip).
    baseline::EthernetLink ethernet;
    baseline::EthernetLink usb(baseline::usbLinkConfig());
    isa::BaselineCompiler eqasm(isa::BaselineFlavor::EQasm);
    isa::BaselineCompiler hisep(isa::BaselineFlavor::HisepQ);
    const auto binary = hisep.binaryBytes(circuit);
    const auto readout = 500ull * 8ull;
    const auto eth_rt = ethernet.roundTrip(binary, readout);
    const auto usb_rt =
        usb.roundTrip(eqasm.binaryBytes(circuit), readout);

    // --- Qtenon communication latency: RoCC transfer is one cycle at
    // 1 GHz; a TileLink round trip is tens of cycles.
    core::QtenonConfig qcfg;
    core::QtenonSystem sys(qcfg);
    sim::Tick rocc_latency = sys.controller().clockPeriod();
    sim::Tick tl_done = 0;
    memory::MemPacket pkt;
    pkt.addr = 0x1000;
    pkt.size = 64;
    const sim::Tick tl_start = sys.eventQueue().curTick();
    sys.bus().accessTagged(pkt, [&](const memory::BusResponse &r) {
        tl_done = r.completed;
    });
    sys.eventQueue().run();
    const sim::Tick tl_latency = tl_done - tl_start;

    // --- Instruction counts for 64q QAOA, 5 layers, 10 GD iters.
    // Static ISAs recompile the full program each iteration.
    const auto eqasm_instr = eqasm.instructionCount(circuit) * 10;
    const auto hisep_instr = hisep.instructionCount(circuit) * 10;
    // Qtenon: 64 q_set once + per iteration a couple of q_updates
    // plus q_gen/q_run/q_acquire.
    isa::QtenonCompiler qcomp;
    auto image = qcomp.compile(circuit);
    auto qtenon_instr =
        isa::QtenonCompiler::countInstructions(image, 10, 2, 1);

    // --- Recompile overhead.
    const auto jit = hisep.jitCompileTime(circuit);
    const auto incr = runtime::HostCoreModel::rocket().timeFor(
        qcomp.incrementalCycles(2));

    std::printf("%-24s %-18s %-18s %-18s\n", "", "eQASM-style",
                "HiSEP-Q-style", "Qtenon (ours)");
    std::printf("%-24s %-18s %-18s %-18s\n", "Unified memory", "no",
                "no", "yes");
    std::printf("%-24s %-18s %-18s %-18s\n", "Memory consistency",
                "no", "no", "yes");
    std::printf("%-24s %-18s %-18s %-18s\n", "Data interface", "USB",
                "Ethernet", "TileLink & RoCC");
    std::printf("%-24s %-18s %-18s RoCC %s / TL %s\n", "Comm. latency",
                core::formatTime(usb_rt).c_str(),
                core::formatTime(eth_rt).c_str(),
                core::formatTime(rocc_latency).c_str(),
                core::formatTime(tl_latency).c_str());
    std::printf("%-24s %-18llu %-18llu %-18llu\n",
                "Instruction count",
                static_cast<unsigned long long>(eqasm_instr),
                static_cast<unsigned long long>(hisep_instr),
                static_cast<unsigned long long>(qtenon_instr.total()));
    std::printf("%-24s %-18s %-18s %-18s\n", "Recompile overhead",
                core::formatTime(jit).c_str(),
                core::formatTime(jit).c_str(),
                core::formatTime(incr).c_str());
    std::printf("%-24s %-18s %-18s %-18s\n", "Execution",
                "sequential", "sequential", "interleaved");

    std::printf("\npaper: comm 1-10 ms vs 10-100 ns; instructions "
                "~3e4 vs ~285; recompile 1-100 ms vs 10-100 ns\n");
    return 0;
}
