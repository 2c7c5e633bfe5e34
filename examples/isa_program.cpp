/**
 * @file
 * Low-level ISA walkthrough: build a tiny quantum program by hand,
 * encode the actual RoCC instruction words for one optimizer round
 * (q_set / q_update / q_gen / q_run / q_acquire), and drive the
 * controller directly - the view a systems programmer gets below the
 * VQA runtime.
 */

#include <cstdio>

#include "core/qtenon_system.hh"
#include "isa/encoding.hh"

using namespace qtenon;

int
main()
{
    core::QtenonConfig cfg;
    cfg.numQubits = 8;
    core::QtenonSystem sys(cfg);
    auto &ctrl = sys.controller();
    const auto &layout = ctrl.config().layout;

    // ---- 1. Hand-build a two-gate program for qubit 0:
    // RY(theta) with theta living in regfile slot 0, then a measure.
    std::vector<controller::ProgramEntry> prog;
    {
        controller::ProgramEntry ry;
        ry.type = controller::ProgramEntry::encodeType(
            quantum::GateType::RY);
        ry.regFlag = true;
        ry.data = 0; // regfile slot
        prog.push_back(ry);

        controller::ProgramEntry m;
        m.type = controller::ProgramEntry::encodeType(
            quantum::GateType::Measure);
        prog.push_back(m);
    }

    // ---- 2. Encode the instruction words the host would issue.
    std::printf("instruction stream for one round:\n");
    auto show = [](const char *asm_text, isa::RoccInstruction i) {
        std::printf("  0x%08x  %s\n", i.encode(), asm_text);
    };
    isa::RoccInstruction qset;
    qset.funct7 = isa::Opcode::QSet;
    qset.rs1 = 10; // x10 = host address of the serialized program
    qset.rs2 = 11; // x11 = {length, QAddress}
    qset.xs1 = qset.xs2 = true;
    show("q_set   x10, x11        # program -> .program[q0]", qset);

    isa::RoccInstruction qupd;
    qupd.funct7 = isa::Opcode::QUpdate;
    qupd.rs1 = 12; // x12 = regfile QAddress
    qupd.rs2 = 13; // x13 = new encoded angle
    qupd.xs1 = qupd.xs2 = true;
    show("q_update x12, x13       # theta -> .regfile[0]", qupd);

    isa::RoccInstruction qgen;
    qgen.funct7 = isa::Opcode::QGen;
    show("q_gen                   # compute pulses", qgen);

    isa::RoccInstruction qrun;
    qrun.funct7 = isa::Opcode::QRun;
    qrun.rs1 = 14; // x14 = shot count
    qrun.xs1 = true;
    show("q_run   x14             # execute shots", qrun);

    isa::RoccInstruction qacq;
    qacq.funct7 = isa::Opcode::QAcquire;
    qacq.rs1 = 15;
    qacq.rs2 = 16;
    qacq.xs1 = qacq.xs2 = true;
    show("q_acquire x15, x16      # .measure -> host memory", qacq);

    // The rs2 register value for q_set per Fig. 8(b):
    const auto rs2 = isa::packLengthQaddr(prog.size(),
                                          layout.programAddr(0, 0));
    std::printf("\nx11 = 0x%llx (length %llu, QAddress 0x%llx)\n",
                (unsigned long long)rs2,
                (unsigned long long)isa::lengthOf(rs2),
                (unsigned long long)isa::qaddrOf(rs2));

    // ---- 3. Execute the semantics of that stream on the model.
    auto &eq = sys.eventQueue();

    controller::SetTally set;
    ctrl.dmaSetProgram(0x10000, 0, prog, set);
    // Drain the bus, then wait for the WBQ to empty into the SRAM.
    eq.run();
    eq.run(set.done);
    std::printf("\nq_set complete at %.0f ns\n",
                sim::ticksToNs(set.done));

    ctrl.linkRegfile(0, layout.programAddr(0, 0));
    const auto angle = controller::ProgramEntry::encodeAngle(1.234);
    ctrl.roccWrite(layout.regfileAddr(0), angle);
    std::printf("q_update wrote encoded angle 0x%x\n", angle);

    const sim::Tick gen_done = ctrl.generateAll();
    const auto &gen = ctrl.qgenResult();
    std::printf("q_gen: %llu pulses in %llu cycles, done at %.0f ns\n",
                (unsigned long long)gen.pulsesGenerated,
                (unsigned long long)gen.cycles, sim::ticksToNs(gen_done));
    eq.run(gen_done);

    // q_run: record four shots' readouts, then q_acquire them.
    for (std::uint32_t s = 0; s < 4; ++s)
        ctrl.recordMeasurement(s, s % 2);
    controller::AcquireTally acquire;
    ctrl.dmaAcquire(0x20000, 4, acquire);
    eq.run();
    std::printf("q_acquire complete at %.0f ns\n",
                sim::ticksToNs(acquire.done));

    std::printf("barrier query on destination: %s\n",
                ctrl.barrierQuery(0x20000, 32) ? "synced"
                                               : "not synced");

    // Read a result back over the RoCC path.
    std::uint64_t word = 0;
    ctrl.roccRead(layout.measureAddr(1), word);
    std::printf("measure[1] read over RoCC = %llu\n",
                (unsigned long long)word);
    return 0;
}
