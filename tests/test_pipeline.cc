/**
 * @file
 * Cycle-level tests of the four-stage pulse pipeline: PGU latency,
 * parallelism across the 8 PGUs, stalls when all PGUs are busy, SLT
 * skip behaviour, regfile indirection, already-valid fast paths, the
 * .pulse descriptors stage 4 writes, and its gate-type check.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "controller/pipeline.hh"
#include "controller/pulse_synth.hh"
#include "controller/qcc.hh"
#include "controller/slt.hh"
#include "memory/address_map.hh"
#include "sim/event_queue.hh"

using namespace qtenon::controller;
using namespace qtenon::sim;
using qtenon::memory::QccLayout;

namespace {

struct PipelineFixture : public ::testing::Test {
    PipelineFixture()
        : qcc(eq, "qcc", ClockDomain::fromHz(200'000'000), QccLayout{}),
          slt(64)
    {}

    /** Install @p count entries with distinct data on @p qubit. */
    std::vector<std::uint64_t>
    install(std::uint32_t qubit, std::uint32_t count,
            std::uint32_t data_base = 0, bool distinct = true)
    {
        std::vector<std::uint64_t> work;
        for (std::uint32_t i = 0; i < count; ++i) {
            ProgramEntry e;
            e.type = 0x8; // RX
            e.data = distinct ? data_base + (i << 14) : data_base;
            e.status = EntryStatus::Invalid;
            const auto qaddr = qcc.layout().programAddr(qubit, i);
            qcc.writeProgram(qaddr, e);
            work.push_back(qaddr);
        }
        qcc.setProgramLength(qubit, count);
        return work;
    }

    EventQueue eq;
    QuantumControllerCache qcc;
    SkipLookupTable slt;
};

} // namespace

TEST_F(PipelineFixture, SingleEntryTakesPguLatencyPlusOverhead)
{
    PulsePipeline pipe(qcc, slt);
    auto work = install(0, 1);
    PipelineResult r;
    pipe.run(work, r);
    EXPECT_EQ(r.entriesProcessed, 1u);
    EXPECT_EQ(r.pulsesGenerated, 1u);
    EXPECT_EQ(r.sltMisses, 1u);
    // fetch + decode/SLT (+QSpace) + dispatch + 1000 PGU + writeback.
    EXPECT_GE(r.cycles, 1000u);
    EXPECT_LE(r.cycles, 1100u);
}

TEST_F(PipelineFixture, EightEntriesRunOnEightPgusInParallel)
{
    PulsePipeline pipe(qcc, slt);
    auto work = install(0, 8);
    PipelineResult r;
    pipe.run(work, r);
    EXPECT_EQ(r.pulsesGenerated, 8u);
    // All eight fit in the PGU pool: far less than 8 x 1000 cycles.
    EXPECT_LT(r.cycles, 2500u);
}

TEST_F(PipelineFixture, NinthEntryStallsOnBusyPgus)
{
    PulsePipeline pipe(qcc, slt);
    auto work = install(0, 9);
    PipelineResult r;
    pipe.run(work, r);
    EXPECT_EQ(r.pulsesGenerated, 9u);
    // The ninth must wait for a PGU: roughly two PGU rounds.
    EXPECT_GE(r.cycles, 2000u);
    EXPECT_GT(r.pguStallCycles, 0u);
}

TEST_F(PipelineFixture, ThroughputScalesWithPguCount)
{
    auto work = install(0, 64);
    PipelineConfig one;
    one.numPgus = 1;
    PulsePipeline pipe1(qcc, slt, one);
    PipelineResult r1;
    pipe1.run(work, r1);

    // Fresh state for the second run.
    slt.reset();
    install(0, 64);
    PipelineConfig eight;
    eight.numPgus = 8;
    PulsePipeline pipe8(qcc, slt, eight);
    PipelineResult r8;
    pipe8.run(work, r8);

    EXPECT_EQ(r1.pulsesGenerated, 64u);
    EXPECT_EQ(r8.pulsesGenerated, 64u);
    EXPECT_GT(r1.cycles, 6 * r8.cycles);
}

TEST_F(PipelineFixture, RepeatedParameterSkipsViaSlt)
{
    PulsePipeline pipe(qcc, slt);
    // 32 entries, all the same parameter: one pulse suffices.
    auto work = install(0, 32, /*data_base=*/123, /*distinct=*/false);
    PipelineResult r;
    pipe.run(work, r);
    EXPECT_EQ(r.entriesProcessed, 32u);
    EXPECT_EQ(r.pulsesGenerated, 1u);
    EXPECT_EQ(r.sltHits, 31u);
    EXPECT_GT(r.skipRate(), 0.9);
    // And the skipped entries all point at the same valid pulse.
    const auto &layout = qcc.layout();
    const auto first = qcc.readProgram(layout.programAddr(0, 0));
    for (std::uint32_t i = 1; i < 32; ++i) {
        const auto e = qcc.readProgram(layout.programAddr(0, i));
        EXPECT_EQ(e.qaddr, first.qaddr);
        EXPECT_EQ(e.status, EntryStatus::Valid);
    }
}

TEST_F(PipelineFixture, SecondRunSkipsValidEntries)
{
    PulsePipeline pipe(qcc, slt);
    auto work = install(0, 16);
    PipelineResult first;
    pipe.run(work, first);
    EXPECT_EQ(first.pulsesGenerated, 16u);
    PipelineResult second;
    pipe.run(work, second);
    EXPECT_EQ(second.pulsesGenerated, 0u);
    EXPECT_EQ(second.skippedValid, 16u);
    // Without PGU work the walk is a few cycles per entry.
    EXPECT_LT(second.cycles, 100u);
}

TEST_F(PipelineFixture, RegfileIndirectionFetchesLiveValue)
{
    PulsePipeline pipe(qcc, slt);
    qcc.writeRegfile(5, 0xABCD);
    ProgramEntry e;
    e.type = 0x9; // RY
    e.regFlag = true;
    e.data = 5; // regfile slot
    e.status = EntryStatus::Invalid;
    const auto qaddr = qcc.layout().programAddr(0, 0);
    qcc.writeProgram(qaddr, e);
    qcc.setProgramLength(0, 1);

    PipelineResult r1;
    pipe.run({qaddr}, r1);
    EXPECT_EQ(r1.pulsesGenerated, 1u);

    // Same regfile value again: SLT hit, no new pulse.
    auto e2 = qcc.readProgram(qaddr);
    e2.status = EntryStatus::Invalid;
    qcc.writeProgram(qaddr, e2);
    PipelineResult r2;
    pipe.run({qaddr}, r2);
    EXPECT_EQ(r2.pulsesGenerated, 0u);
    EXPECT_EQ(r2.sltHits, 1u);

    // New regfile value: regenerate.
    qcc.writeRegfile(5, 0x1234);
    auto e3 = qcc.readProgram(qaddr);
    e3.status = EntryStatus::Invalid;
    qcc.writeProgram(qaddr, e3);
    PipelineResult r3;
    pipe.run({qaddr}, r3);
    EXPECT_EQ(r3.pulsesGenerated, 1u);
}

TEST_F(PipelineFixture, MultiQubitWorkUsesPerQubitSlts)
{
    PulsePipeline pipe(qcc, slt);
    std::vector<std::uint64_t> work;
    for (std::uint32_t q = 0; q < 8; ++q) {
        auto w = install(q, 4, /*data_base=*/77, /*distinct=*/false);
        work.insert(work.end(), w.begin(), w.end());
    }
    PipelineResult r;
    pipe.run(work, r);
    // One pulse per qubit (same parameter within a qubit).
    EXPECT_EQ(r.pulsesGenerated, 8u);
    EXPECT_EQ(r.sltHits, 24u);
}

TEST_F(PipelineFixture, RunAllWalksInstalledPrograms)
{
    PulsePipeline pipe(qcc, slt);
    install(0, 4);
    install(3, 2, 0x100000);
    PipelineResult r;
    pipe.run(qcc.installedPrograms(), r);
    EXPECT_EQ(r.entriesProcessed, 6u);
    EXPECT_EQ(r.pulsesGenerated, 6u);
}

TEST_F(PipelineFixture, EmptyWorkCompletesInstantly)
{
    PulsePipeline pipe(qcc, slt);
    PipelineResult r;
    pipe.run({}, r);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.entriesProcessed, 0u);
}

TEST_F(PipelineFixture, BadTypeCodePanicsAtWriteback)
{
    // Type code 15 names no gate. Stage 2 accepts it (the SLT keys
    // on any 4-bit code); the PGU's decode at writeback rejects it.
    ProgramEntry e;
    e.type = 15;
    e.data = 7;
    const auto qaddr = qcc.layout().programAddr(0, 0);
    qcc.writeProgram(qaddr, e);
    qcc.setProgramLength(0, 1);
    PulsePipeline pipe(qcc, slt);
    PipelineResult r;
    EXPECT_DEATH(pipe.run({qaddr}, r), "bad gate type code");
}

TEST(Pipeline, MemoizedPulsesMatchSynthesizer)
{
    // Stage 4 records each generated pulse as its (type, resolved
    // data) descriptor. Drive it the way SPSA does: shared regfile
    // angles on every qubit, rewritten between runs, then check that
    // every program entry links to its own parameter's slot and that
    // materializing the slot equals the full-waveform synthesizer.
    using qtenon::quantum::GateType;
    EventQueue eq;
    QuantumControllerCache qcc(eq, "qcc",
                               ClockDomain::fromHz(200'000'000),
                               QccLayout{});
    const auto &layout = qcc.layout();
    SkipLookupTable slt(layout.numQubits);
    PulsePipeline pipe(qcc, slt);

    const auto code = [](GateType t) {
        return ProgramEntry::encodeType(t);
    };
    struct Slot {
        std::uint8_t type;
        bool reg;
        std::uint32_t data;
    };
    constexpr std::uint32_t qubits = 32;
    std::vector<std::uint64_t> all;
    std::vector<std::vector<std::uint64_t>> dependents(8);
    for (std::uint32_t q = 0; q < qubits; ++q) {
        const Slot slots[] = {
            {code(GateType::RX), true, 0},          // mixer angle
            {code(GateType::RZZ), true, 1},         // cost angle
            {code(GateType::RY), false, (q % 4) << 14 | 5},
            {code(GateType::RZ), true, 2 + q % 3},
            {code(GateType::H), false, 0},
            {code(GateType::RX), true, 5},          // beyond 27 bits
            {code(GateType::Measure), false, 0},
        };
        std::uint32_t i = 0;
        for (const auto &s : slots) {
            ProgramEntry e;
            e.type = s.type;
            e.regFlag = s.reg;
            e.data = s.data;
            const auto qaddr = layout.programAddr(q, i++);
            qcc.writeProgram(qaddr, e);
            all.push_back(qaddr);
            if (s.reg)
                dependents[s.data].push_back(qaddr);
        }
        qcc.setProgramLength(q, i);
    }
    const auto set_reg = [&](std::uint32_t reg, std::uint32_t value) {
        qcc.writeRegfile(reg, value);
        for (auto pq : dependents[reg]) {
            auto e = qcc.readProgram(pq);
            e.status = EntryStatus::Invalid;
            qcc.writeProgram(pq, e);
        }
    };
    set_reg(0, ProgramEntry::encodeAngle(0.7));
    set_reg(1, ProgramEntry::encodeAngle(-1.3));
    set_reg(2, ProgramEntry::encodeAngle(2.9));
    set_reg(3, ProgramEntry::encodeAngle(0.05));
    set_reg(4, ProgramEntry::encodeAngle(-3.0));
    set_reg(5, 0xF0000000u | 0x1234);

    PulseSynthesizer synth;
    const auto check_linked_pulses = [&] {
        std::size_t checked = 0;
        for (auto pq : all) {
            const auto e = qcc.readProgram(pq);
            ASSERT_EQ(e.status, EntryStatus::Valid);
            ASSERT_TRUE(qcc.pulseValid(e.qaddr));
            const auto data =
                e.regFlag ? qcc.readRegfile(e.data) : e.data;
            const auto key = qcc.readPulse(e.qaddr);
            EXPECT_EQ(pulseKeyType(key), e.type)
                << "program QAddress " << pq;
            EXPECT_EQ(pulseKeyData(key), data)
                << "program QAddress " << pq;
            EXPECT_EQ(synth.entryFor(key),
                      synth.packEntry(synth.synthesize(
                          ProgramEntry::decodeType(e.type),
                          ProgramEntry::decodeAngle(data))))
                << "program QAddress " << pq;
            ++checked;
        }
        EXPECT_EQ(checked, all.size());
    };

    PipelineResult full;
    pipe.run(all, full);
    EXPECT_EQ(full.entriesProcessed, all.size());
    check_linked_pulses();

    // Incremental runs over the stale entries only, including a
    // return to an earlier value (SLT hit, no synthesis).
    const std::pair<std::uint32_t, double> rounds[] = {
        {0, 1.1}, {2, -0.4}, {0, 0.7}, {3, 2.2}, {1, 0.9}};
    for (const auto &[reg, angle] : rounds) {
        set_reg(reg, ProgramEntry::encodeAngle(angle));
        PipelineResult r;
        pipe.run(dependents[reg], r);
        EXPECT_EQ(r.entriesProcessed, dependents[reg].size());
        check_linked_pulses();
    }
}
