/**
 * @file
 * Direct tests of the quantum controller cache: segment storage,
 * public/private enforcement, program length bookkeeping, pulse
 * validity, and SRAM port serialization.
 */

#include <gtest/gtest.h>

#include "config_error.hh"
#include "controller/qcc.hh"
#include "sim/event_queue.hh"

using namespace qtenon::controller;
using namespace qtenon::sim;
using qtenon::memory::QccLayout;

namespace {

struct QccFixture : public ::testing::Test {
    QccFixture()
        : qcc(eq, "qcc", ClockDomain::fromHz(200'000'000), QccLayout{})
    {}

    EventQueue eq;
    QuantumControllerCache qcc;
};

} // namespace

TEST_F(QccFixture, ProgramEntriesRoundTrip)
{
    ProgramEntry e;
    e.type = 0x8;
    e.regFlag = true;
    e.data = 5;
    e.status = EntryStatus::Valid;
    e.qaddr = 0x80400;
    const auto addr = qcc.layout().programAddr(3, 17);
    qcc.writeProgram(addr, e);
    EXPECT_EQ(qcc.readProgram(addr), e);
    EXPECT_EQ(qcc.programWrites.value(), 1u);
    EXPECT_EQ(qcc.programReads.value(), 1u);
}

TEST_F(QccFixture, QubitChunksAreIndependent)
{
    ProgramEntry a, b;
    a.data = 1;
    b.data = 2;
    qcc.writeProgram(qcc.layout().programAddr(0, 0), a);
    qcc.writeProgram(qcc.layout().programAddr(1, 0), b);
    EXPECT_EQ(qcc.readProgram(qcc.layout().programAddr(0, 0)).data, 1u);
    EXPECT_EQ(qcc.readProgram(qcc.layout().programAddr(1, 0)).data, 2u);
}

TEST_F(QccFixture, PulseValidityTracksWrites)
{
    const auto addr = qcc.layout().pulseAddr(2, 5);
    EXPECT_FALSE(qcc.pulseValid(addr));
    const auto key = pulseKey(0x3, 0xFEED);
    qcc.writePulse(addr, key);
    EXPECT_TRUE(qcc.pulseValid(addr));
    EXPECT_EQ(qcc.readPulse(addr), key);
}

TEST_F(QccFixture, MeasureAndRegfileStorage)
{
    qcc.writeMeasure(100, 0x1234);
    qcc.writeRegfile(7, 0xABCD);
    EXPECT_EQ(qcc.readMeasure(100), 0x1234u);
    EXPECT_EQ(qcc.readRegfile(7), 0xABCDu);
}

TEST_F(QccFixture, ProgramLengthBounded)
{
    qcc.setProgramLength(0, 1024);
    EXPECT_EQ(qcc.programLength(0), 1024u);
    EXPECT_CONFIG_ERROR(qcc.setProgramLength(0, 1025), "exceeds");
}

TEST_F(QccFixture, UserAccessRespectsPrivacy)
{
    EXPECT_TRUE(qcc.userAccessible(qcc.layout().programAddr(0, 0)));
    EXPECT_TRUE(qcc.userAccessible(qcc.layout().regfileAddr(0)));
    EXPECT_TRUE(qcc.userAccessible(qcc.layout().measureAddr(0)));
    EXPECT_FALSE(qcc.userAccessible(qcc.layout().pulseAddr(0, 0)));
}

TEST_F(QccFixture, PortSerializesAccesses)
{
    const auto t1 = qcc.portAccess(1);
    const auto t2 = qcc.portAccess(1);
    EXPECT_EQ(t2 - t1, qcc.clockPeriod());
    const auto t3 = qcc.portAccess(10);
    EXPECT_EQ(t3 - t2, 10 * qcc.clockPeriod());
}

TEST_F(QccFixture, OutOfSegmentAccessPanics)
{
    EXPECT_DEATH(qcc.readProgram(qcc.layout().pulseAddr(0, 0)),
                 "not in .program");
    EXPECT_DEATH(qcc.readMeasure(999999), "out of range");
    EXPECT_DEATH(qcc.writeRegfile(4096, 1), "out of range");
}

TEST_F(QccFixture, UnwrittenEntriesReadZeroAndInvalid)
{
    const auto &layout = qcc.layout();
    const auto last = layout.programEntriesPerQubit - 1;
    // Nothing written yet: every chunk reads as the zero entry.
    EXPECT_EQ(qcc.readProgram(layout.programAddr(0, 0)), ProgramEntry{});
    EXPECT_EQ(qcc.readProgram(layout.programAddr(63, last)),
              ProgramEntry{});
    EXPECT_EQ(qcc.readPulse(layout.pulseAddr(5, 7)), PulseKey{0});
    EXPECT_FALSE(qcc.pulseValid(layout.pulseAddr(5, 7)));

    // Writing entry 9 grows the chunk; the entries below it (inside
    // the high-water mark) and above it (past it) still read zero.
    ProgramEntry e;
    e.data = 77;
    qcc.writeProgram(layout.programAddr(4, 9), e);
    const auto key = pulseKey(0x2, 0xABC);
    qcc.writePulse(layout.pulseAddr(4, 9), key);
    for (std::uint32_t i : {0u, 8u, 10u, last}) {
        EXPECT_EQ(qcc.readProgram(layout.programAddr(4, i)),
                  ProgramEntry{}) << "entry " << i;
        EXPECT_EQ(qcc.readPulse(layout.pulseAddr(4, i)), PulseKey{0})
            << "entry " << i;
        EXPECT_FALSE(qcc.pulseValid(layout.pulseAddr(4, i)))
            << "entry " << i;
    }
    EXPECT_EQ(qcc.readProgram(layout.programAddr(4, 9)), e);
    EXPECT_EQ(qcc.readPulse(layout.pulseAddr(4, 9)), key);
    EXPECT_TRUE(qcc.pulseValid(layout.pulseAddr(4, 9)));
}

TEST_F(QccFixture, HighWaterGrowthIsPerQubit)
{
    const auto &layout = qcc.layout();
    // Fill qubit 1 from entry 0 upward, as q_set and the SLT
    // allocator do, then grow it to the top of its chunk.
    ProgramEntry neighbour;
    neighbour.data = 5;
    qcc.writeProgram(layout.programAddr(0, 3), neighbour);
    qcc.writeProgram(layout.programAddr(2, 3), neighbour);
    qcc.writePulse(layout.pulseAddr(2, 3), pulseKey(0x0, 1));
    for (std::uint32_t i = 0; i < layout.programEntriesPerQubit; ++i) {
        ProgramEntry e;
        e.data = i + 1;
        qcc.writeProgram(layout.programAddr(1, i), e);
        qcc.writePulse(layout.pulseAddr(1, i), pulseKey(0x1, i + 1));
    }
    for (std::uint32_t i = 0; i < layout.programEntriesPerQubit; ++i) {
        ASSERT_EQ(qcc.readProgram(layout.programAddr(1, i)).data, i + 1);
        ASSERT_EQ(qcc.readPulse(layout.pulseAddr(1, i)),
                  pulseKey(0x1, i + 1));
        ASSERT_TRUE(qcc.pulseValid(layout.pulseAddr(1, i)));
    }
    // The neighbours keep their contents and their own marks.
    for (std::uint32_t q : {0u, 2u}) {
        EXPECT_EQ(qcc.readProgram(layout.programAddr(q, 3)), neighbour);
        EXPECT_EQ(qcc.readProgram(layout.programAddr(q, 4)),
                  ProgramEntry{});
        EXPECT_FALSE(qcc.pulseValid(layout.pulseAddr(q, 4)));
    }
    EXPECT_FALSE(qcc.pulseValid(layout.pulseAddr(0, 3)));
    EXPECT_TRUE(qcc.pulseValid(layout.pulseAddr(2, 3)));
    EXPECT_EQ(qcc.readPulse(layout.pulseAddr(2, 3)), pulseKey(0x0, 1));
    EXPECT_FALSE(qcc.pulseValid(layout.pulseAddr(3, 0)));
}
