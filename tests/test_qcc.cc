/**
 * @file
 * Direct tests of the quantum controller cache: segment storage,
 * public/private enforcement, program length bookkeeping, pulse
 * validity, and SRAM port serialization.
 */

#include <gtest/gtest.h>

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
    PulseEntry p{};
    p[0] = 0xFEED;
    qcc.writePulse(addr, p);
    EXPECT_TRUE(qcc.pulseValid(addr));
    EXPECT_EQ(qcc.readPulse(addr)[0], 0xFEEDu);
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
    EXPECT_EXIT(qcc.setProgramLength(0, 1025),
                ::testing::ExitedWithCode(1), "exceeds");
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
