/**
 * @file
 * Unit tests for clock-domain arithmetic and time conversions.
 */

#include <gtest/gtest.h>

#include "sim/sim_object.hh"
#include "sim/types.hh"

using namespace qtenon::sim;

TEST(ClockDomain, PeriodFromHz)
{
    auto d = ClockDomain::fromHz(1'000'000'000ull); // 1 GHz
    EXPECT_EQ(d.period(), 1000u);                   // 1 ns in ps
    auto d2 = ClockDomain::fromHz(200'000'000ull);  // 200 MHz
    EXPECT_EQ(d2.period(), 5000u);                  // 5 ns
}

TEST(ClockDomain, ClockEdgeRoundsUp)
{
    ClockDomain d(1000);
    EXPECT_EQ(d.clockEdgeAt(0), 0u);
    EXPECT_EQ(d.clockEdgeAt(1), 1000u);
    EXPECT_EQ(d.clockEdgeAt(999), 1000u);
    EXPECT_EQ(d.clockEdgeAt(1000), 1000u);
    EXPECT_EQ(d.clockEdgeAt(1001, 2), 4000u);
}

TEST(ClockDomain, CycleConversions)
{
    ClockDomain d(5000); // 200 MHz
    EXPECT_EQ(d.cyclesToTicks(3), 15000u);
    EXPECT_EQ(d.ticksToCycles(15000), 3u);
    EXPECT_EQ(d.ticksToCycles(15001), 4u);
    EXPECT_EQ(d.cyclesAt(14999), 2u);
}

TEST(Clocked, TracksItsDomain)
{
    EventQueue eq;
    Clocked c(eq, "clk", ClockDomain(2000));
    EXPECT_EQ(c.clockPeriod(), 2000u);
    EXPECT_EQ(c.curCycle(), 0u);
    eq.run(5000);
    EXPECT_EQ(c.curCycle(), 2u);
    EXPECT_EQ(c.clockEdge(1), 8000u);
}

TEST(Types, TimeConversions)
{
    EXPECT_DOUBLE_EQ(ticksToNs(1500), 1.5);
    EXPECT_DOUBLE_EQ(ticksToUs(2'500'000), 2.5);
    EXPECT_DOUBLE_EQ(ticksToMs(3 * msTicks), 3.0);
    EXPECT_DOUBLE_EQ(ticksToS(sTicks / 2), 0.5);
    EXPECT_EQ(periodFromHz(2'000'000'000ull), 500u);
}
