/**
 * @file
 * Tests for the RBQ (in-order release of out-of-order responses),
 * the soft memory barrier, and the ADI bandwidth arithmetic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "controller/adi.hh"
#include "controller/barrier.hh"
#include "controller/rbq.hh"

using namespace qtenon::controller;
using qtenon::sim::nsTicks;

TEST(Rbq, DeliversInIssueOrder)
{
    ReorderBufferQueue<std::string> rbq;
    std::vector<std::string> delivered;
    auto deliver = [&](std::uint8_t, const std::string &p) {
        delivered.push_back(p);
    };

    rbq.expect(3);
    rbq.expect(7);
    rbq.expect(1);

    // Responses arrive out of order.
    rbq.arrive(7, "b", deliver);
    EXPECT_TRUE(delivered.empty()); // blocked behind tag 3
    rbq.arrive(1, "c", deliver);
    EXPECT_TRUE(delivered.empty());
    rbq.arrive(3, "a", deliver);
    EXPECT_EQ(delivered,
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(rbq.pending(), 0u);
    EXPECT_EQ(rbq.reorderedArrivals(), 2u);
}

TEST(Rbq, InOrderArrivalsFlowThrough)
{
    ReorderBufferQueue<int> rbq;
    std::vector<int> out;
    auto deliver = [&](std::uint8_t, const int &v) {
        out.push_back(v);
    };
    for (std::uint8_t t = 0; t < 5; ++t) {
        rbq.expect(t);
        rbq.arrive(t, t * 10, deliver);
    }
    EXPECT_EQ(out, (std::vector<int>{0, 10, 20, 30, 40}));
    EXPECT_EQ(rbq.reorderedArrivals(), 0u);
}

TEST(Rbq, TagsCanBeReused)
{
    ReorderBufferQueue<int> rbq;
    std::vector<int> out;
    auto deliver = [&](std::uint8_t, const int &v) {
        out.push_back(v);
    };
    rbq.expect(2);
    rbq.arrive(2, 1, deliver);
    rbq.expect(2);
    rbq.arrive(2, 2, deliver);
    EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(Rbq, TracksMaxOccupancy)
{
    ReorderBufferQueue<int> rbq;
    for (std::uint8_t t = 0; t < 12; ++t)
        rbq.expect(t);
    EXPECT_EQ(rbq.maxOccupancy(), 12u);
}

TEST(Barrier, UnsyncedUntilMarked)
{
    MemoryBarrier b;
    EXPECT_FALSE(b.query(0x1000, 8));
    b.markSynced(0x1000, 64);
    EXPECT_TRUE(b.query(0x1000, 8));
    EXPECT_TRUE(b.query(0x1038, 8));
    EXPECT_FALSE(b.query(0x1040, 8)); // one past the end
}

TEST(Barrier, MergesAdjacentIntervals)
{
    MemoryBarrier b;
    b.markSynced(0x100, 0x10);
    b.markSynced(0x110, 0x10); // adjacent
    b.markSynced(0x200, 0x10); // separate
    EXPECT_EQ(b.syncedIntervals(), 2u);
    EXPECT_TRUE(b.query(0x100, 0x20)); // spans the merged pair
    EXPECT_FALSE(b.query(0x100, 0x110));
}

TEST(Barrier, MergesOverlappingIntervals)
{
    MemoryBarrier b;
    b.markSynced(0x100, 0x20);
    b.markSynced(0x110, 0x30); // overlaps the first
    EXPECT_EQ(b.syncedIntervals(), 1u);
    EXPECT_TRUE(b.query(0x100, 0x40));
}

TEST(Barrier, CountsMissQueries)
{
    MemoryBarrier b;
    b.query(0x0);
    b.markSynced(0x0, 8);
    b.query(0x0);
    EXPECT_EQ(b.queries(), 2u);
    EXPECT_EQ(b.missQueries(), 1u);
}

namespace {

/**
 * The barrier's interval merge without the in-order fast path: erase
 * every overlapping or adjacent interval and insert their union.
 */
void
referenceMarkSynced(std::map<std::uint64_t, std::uint64_t> &synced,
                    std::uint64_t addr, std::uint64_t size)
{
    if (size == 0)
        return;
    std::uint64_t lo = addr;
    std::uint64_t hi = addr + size;
    auto it = synced.lower_bound(lo);
    if (it != synced.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= lo)
            it = prev;
    }
    while (it != synced.end() && it->first <= hi) {
        lo = std::min(lo, it->first);
        hi = std::max(hi, it->second);
        it = synced.erase(it);
    }
    synced.insert({lo, hi});
}

bool
referenceQuery(const std::map<std::uint64_t, std::uint64_t> &synced,
               std::uint64_t addr, std::uint64_t size)
{
    auto it = synced.upper_bound(addr);
    if (it == synced.begin())
        return false;
    --it;
    return it->first <= addr && it->second >= addr + size;
}

} // namespace

TEST(Barrier, MatchesMergeReferenceOnSeededRanges)
{
    // Contiguous PUT streams (the fast path), overlaps, gaps and
    // out-of-order ranges, checked after every mark: same interval
    // count, same answers at and around every interval edge, and at
    // random probes.
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        std::mt19937_64 rng(seed);
        MemoryBarrier b;
        std::map<std::uint64_t, std::uint64_t> ref;
        std::uint64_t cursor = 0x1000;
        for (int op = 0; op < 400; ++op) {
            std::uint64_t addr;
            std::uint64_t size = 1 + rng() % 96;
            switch (rng() % 6) {
              case 0:
              case 1: // contiguous with the previous range
                addr = cursor;
                break;
              case 2: // overlapping the previous range's tail
                addr = cursor - std::min<std::uint64_t>(
                    cursor, 1 + rng() % 32);
                break;
              case 3: // leaving a gap
                addr = cursor + 1 + rng() % 64;
                break;
              case 4: // out of order, anywhere below
                addr = rng() % cursor;
                break;
              default: // a zero-sized mark is ignored
                addr = rng() % (cursor + 64);
                size = rng() % 2 ? 0 : size;
                break;
            }
            b.markSynced(addr, size);
            referenceMarkSynced(ref, addr, size);
            cursor = std::max(cursor, addr + size);

            ASSERT_EQ(b.syncedIntervals(), ref.size())
                << "seed " << seed << " op " << op;
            for (const auto &[lo, hi] : ref) {
                ASSERT_TRUE(b.query(lo, hi - lo)) << "op " << op;
                ASSERT_FALSE(b.query(hi, 1)) << "op " << op;
                if (lo > 0) {
                    ASSERT_FALSE(b.query(lo - 1, 1)) << "op " << op;
                }
            }
            for (int p = 0; p < 8; ++p) {
                const std::uint64_t a = rng() % (cursor + 64);
                const std::uint64_t n = 1 + rng() % 128;
                ASSERT_EQ(b.query(a, n), referenceQuery(ref, a, n))
                    << "seed " << seed << " op " << op;
            }
        }
    }
}

TEST(Adi, PaperBandwidthNumbers)
{
    AdiModel adi;
    // 16 bits x 2 DACs x 2 GHz = 64 bits/ns = 8 GB/s per qubit.
    EXPECT_DOUBLE_EQ(adi.requiredBitsPerNs(), 64.0);
    // 640-bit entries at 200 MHz = 128 bits/ns supplied.
    EXPECT_DOUBLE_EQ(adi.suppliedBitsPerNs(), 128.0);
    EXPECT_TRUE(adi.bandwidthSufficient());
    // One 640-bit entry plays for 10 ns.
    EXPECT_EQ(adi.entryPlayTime(), 10 * nsTicks);
}

TEST(Adi, LatencyComposition)
{
    AdiModel adi;
    EXPECT_EQ(adi.inputLatency(), 100 * nsTicks);
    EXPECT_EQ(adi.outputLatency(0), 100 * nsTicks);
    EXPECT_EQ(adi.outputLatency(5), (100 + 50) * nsTicks);
}

TEST(Adi, UndersizedSramFlagsInsufficientBandwidth)
{
    AdiConfig cfg;
    cfg.sramFreqHz = 50'000'000; // 50 MHz x 640 b = 32 bits/ns < 64
    AdiModel adi(cfg);
    EXPECT_FALSE(adi.bandwidthSufficient());
}
