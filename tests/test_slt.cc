/**
 * @file
 * Tests of the Skip Lookup Table: hit/miss behaviour, Least-Count
 * replacement, QSpace write-back and re-load, per-qubit isolation,
 * the pulse-entry allocator, and a seeded differential check against
 * a map-backed reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "config_error.hh"
#include "controller/slt.hh"

using namespace qtenon::controller;

namespace {

constexpr std::uint32_t pulseChunk = 1024;

} // namespace

TEST(Slt, FirstLookupMissesAndAllocates)
{
    SkipLookupTable slt(4);
    auto r = slt.lookup(0, 3, 100, pulseChunk);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.qspaceHit);
    EXPECT_TRUE(r.needsGeneration);
    EXPECT_EQ(r.pulseEntry, 0u);
    EXPECT_EQ(slt.misses, 1u);
    EXPECT_EQ(slt.qspaceAllocs, 1u);
}

TEST(Slt, RepeatLookupHits)
{
    SkipLookupTable slt(4);
    auto first = slt.lookup(0, 3, 100, pulseChunk);
    auto second = slt.lookup(0, 3, 100, pulseChunk);
    EXPECT_TRUE(second.hit);
    EXPECT_FALSE(second.needsGeneration);
    EXPECT_EQ(second.pulseEntry, first.pulseEntry);
    EXPECT_EQ(slt.hits, 1u);
    // A hit costs only the probe cycle.
    EXPECT_EQ(second.cycles, slt.config().lookupCycles);
}

TEST(Slt, DistinctParametersGetDistinctPulses)
{
    SkipLookupTable slt(4);
    auto a = slt.lookup(0, 3, 100, pulseChunk);
    auto b = slt.lookup(0, 3, 200, pulseChunk);
    auto c = slt.lookup(0, 4, 100, pulseChunk);
    EXPECT_NE(a.pulseEntry, b.pulseEntry);
    EXPECT_NE(a.pulseEntry, c.pulseEntry);
}

TEST(Slt, QubitsAreIsolated)
{
    SkipLookupTable slt(4);
    slt.lookup(0, 3, 100, pulseChunk);
    auto other = slt.lookup(1, 3, 100, pulseChunk);
    // Same parameter on a different qubit is a fresh miss.
    EXPECT_FALSE(other.hit);
    EXPECT_TRUE(other.needsGeneration);
}

TEST(Slt, IndexConcatenatesTypeAndData)
{
    // 3 bits of type, 4 bits of (truncated) data.
    EXPECT_EQ(SkipLookupTable::indexOf(0, 0), 0u);
    EXPECT_EQ(SkipLookupTable::indexOf(7, 0), 7u << 4);
    EXPECT_LT(SkipLookupTable::indexOf(0xF, 0x7FFFFFF), 128u);
}

TEST(Slt, LeastCountEviction)
{
    SkipLookupTable slt(1);
    // Two parameters landing on the same index fill both ways; the
    // hotter one must survive a third conflicting insert.
    // Construct colliding data values: indexOf uses data bits 13:10.
    const std::uint32_t base = 0;
    const std::uint32_t d1 = base;            // same index
    const std::uint32_t d2 = base + 1;        // same index bits
    const std::uint32_t d3 = base + 2;        // same index bits
    ASSERT_EQ(SkipLookupTable::indexOf(1, d1),
              SkipLookupTable::indexOf(1, d2));
    ASSERT_EQ(SkipLookupTable::indexOf(1, d1),
              SkipLookupTable::indexOf(1, d3));

    slt.lookup(0, 1, d1, pulseChunk);
    slt.lookup(0, 1, d2, pulseChunk);
    // Heat up d1.
    slt.lookup(0, 1, d1, pulseChunk);
    slt.lookup(0, 1, d1, pulseChunk);

    // Insert d3: evicts d2 (least count).
    auto r3 = slt.lookup(0, 1, d3, pulseChunk);
    EXPECT_TRUE(r3.evicted);
    EXPECT_EQ(slt.evictions, 1u);

    // d1 must still hit; d2 must now come from QSpace.
    auto r1 = slt.lookup(0, 1, d1, pulseChunk);
    EXPECT_TRUE(r1.hit);
    auto r2 = slt.lookup(0, 1, d2, pulseChunk);
    EXPECT_FALSE(r2.hit);
    EXPECT_TRUE(r2.qspaceHit);
    EXPECT_FALSE(r2.needsGeneration); // pulse already exists
}

TEST(Slt, QspaceHitAvoidsRegeneration)
{
    SkipLookupTable slt(1);
    const std::uint32_t d1 = 0, d2 = 1, d3 = 2;
    auto first = slt.lookup(0, 1, d1, pulseChunk);
    slt.lookup(0, 1, d2, pulseChunk);
    slt.lookup(0, 1, d3, pulseChunk); // evicts least-count

    // Whatever was evicted, looking it up again returns the original
    // pulse entry without regeneration.
    auto again = slt.lookup(0, 1, d1, pulseChunk);
    EXPECT_EQ(again.pulseEntry, first.pulseEntry);
    EXPECT_FALSE(again.needsGeneration);
}

TEST(Slt, MissCostsIncludeQspaceAccess)
{
    SkipLookupTable slt(1);
    auto miss = slt.lookup(0, 1, 0, pulseChunk);
    const auto &cfg = slt.config();
    EXPECT_EQ(miss.cycles,
              cfg.lookupCycles + cfg.qspaceAccessCycles);
}

TEST(Slt, EvictionCostsTwoQspaceAccesses)
{
    SkipLookupTable slt(1);
    slt.lookup(0, 1, 0, pulseChunk);
    slt.lookup(0, 1, 1, pulseChunk);
    auto evicting = slt.lookup(0, 1, 2, pulseChunk);
    ASSERT_TRUE(evicting.evicted);
    const auto &cfg = slt.config();
    EXPECT_EQ(evicting.cycles,
              cfg.lookupCycles + 2 * cfg.qspaceAccessCycles);
}

TEST(Slt, ResetForgetsEverything)
{
    SkipLookupTable slt(2);
    slt.lookup(0, 1, 5, pulseChunk);
    slt.reset();
    EXPECT_EQ(slt.hits, 0u);
    EXPECT_EQ(slt.misses, 0u);
    auto r = slt.lookup(0, 1, 5, pulseChunk);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.qspaceHit);
    EXPECT_EQ(r.pulseEntry, 0u); // allocator restarted
}

TEST(Slt, AllocatorAdvancesSequentially)
{
    SkipLookupTable slt(1);
    for (std::uint32_t i = 0; i < 5; ++i) {
        auto r = slt.lookup(0, 2, 0x10000 * i, pulseChunk);
        EXPECT_EQ(r.pulseEntry, i);
    }
}

class SltWorkingSet
    : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(SltWorkingSet, SteadyStateHitRateIsHighWithinCapacity)
{
    // Working sets whose per-index load fits the 2 ways should hit
    // on a re-walk. Values i*0x400 spread data bits 13:10 over the
    // 16 per-type indexes, so up to 32 such values fit exactly.
    SkipLookupTable slt(1);
    const auto distinct = GetParam();
    for (std::uint32_t i = 0; i < distinct; ++i)
        slt.lookup(0, 1, i * 0x400u + 7u, pulseChunk);
    const auto misses_before = slt.misses;
    for (std::uint32_t i = 0; i < distinct; ++i)
        slt.lookup(0, 1, i * 0x400u + 7u, pulseChunk);
    const auto new_misses = slt.misses - misses_before;
    EXPECT_EQ(new_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SltWorkingSet,
                         ::testing::Values(8u, 16u, 32u));

namespace {

/**
 * The SLT as first written: one struct per way and a node-based
 * std::unordered_map QSpace per qubit. The packed-way table with the
 * open-addressed QSpace must reproduce it call for call.
 */
class ReferenceSlt
{
  public:
    ReferenceSlt(std::uint32_t num_qubits, SltConfig cfg)
        : _cfg(cfg), _numQubits(num_qubits),
          _entries(std::size_t(num_qubits) * cfg.entriesPerWay *
                   cfg.ways),
          _qspace(num_qubits), _nextPulseEntry(num_qubits, 0)
    {}

    SltResult
    lookup(std::uint32_t qubit, std::uint8_t type, std::uint32_t data,
           std::uint32_t chunk)
    {
        SltResult r;
        r.cycles = _cfg.lookupCycles;
        const auto index =
            SkipLookupTable::indexOf(type, data) % _cfg.entriesPerWay;
        const auto tag = tagOf(type, data);
        const std::uint32_t count_max = (1u << _cfg.countBits) - 1;
        for (std::uint32_t w = 0; w < _cfg.ways; ++w) {
            auto &e = at(qubit, index, w);
            if (e.valid && e.tag == tag) {
                ++hits;
                if (e.count < count_max)
                    ++e.count;
                r.hit = true;
                r.pulseEntry = e.pulseEntry;
                return r;
            }
        }
        ++misses;
        std::uint32_t victim = 0;
        bool found_invalid = false;
        std::uint32_t least = ~std::uint32_t(0);
        for (std::uint32_t w = 0; w < _cfg.ways; ++w) {
            auto &e = at(qubit, index, w);
            if (!e.valid) {
                victim = w;
                found_invalid = true;
                break;
            }
            if (e.count < least) {
                least = e.count;
                victim = w;
            }
        }
        auto &v = at(qubit, index, victim);
        if (!found_invalid && v.valid) {
            ++evictions;
            r.evicted = true;
            _qspace[qubit][v.tag] = v.pulseEntry;
            r.cycles += _cfg.qspaceAccessCycles;
        }
        r.cycles += _cfg.qspaceAccessCycles;
        auto it = _qspace[qubit].find(tag);
        std::uint32_t pulse_entry;
        if (it != _qspace[qubit].end()) {
            ++qspaceHits;
            r.qspaceHit = true;
            pulse_entry = it->second;
        } else {
            ++qspaceAllocs;
            pulse_entry = _nextPulseEntry[qubit];
            _nextPulseEntry[qubit] = (pulse_entry + 1) % chunk;
            r.needsGeneration = true;
        }
        v.valid = true;
        v.tag = tag;
        v.pulseEntry = pulse_entry;
        v.count = 1;
        r.pulseEntry = pulse_entry;
        return r;
    }

    std::uint32_t
    allocate(std::uint32_t qubit, std::uint32_t chunk)
    {
        const auto entry = _nextPulseEntry[qubit];
        _nextPulseEntry[qubit] = (entry + 1) % chunk;
        return entry;
    }

    void
    reset()
    {
        for (auto &e : _entries)
            e = Entry{};
        for (auto &m : _qspace)
            m.clear();
        std::fill(_nextPulseEntry.begin(), _nextPulseEntry.end(), 0);
        hits = misses = qspaceHits = qspaceAllocs = evictions = 0;
    }

    std::uint64_t hits = 0, misses = 0, qspaceHits = 0,
                  qspaceAllocs = 0, evictions = 0;

  private:
    struct Entry {
        std::uint32_t tag = 0;
        std::uint32_t pulseEntry = 0;
        bool valid = false;
        std::uint32_t count = 0;
    };

    std::uint32_t
    tagOf(std::uint8_t type, std::uint32_t data) const
    {
        std::uint64_t key =
            (std::uint64_t(type) << 27) | (data & ((1u << 27) - 1));
        key ^= key >> 13;
        key *= 0x9E3779B97F4A7C15ull;
        key ^= key >> 29;
        return static_cast<std::uint32_t>(
            key & ((1u << _cfg.tagBits) - 1));
    }

    Entry &
    at(std::uint32_t qubit, std::uint32_t index, std::uint32_t way)
    {
        return _entries[std::size_t(qubit) * _cfg.entriesPerWay *
                            _cfg.ways +
                        std::size_t(index) * _cfg.ways + way];
    }

    SltConfig _cfg;
    std::uint32_t _numQubits;
    std::vector<Entry> _entries;
    std::vector<std::unordered_map<std::uint32_t, std::uint32_t>>
        _qspace;
    std::vector<std::uint32_t> _nextPulseEntry;
};

struct SltGeometry {
    std::uint32_t ways;
    std::uint32_t entriesPerWay;
    std::uint32_t countBits;
};

class SltMatchesReference : public ::testing::TestWithParam<SltGeometry>
{};

} // namespace

TEST_P(SltMatchesReference, SeededCorpus)
{
    const auto g = GetParam();
    SltConfig cfg;
    cfg.ways = g.ways;
    cfg.entriesPerWay = g.entriesPerWay;
    cfg.countBits = g.countBits;
    constexpr std::uint32_t qubits = 3;
    // A small chunk so the allocator wraps and QSpace tags outlive
    // the pulse slot they first named.
    constexpr std::uint32_t chunk = 512;

    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SkipLookupTable slt(qubits, cfg);
        ReferenceSlt ref(qubits, cfg);
        std::mt19937_64 rng(seed);

        // Hot parameters crowd 4 sets per type, so every geometry
        // evicts; cold ones are fresh 27-bit data.
        std::vector<std::pair<std::uint8_t, std::uint32_t>> hot;
        for (int i = 0; i < 48; ++i) {
            hot.push_back({static_cast<std::uint8_t>(rng() % 16),
                           static_cast<std::uint32_t>(
                               ((rng() % 4) << 10) |
                               ((rng() % 64) << 14) | (rng() % 1024))});
        }
        std::uint64_t evicted = 0, qspace_hits = 0;
        const auto check = [&](const SltResult &a, const SltResult &b,
                               int op) {
            evicted += b.evicted;
            qspace_hits += b.qspaceHit;
            ASSERT_EQ(a.hit, b.hit) << "seed " << seed << " op " << op;
            ASSERT_EQ(a.qspaceHit, b.qspaceHit) << "op " << op;
            ASSERT_EQ(a.evicted, b.evicted) << "op " << op;
            ASSERT_EQ(a.pulseEntry, b.pulseEntry) << "op " << op;
            ASSERT_EQ(a.needsGeneration, b.needsGeneration)
                << "op " << op;
            ASSERT_EQ(a.cycles, b.cycles) << "op " << op;
        };

        for (int op = 0; op < 20000; ++op) {
            const auto r = rng() % 1000;
            const auto q = static_cast<std::uint32_t>(rng() % qubits);
            if (r < 700) {
                const auto &[type, data] = hot[rng() % hot.size()];
                check(slt.lookup(q, type, data, chunk),
                      ref.lookup(q, type, data, chunk), op);
            } else if (r < 940) {
                const auto type = static_cast<std::uint8_t>(rng() % 16);
                const auto data =
                    static_cast<std::uint32_t>(rng() & ((1u << 27) - 1));
                check(slt.lookup(q, type, data, chunk),
                      ref.lookup(q, type, data, chunk), op);
            } else if (r < 990) {
                // Hammer one hot parameter past count saturation.
                const auto &[type, data] = hot[rng() % hot.size()];
                const int n = 1 + static_cast<int>(
                    rng() % (2u << g.countBits));
                for (int i = 0; i < n; ++i) {
                    check(slt.lookup(q, type, data, chunk),
                          ref.lookup(q, type, data, chunk), op);
                }
            } else if (r < 998) {
                ASSERT_EQ(slt.allocate(q, chunk), ref.allocate(q, chunk));
            } else {
                slt.reset();
                ref.reset();
            }
            if (::testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_EQ(slt.hits, ref.hits);
        EXPECT_EQ(slt.misses, ref.misses);
        EXPECT_EQ(slt.qspaceHits, ref.qspaceHits);
        EXPECT_EQ(slt.qspaceAllocs, ref.qspaceAllocs);
        EXPECT_EQ(slt.evictions, ref.evictions);
        // The corpus exercised every path it is meant to.
        EXPECT_GT(evicted, 1000u);
        EXPECT_GT(qspace_hits, 1000u);
    }
}

// countBits 11 is the widest count the packed way holds beside the
// default 20-bit tag.
INSTANTIATE_TEST_SUITE_P(
    Geometries, SltMatchesReference,
    ::testing::Values(SltGeometry{1, 16, 5}, SltGeometry{2, 128, 5},
                      SltGeometry{4, 32, 5}, SltGeometry{1, 16, 11},
                      SltGeometry{2, 128, 11}, SltGeometry{4, 32, 11}),
    [](const ::testing::TestParamInfo<SltGeometry> &info) {
        const auto &g = info.param;
        return std::to_string(g.ways) + "x" +
            std::to_string(g.entriesPerWay) + "_count" +
            std::to_string(g.countBits);
    });

TEST(Slt, RejectsWidthsBeyondThePackedWay)
{
    SltConfig cfg;
    cfg.countBits = 32 - cfg.tagBits; // one bit too many
    EXPECT_CONFIG_ERROR(SkipLookupTable(1, cfg), "must fit");
    cfg.countBits = 0;
    EXPECT_CONFIG_ERROR(SkipLookupTable(1, cfg), "must fit");
    SltConfig no_ways;
    no_ways.ways = 0;
    EXPECT_CONFIG_ERROR(SkipLookupTable(1, no_ways), "at least one way");
}
