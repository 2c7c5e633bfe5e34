/**
 * @file
 * Equivalence tests for sim::Rng's in-house Mersenne Twister and the
 * integer coin threshold: both must reproduce, bit for bit, what the
 * standard engine and a double compare produce on the same draws.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "service/job.hh"
#include "sim/random.hh"
#include "random_bodies.hh"

using namespace qtenon;
using sim::CoinThreshold;
using sim::Mt19937_64;
using sim::Rng;

namespace {

/** The seeds every engine check runs over. */
std::vector<std::uint64_t>
seeds()
{
    return {0,
            1,
            5489,
            0x51a3b5,
            std::numeric_limits<std::uint64_t>::max(),
            service::deriveJobSeed(1, 3)};
}

/** sim::Rng as it was, on the standard engine. */
class ReferenceRng
{
  public:
    explicit ReferenceRng(std::uint64_t seed) : _engine(seed) {}

    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(_engine);
    }
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(_engine);
    }
    std::uint64_t
    index(std::uint64_t n)
    {
        return std::uniform_int_distribution<std::uint64_t>(
            0, n - 1)(_engine);
    }
    bool coin(double p) { return uniform() < p; }
    double
    normal()
    {
        return std::normal_distribution<double>(0.0, 1.0)(_engine);
    }
    double rademacher() { return coin(0.5) ? 1.0 : -1.0; }
    std::mt19937_64 &engine() { return _engine; }

  private:
    std::mt19937_64 _engine;
};

/** A generator that yields one fixed draw. */
struct FixedDraw {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }
    result_type operator()() { return x; }
    std::uint64_t x;
};

/** Rng::uniform() on the raw draw @p x. */
double
canonical(std::uint64_t x)
{
    FixedDraw g{x};
    return std::uniform_real_distribution<double>(0.0, 1.0)(g);
}

std::uint64_t
bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

} // namespace

TEST(RandomEngine, MatchesStandardEngineAcrossThreeTwists)
{
    constexpr int draws = 3 * 312 + 7;
    for (auto seed : seeds()) {
        SCOPED_TRACE(seed);
        std::mt19937_64 reference(seed);
        Rng rng(seed);
        for (int i = 0; i < draws; ++i)
            ASSERT_EQ(rng.engine()(), reference()) << "draw " << i;
    }
}

TEST(RandomEngine, FillMatchesPerDrawCalls)
{
    // Fill sizes around the 312-word block, then a seeded mix; after
    // each fill one raw() or uniform() moves the block offset.
    std::vector<std::size_t> sizes = {0, 1, 311, 312, 313, 1000, 0, 312};
    std::mt19937_64 mix(17);
    for (int i = 0; i < 40; ++i)
        sizes.push_back(mix() % 700);
    constexpr std::uint64_t sentinel = 0x5eed5eed5eed5eedu;
    for (const auto &[name, bodies] : tests::bodyBuilds()) {
        SCOPED_TRACE(name);
        for (auto seed : seeds()) {
            SCOPED_TRACE(seed);
            Rng rng(seed);
            ReferenceRng ref(seed);
            for (std::size_t i = 0; i < sizes.size(); ++i) {
                const std::size_t n = sizes[i];
                std::vector<std::uint64_t> out(n + 1, sentinel);
                bodies->fill(rng.engine().state(), out.data(), n);
                for (std::size_t k = 0; k < n; ++k)
                    ASSERT_EQ(out[k], ref.engine()())
                        << "fill " << i << " draw " << k;
                ASSERT_EQ(out[n], sentinel) << "fill " << i;
                if (i % 3 == 0) {
                    ASSERT_EQ(rng.raw(), ref.engine()());
                } else if (i % 3 == 1) {
                    ASSERT_EQ(bits(rng.uniform()), bits(ref.uniform()));
                }
            }
            std::vector<std::uint64_t> out(500);
            rng.fill(out.data(), out.size());
            for (auto x : out)
                ASSERT_EQ(x, ref.engine()());
            EXPECT_EQ(rng.raw(), ref.engine()());
        }
    }
}

TEST(RandomEngine, DefaultSeedHitsTheStandardsTenThousandthValue)
{
    Mt19937_64 engine(5489); // the standard engine's default seed
    for (int i = 1; i < 10000; ++i)
        engine();
    EXPECT_EQ(engine(), 9981545732273789042u);
}

TEST(RandomEngine, DistributionsMatchStandardEngineReference)
{
    for (auto seed : seeds()) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        ReferenceRng ref(seed);
        for (int i = 0; i < 500; ++i) {
            ASSERT_EQ(bits(rng.uniform()), bits(ref.uniform()));
            ASSERT_EQ(bits(rng.uniform(-2.5, 7.0)),
                      bits(ref.uniform(-2.5, 7.0)));
            ASSERT_EQ(rng.index(7), ref.index(7));
            ASSERT_EQ(rng.index(std::uint64_t(1) << 40),
                      ref.index(std::uint64_t(1) << 40));
            ASSERT_EQ(bits(rng.normal()), bits(ref.normal()));
            ASSERT_EQ(bits(rng.rademacher()), bits(ref.rademacher()));
            ASSERT_EQ(rng.coin(0.3), ref.coin(0.3));
        }
        std::vector<int> a(97), b(97);
        std::iota(a.begin(), a.end(), 0);
        std::iota(b.begin(), b.end(), 0);
        std::shuffle(a.begin(), a.end(), rng.engine());
        std::shuffle(b.begin(), b.end(), ref.engine());
        EXPECT_EQ(a, b);
        EXPECT_EQ(rng.raw(), ref.engine()());
    }
}

TEST(CoinThreshold, MatchesDoubleCompareAtTheBoundary)
{
    const double probabilities[] = {
        0.0, -0.0, 5e-324, 0x1p-64, 0x1p-53, 0.25, 0.5,
        1.0 - 0x1p-53, std::nextafter(1.0, 0.0), 1.0, 1.5,
        std::numeric_limits<double>::quiet_NaN()};
    std::mt19937_64 draws(11);
    for (double p : probabilities) {
        SCOPED_TRACE(p);
        const CoinThreshold coin(p);
        const auto t = coin.threshold();
        EXPECT_EQ(coin.always(), p >= 1.0);
        const std::uint64_t xs[] = {
            t - 1, t, t + 1, 0, ~std::uint64_t(0), draws(), draws()};
        for (auto x : xs)
            ASSERT_EQ(coin(x), canonical(x) < p) << "draw " << x;
    }
}

TEST(CoinThreshold, MatchesDoubleCompareAtDrawnProbabilities)
{
    // p equal to uniform() of some draw, and its neighbours, at every
    // magnitude: the threshold must land on the first draw at or
    // above p, ties to even mantissa included.
    std::mt19937_64 draws(13);
    for (int i = 0; i < 20000; ++i) {
        const double at = canonical(draws() >> (i % 64));
        for (double p : {at, std::nextafter(at, 0.0),
                         std::nextafter(at, 1.0)}) {
            const CoinThreshold coin(p);
            const auto t = coin.threshold();
            for (auto x : {t - 1, t, t + 1, draws(), draws() >> 20})
                ASSERT_EQ(coin(x), canonical(x) < p)
                    << "p " << p << " draw " << x;
        }
    }
}

TEST(CoinThreshold, ConsumesTheSameDrawAsCoin)
{
    for (auto seed : seeds()) {
        Rng fast(seed), slow(seed);
        for (double p : {0.0, 1e-3, 0.5, 0.875, 1.0}) {
            const CoinThreshold coin(p);
            for (int i = 0; i < 200; ++i)
                ASSERT_EQ(coin(fast.raw()), slow.coin(p));
        }
    }
}
