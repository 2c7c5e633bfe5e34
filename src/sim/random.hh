/**
 * @file
 * Deterministic random number generation for reproducible runs.
 *
 * All stochastic behaviour in the simulator (measurement sampling,
 * SPSA perturbations, workload generation) draws from a Rng seeded
 * explicitly, so identical configurations give identical results.
 */

#ifndef QTENON_SIM_RANDOM_HH
#define QTENON_SIM_RANDOM_HH

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

namespace qtenon::sim {

/**
 * The 64-bit Mersenne Twister (MT19937-64): the same seeding
 * recurrence, twist and tempering as the standard library's engine,
 * so it yields the standard sequence bit for bit. The twist selects the
 * matrix term with a mask instead of a branch on the low bit, which
 * would mispredict on about half the words.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    explicit Mt19937_64(result_type seed) : _p(stateSize)
    {
        _x[0] = seed;
        for (std::size_t i = 1; i < stateSize; ++i) {
            const result_type prev = _x[i - 1];
            _x[i] = 6364136223846793005u * (prev ^ (prev >> 62)) + i;
        }
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    result_type
    operator()()
    {
        if (_p >= stateSize)
            twist();
        result_type z = _x[_p++];
        z ^= (z >> 29) & 0x5555555555555555u;
        z ^= (z << 17) & 0x71d67fffeda60000u;
        z ^= (z << 37) & 0xfff7eee000000000u;
        z ^= z >> 43;
        return z;
    }

  private:
    static constexpr std::size_t stateSize = 312;
    static constexpr std::size_t shift = 156;

    /** One twist step: the top bit of @p hi, the low 31 of @p lo. */
    static result_type
    mix(result_type far, result_type hi, result_type lo)
    {
        constexpr result_type upper = ~result_type(0) << 31;
        const result_type y = (hi & upper) | (lo & ~upper);
        return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9u);
    }

    void
    twist()
    {
        std::size_t k = 0;
        for (; k < stateSize - shift; ++k)
            _x[k] = mix(_x[k + shift], _x[k], _x[k + 1]);
        for (; k < stateSize - 1; ++k)
            _x[k] = mix(_x[k + shift - stateSize], _x[k], _x[k + 1]);
        _x[k] = mix(_x[shift - 1], _x[k], _x[0]);
        _p = 0;
    }

    std::array<result_type, stateSize> _x;
    std::size_t _p;
};

/** A seedable wrapper around a 64-bit Mersenne Twister. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x51a3b5u) : _engine(seed) {}

    /** Uniform in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(_engine);
    }

    /** Uniform in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(_engine);
    }

    /** Uniform integer in [0, n). */
    std::uint64_t
    index(std::uint64_t n)
    {
        return std::uniform_int_distribution<std::uint64_t>(
            0, n - 1)(_engine);
    }

    /** Bernoulli trial with success probability @p p. */
    bool coin(double p) { return uniform() < p; }

    /** Standard normal sample. */
    double
    normal()
    {
        return std::normal_distribution<double>(0.0, 1.0)(_engine);
    }

    /** Rademacher (+1/-1) sample, used by SPSA. */
    double rademacher() { return coin(0.5) ? 1.0 : -1.0; }

    /** Raw 64-bit draw. */
    std::uint64_t raw() { return _engine(); }

    Mt19937_64 &engine() { return _engine; }

  private:
    Mt19937_64 _engine;
};

/**
 * Rng::coin(p) as an integer compare on the raw draw. uniform() maps
 * a draw x to double(x)·2⁻⁶⁴, clamped to nextafter(1, 0); that map is
 * monotone in x, so the draws with uniform() < p are exactly those
 * below a threshold T in [0, 2⁶⁴]. T = 2⁶⁴ (every draw succeeds)
 * does not fit a word and is kept as a flag. For every p and x,
 * `CoinThreshold(p)(x) == (uniform() < p)` when uniform() consumes x.
 */
class CoinThreshold
{
  public:
    explicit CoinThreshold(double p)
    {
        if (!(p > 0.0))
            return; // uniform() >= 0: never (also for NaN)
        if (p >= 1.0) {
            _always = true; // uniform() <= nextafter(1, 0) < p
            return;
        }
        // T is the least x with double(x) >= P, P = p·2⁶⁴ (exact:
        // a power-of-two scale of p < 1, so P < 2⁶⁴).
        const double big = p * 0x1p64;
        if (big <= 0x1p53) {
            // Integers up to 2⁵³ convert exactly.
            _threshold = static_cast<std::uint64_t>(std::ceil(big));
            return;
        }
        // P and its predecessor are integers; the draws between them
        // round to the nearer one, a tie to the even mantissa. Let the
        // conversion decide the midpoint.
        const auto hi = static_cast<std::uint64_t>(big);
        const auto lo =
            static_cast<std::uint64_t>(std::nextafter(big, 0.0));
        const std::uint64_t mid = lo + (hi - lo) / 2;
        _threshold = static_cast<double>(mid) >= big ? mid : mid + 1;
    }

    /** Outcome of the coin on raw draw @p x. */
    bool
    operator()(std::uint64_t x) const
    {
        return (x < _threshold) | _always;
    }

    /** T when below 2⁶⁴ (0 for a coin that always succeeds). */
    std::uint64_t threshold() const { return _threshold; }

  private:
    std::uint64_t _threshold = 0;
    bool _always = false;
};

} // namespace qtenon::sim

#endif // QTENON_SIM_RANDOM_HH
