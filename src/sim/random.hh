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

class CoinThreshold;

namespace detail {

/**
 * MT19937-64 state: the 312 words the twist advances, their tempered
 * outputs, and the index of the next output to hand out.
 */
struct MtState
{
    static constexpr std::size_t size = 312;

    std::array<std::uint64_t, size> x;
    std::array<std::uint64_t, size> tempered{};
    std::size_t next = size;
};

/**
 * One instruction set's build of the engine's block bodies
 * (random_impl.hh). Every body is integer-only, so all builds return
 * the same bits.
 */
struct RandomBodies
{
    /** Twist the state and temper all of it; next becomes 0. */
    void (*refill)(MtState &);
    /** The next @p n outputs into @p out. */
    void (*fill)(MtState &, std::uint64_t *out, std::size_t n);
    /**
     * @p shots words of @p n coins, draws shot-major and qubit-minor:
     * bit q of out[s] is set when draw s·n + q is below
     * @p thresholds[q] or bit q of @p always is set. n ≤ 64.
     */
    void (*coinWords)(MtState &, const std::uint64_t *thresholds,
                      std::uint64_t always, std::uint32_t n,
                      std::size_t shots, std::uint64_t *out);
};

/** The build without wider instructions; runs everywhere. */
const RandomBodies &scalarBodies();

/** The AVX2 build, or null if it was not built or the CPU lacks AVX2. */
const RandomBodies *avx2Bodies();

/** The bodies this process runs: AVX2 where available, else scalar. */
const RandomBodies &activeBodies();

} // namespace detail

/**
 * The 64-bit Mersenne Twister (MT19937-64): the same seeding
 * recurrence, twist and tempering as the standard library's engine,
 * so it yields the standard sequence bit for bit. The state advances
 * and is tempered a whole block at a time (random_impl.hh); a draw
 * reads the next tempered word.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    explicit Mt19937_64(result_type seed)
    {
        _s.x[0] = seed;
        for (std::size_t i = 1; i < detail::MtState::size; ++i) {
            const result_type prev = _s.x[i - 1];
            _s.x[i] = 6364136223846793005u * (prev ^ (prev >> 62)) + i;
        }
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    result_type
    operator()()
    {
        if (_s.next >= detail::MtState::size)
            detail::activeBodies().refill(_s);
        return _s.tempered[_s.next++];
    }

    /** The next @p n draws into @p out, as n calls of operator(). */
    void
    fill(result_type *out, std::size_t n)
    {
        detail::activeBodies().fill(_s, out, n);
    }

    /** The raw state, for the block bodies and their tests. */
    detail::MtState &state() { return _s; }

  private:
    detail::MtState _s;
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

    /** The next @p n raw draws into @p out, as n calls of raw(). */
    void fill(std::uint64_t *out, std::size_t n) { _engine.fill(out, n); }

    /**
     * One word per shot, @p n ≤ 64 coins each: bit q of out[s] is
     * @p coins[q] on the raw draw s·n + q, the draws the loop
     * `for s, for q: coins[q](raw())` would make.
     */
    void coinWords(const CoinThreshold *coins, std::uint32_t n,
                   std::size_t shots, std::uint64_t *out);

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

    /** Whether every draw succeeds (T = 2⁶⁴). */
    bool always() const { return _always; }

  private:
    std::uint64_t _threshold = 0;
    bool _always = false;
};

} // namespace qtenon::sim

#endif // QTENON_SIM_RANDOM_HH
