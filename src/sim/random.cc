/**
 * @file
 * The scalar build of the engine's block bodies, the runtime choice
 * between it and the AVX2 build, and Rng::coinWords. Which builds
 * exist is decided by CMake (QTENON_HAVE_RANDOM_AVX2); which one
 * runs is decided here, once, against the executing CPU.
 */

#define QTENON_RANDOM_NS scalar_backend
#include "random_impl.hh"

#include "logging.hh"

namespace qtenon::sim {

namespace detail {

#ifdef QTENON_HAVE_RANDOM_AVX2
const RandomBodies &avx2BuiltBodies(); // random_avx2.cc
#endif

const RandomBodies &
scalarBodies()
{
    return scalar_backend::bodies();
}

const RandomBodies *
avx2Bodies()
{
#ifdef QTENON_HAVE_RANDOM_AVX2
    // One cpuid probe for the life of the process.
    static const bool has_avx2 = __builtin_cpu_supports("avx2");
    if (has_avx2)
        return &avx2BuiltBodies();
#endif
    return nullptr;
}

const RandomBodies &
activeBodies()
{
    static const RandomBodies &active =
        avx2Bodies() ? *avx2Bodies() : scalarBodies();
    return active;
}

} // namespace detail

void
Rng::coinWords(const CoinThreshold *coins, std::uint32_t n,
               std::size_t shots, std::uint64_t *out)
{
    if (n > 64)
        panic("coin words hold at most 64 coins, got ", n);
    std::uint64_t thresholds[64] = {};
    std::uint64_t always = 0;
    for (std::uint32_t q = 0; q < n; ++q) {
        thresholds[q] = coins[q].threshold();
        always |= std::uint64_t(coins[q].always()) << q;
    }
    detail::activeBodies().coinWords(_engine.state(), thresholds, always,
                                     n, shots, out);
}

} // namespace qtenon::sim
