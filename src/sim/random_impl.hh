/**
 * @file
 * The Mersenne Twister's block bodies, written once and stamped out
 * per instruction set: random.cc defines QTENON_RANDOM_NS as
 * scalar_backend and includes this header; random_avx2.cc, the only
 * file built with -mavx2, defines it as avx2_backend and
 * QTENON_RANDOM_AVX2 first. The namespace is what keeps the two
 * builds apart: were both to define the same inline symbols, the
 * linker could keep the AVX2 copy for every caller and run it on a
 * CPU without AVX2.
 *
 * Exactness: the twist and tempering are the standard's integer
 * recurrences and the coin compare is an unsigned integer compare, so
 * each build returns the bits of the per-draw loop.
 */

#ifndef QTENON_RANDOM_NS
#error "random_impl.hh must be included with QTENON_RANDOM_NS set"
#endif

#include <cstddef>
#include <cstdint>

#if defined(QTENON_RANDOM_AVX2)
#include <immintrin.h>
#endif

#include "random.hh"

namespace qtenon::sim::detail {
namespace QTENON_RANDOM_NS {

constexpr std::size_t stateSize = MtState::size;
constexpr std::size_t shift = 156;

/** One twist step: the top bit of @p hi, the low 31 of @p lo. */
inline std::uint64_t
mix(std::uint64_t far, std::uint64_t hi, std::uint64_t lo)
{
    constexpr std::uint64_t upper = ~std::uint64_t(0) << 31;
    const std::uint64_t y = (hi & upper) | (lo & ~upper);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xb5026f5aa96619e9u);
}

/**
 * Advance the whole state in place. The matrix term is added through
 * a mask instead of a branch on the low bit, which would mispredict
 * on about half the words.
 */
inline void
twist(std::uint64_t *x)
{
    std::size_t k = 0;
    for (; k < stateSize - shift; ++k)
        x[k] = mix(x[k + shift], x[k], x[k + 1]);
    for (; k < stateSize - 1; ++k)
        x[k] = mix(x[k + shift - stateSize], x[k], x[k + 1]);
    x[k] = mix(x[shift - 1], x[k], x[0]);
}

/** Temper words [x, x + n) into @p out; the two must not overlap. */
inline void
temper(const std::uint64_t *__restrict x, std::uint64_t *__restrict out,
       std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t z = x[i];
        z ^= (z >> 29) & 0x5555555555555555u;
        z ^= (z << 17) & 0x71d67fffeda60000u;
        z ^= (z << 37) & 0xfff7eee000000000u;
        z ^= z >> 43;
        out[i] = z;
    }
}

inline void
refill(MtState &s)
{
    twist(s.x.data());
    temper(s.x.data(), s.tempered.data(), stateSize);
    s.next = 0;
}

inline void
fill(MtState &s, std::uint64_t *out, std::size_t n)
{
    // What is left of the tempered block.
    const std::size_t rest = stateSize - s.next;
    const std::size_t head = n < rest ? n : rest;
    for (std::size_t i = 0; i < head; ++i)
        out[i] = s.tempered[s.next + i];
    s.next += head;
    out += head;
    n -= head;
    // Whole blocks go straight into out.
    for (; n >= stateSize; n -= stateSize, out += stateSize) {
        twist(s.x.data());
        temper(s.x.data(), out, stateSize);
    }
    if (n > 0) {
        twist(s.x.data());
        temper(s.x.data(), out, n);
        temper(s.x.data() + n, s.tempered.data() + n, stateSize - n);
        s.next = n;
    }
}

/** Draws buffered per pass of coinWords: 16 KiB, within L1. */
constexpr std::size_t bufferWords = 2048;

inline void
coinWords(MtState &s, const std::uint64_t *thresholds,
          std::uint64_t always, std::uint32_t n, std::size_t shots,
          std::uint64_t *out)
{
    if (n == 0) {
        for (std::size_t i = 0; i < shots; ++i)
            out[i] = always;
        return;
    }
#if defined(QTENON_RANDOM_AVX2)
    // x < t unsigned is (x ⊕ 2⁶³) > (t ⊕ 2⁶³) signed, the only 64-bit
    // compare AVX2 has; four coins per compare.
    const __m256i bias = _mm256_set1_epi64x(INT64_MIN);
    __m256i biased[64 / 4] = {};
    const std::uint32_t lanes = n / 4 * 4;
    for (std::uint32_t q = 0; q < lanes; q += 4) {
        biased[q / 4] = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(thresholds + q)),
            bias);
    }
#endif
    // Left uninitialized: each pass reads only the words its fill wrote.
    std::uint64_t draws[bufferWords];
    const std::size_t perBuffer = bufferWords / n;
    while (shots > 0) {
        const std::size_t batch = shots < perBuffer ? shots : perBuffer;
        fill(s, draws, batch * n);
        for (std::size_t i = 0; i < batch; ++i) {
            const std::uint64_t *x = draws + i * n;
            std::uint64_t word = always;
            std::uint32_t q = 0;
#if defined(QTENON_RANDOM_AVX2)
            for (; q < lanes; q += 4) {
                const __m256i v = _mm256_xor_si256(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(x + q)),
                    bias);
                const __m256i below =
                    _mm256_cmpgt_epi64(biased[q / 4], v);
                word |= std::uint64_t(_mm256_movemask_pd(
                            _mm256_castsi256_pd(below)))
                    << q;
            }
#endif
            for (; q < n; ++q)
                word |= std::uint64_t(x[q] < thresholds[q]) << q;
            out[i] = word;
        }
        out += batch;
        shots -= batch;
    }
}

/** This build's bodies. */
inline const RandomBodies &
bodies()
{
    static constexpr RandomBodies table{&refill, &fill, &coinWords};
    return table;
}

} // namespace QTENON_RANDOM_NS
} // namespace qtenon::sim::detail
