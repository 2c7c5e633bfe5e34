/**
 * @file
 * Portable two-wide complex-double SIMD wrapper (`complexf64x2`).
 *
 * One vector holds two std::complex<double> amplitudes laid out
 * exactly as they sit in the statevector array ([re0, im0, re1,
 * im1]). The backend is selected at compile time *per translation
 * unit* by an explicit macro the including .cc defines before this
 * header — never by probing __AVX2__ directly, so a global
 * -march=native cannot silently turn the scalar-fallback TU into a
 * second AVX2 TU:
 *
 *   QTENON_SIMD_BACKEND_AVX2   256-bit AVX ops (kernels_avx2.cc,
 *                              compiled with -mavx2; only *called*
 *                              after a runtime cpuid check)
 *   QTENON_SIMD_BACKEND_NEON   2x128-bit NEON ops (kernels_neon.cc
 *                              on aarch64, where NEON is baseline)
 *   (neither)                  plain scalar arithmetic
 *
 * Portability contract (what the slab kernels may rely on):
 *
 *   - Every operation rounds each lane exactly like the scalar
 *     expression it names; there is no fused multiply-add anywhere,
 *     because FMA's single rounding would break the bit-identical
 *     guarantee against tests/reference_statevector.hh.
 *   - cmul(w) computes, per complex lane z:
 *       re = z.re*w.re - z.im*w.im
 *       im = z.im*w.re + z.re*w.im
 *     IEEE-754 multiplication is commutative and addition of two
 *     operands is commutative in the result, so this is bit-equal to
 *     libstdc++'s std::complex product for non-NaN inputs whichever
 *     of (z, w) the scalar code put on the left.
 *   - neg() flips sign bits (exact, including signed zeros).
 *   - load/store are unaligned (the slab partition aligns chunks to
 *     whole vectors, but gate-target runs need not be 32B-aligned).
 *
 * Everything here, cmulExact included, sits in a per-backend inline
 * namespace (abi_avx2, abi_neon, abi_scalar). The namespace is what
 * keeps the builds apart: were they to define the same inline
 * symbols, the linker could keep one copy for every caller and run
 * AVX2 code on a CPU without AVX2, or scalar code in the AVX2 table.
 */

#ifndef QTENON_QUANTUM_SIMD_HH
#define QTENON_QUANTUM_SIMD_HH

#include <complex>
#include <cstdint>

#if defined(QTENON_SIMD_BACKEND_AVX2)
#include <immintrin.h>
#define QTENON_SIMD_ABI abi_avx2
#elif defined(QTENON_SIMD_BACKEND_NEON)
#include <arm_neon.h>
#define QTENON_SIMD_ABI abi_neon
#else
#define QTENON_SIMD_ABI abi_scalar
#endif

namespace qtenon::quantum::simd {
inline namespace QTENON_SIMD_ABI {

using Amp = std::complex<double>;

/**
 * The scalar complex product written out as the raw four-multiply
 * formula (no Annex-G NaN recovery branch, same bits as libstdc++'s
 * operator* for the finite values a statevector holds). Used by the
 * scalar backend and by every kernel's odd-tail elements.
 */
inline Amp
cmulExact(Amp z, Amp w)
{
    return Amp{z.real() * w.real() - z.imag() * w.imag(),
               z.imag() * w.real() + z.real() * w.imag()};
}

#if defined(QTENON_SIMD_BACKEND_AVX2)

/** Two complex doubles in one 256-bit register. */
struct complexf64x2 {
    __m256d v;

    static constexpr const char *backendName = "avx2";

    static complexf64x2
    load(const Amp *p)
    {
        return {_mm256_loadu_pd(reinterpret_cast<const double *>(p))};
    }

    void
    store(Amp *p) const
    {
        _mm256_storeu_pd(reinterpret_cast<double *>(p), v);
    }

    /** [c, c] */
    static complexf64x2
    broadcast(Amp c)
    {
        return {_mm256_setr_pd(c.real(), c.imag(),
                               c.real(), c.imag())};
    }

    /** [a, b] */
    static complexf64x2
    pack(Amp a, Amp b)
    {
        return {_mm256_setr_pd(a.real(), a.imag(),
                               b.real(), b.imag())};
    }

    /** [lo, lo] */
    complexf64x2
    dupLo() const
    {
        return {_mm256_permute2f128_pd(v, v, 0x00)};
    }

    /** [hi, hi] */
    complexf64x2
    dupHi() const
    {
        return {_mm256_permute2f128_pd(v, v, 0x11)};
    }

    /** Lane-wise complex product (see header contract). */
    complexf64x2
    cmul(complexf64x2 w) const
    {
        // wr = [w0.re, w0.re, w1.re, w1.re]
        const __m256d wr = _mm256_movedup_pd(w.v);
        // wi = [w0.im, w0.im, w1.im, w1.im]
        const __m256d wi = _mm256_permute_pd(w.v, 0xF);
        // zs = [z0.im, z0.re, z1.im, z1.re]
        const __m256d zs = _mm256_permute_pd(v, 0x5);
        const __m256d t1 = _mm256_mul_pd(v, wr);
        const __m256d t2 = _mm256_mul_pd(zs, wi);
        // addsub: even lanes t1-t2 (re), odd lanes t1+t2 (im).
        return {_mm256_addsub_pd(t1, t2)};
    }

    complexf64x2
    add(complexf64x2 o) const
    {
        return {_mm256_add_pd(v, o.v)};
    }

    /** Exact negation (sign-bit flip) of both complexes. */
    complexf64x2
    neg() const
    {
        const __m256d sign = _mm256_set1_pd(-0.0);
        return {_mm256_xor_pd(v, sign)};
    }
};

#elif defined(QTENON_SIMD_BACKEND_NEON)

/** Two complex doubles in two 128-bit registers. */
struct complexf64x2 {
    float64x2_t lo; // [re0, im0]
    float64x2_t hi; // [re1, im1]

    static constexpr const char *backendName = "neon";

    static complexf64x2
    load(const Amp *p)
    {
        const double *d = reinterpret_cast<const double *>(p);
        return {vld1q_f64(d), vld1q_f64(d + 2)};
    }

    void
    store(Amp *p) const
    {
        double *d = reinterpret_cast<double *>(p);
        vst1q_f64(d, lo);
        vst1q_f64(d + 2, hi);
    }

    static complexf64x2
    broadcast(Amp c)
    {
        const double d[2] = {c.real(), c.imag()};
        const float64x2_t v = vld1q_f64(d);
        return {v, v};
    }

    static complexf64x2
    pack(Amp a, Amp b)
    {
        const double da[2] = {a.real(), a.imag()};
        const double db[2] = {b.real(), b.imag()};
        return {vld1q_f64(da), vld1q_f64(db)};
    }

    complexf64x2
    dupLo() const
    {
        return {lo, lo};
    }

    complexf64x2
    dupHi() const
    {
        return {hi, hi};
    }

    complexf64x2
    cmul(complexf64x2 w) const
    {
        // Per 128-bit complex: t1 = [z.re*w.re, z.im*w.re],
        // t2 = [z.im*w.im, z.re*w.im]; result = t1 -/+ t2.
        // The -/+ is done by negating t2's even lane via an exact
        // multiply by [-1, 1] before a plain add.
        const float64x2_t negpos = {-1.0, 1.0};
        auto one = [&](float64x2_t z, float64x2_t ww) {
            const float64x2_t t1 =
                vmulq_f64(z, vdupq_laneq_f64(ww, 0));
            const float64x2_t zs = vextq_f64(z, z, 1);
            const float64x2_t t2 =
                vmulq_f64(zs, vdupq_laneq_f64(ww, 1));
            return vaddq_f64(t1, vmulq_f64(t2, negpos));
        };
        return {one(lo, w.lo), one(hi, w.hi)};
    }

    complexf64x2
    add(complexf64x2 o) const
    {
        return {vaddq_f64(lo, o.lo), vaddq_f64(hi, o.hi)};
    }

    complexf64x2
    neg() const
    {
        return {vnegq_f64(lo), vnegq_f64(hi)};
    }
};

#else // scalar fallback

/** Two complex doubles, plain scalar arithmetic. */
struct complexf64x2 {
    Amp a;
    Amp b;

    static constexpr const char *backendName = "scalar";

    static complexf64x2
    load(const Amp *p)
    {
        return {p[0], p[1]};
    }

    void
    store(Amp *p) const
    {
        p[0] = a;
        p[1] = b;
    }

    static complexf64x2
    broadcast(Amp c)
    {
        return {c, c};
    }

    static complexf64x2
    pack(Amp x, Amp y)
    {
        return {x, y};
    }

    complexf64x2
    dupLo() const
    {
        return {a, a};
    }

    complexf64x2
    dupHi() const
    {
        return {b, b};
    }

    complexf64x2
    cmul(complexf64x2 w) const
    {
        return {cmulExact(a, w.a), cmulExact(b, w.b)};
    }

    complexf64x2
    add(complexf64x2 o) const
    {
        return {a + o.a, b + o.b};
    }

    complexf64x2
    neg() const
    {
        return {-a, -b};
    }
};

#endif

} // namespace QTENON_SIMD_ABI
} // namespace qtenon::quantum::simd

#endif // QTENON_QUANTUM_SIMD_HH
