/**
 * @file
 * The repository's one FNV-1a implementation, shared by everything
 * that needs a stable content digest: the ResultsStore determinism
 * digest, the fault injector's site-name stream derivation, the
 * daemon's content-addressed result-cache keys, and the controller's
 * q_gen recall guard.
 *
 * Header-only and dependency-free on purpose: any layer may include
 * it without linking qtenon_core, so the base libraries (sim, fault)
 * can reuse the exact same constants instead of growing private
 * copies.
 *
 * Two digest widths:
 *
 *   - `Fnv1a` / `fnv1a()`: the classic 64-bit stream (offset basis
 *     0xcbf29ce484222325, prime 0x100000001b3). Byte-compatible with
 *     the historical ResultsStore digest and fault::hashName.
 *     `fnv1aWords()` runs the same constants over 64-bit words.
 *   - `Fnv1a128` / `fnv1a128()` → `Digest128`: two independent
 *     64-bit streams (the second runs over the same bytes from a
 *     different offset basis), for keys where 64-bit birthday
 *     collisions would be a correctness hazard rather than a
 *     statistics artifact — e.g. the daemon result cache, which
 *     must never serve the wrong payload.
 */

#ifndef QTENON_CORE_HASH_HH
#define QTENON_CORE_HASH_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace qtenon::core {

/** Incremental 64-bit FNV-1a hasher. */
class Fnv1a
{
  public:
    static constexpr std::uint64_t offsetBasis =
        0xcbf29ce484222325ull;
    static constexpr std::uint64_t prime = 0x100000001b3ull;

    explicit Fnv1a(std::uint64_t basis = offsetBasis) : _h(basis) {}

    void
    update(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            _h ^= p[i];
            _h *= prime;
        }
    }

    void update(const std::string &s) { update(s.data(), s.size()); }

    /** Hash the 8 little-endian bytes of @p v. */
    void
    update(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= static_cast<unsigned char>(v >> (8 * i));
            _h *= prime;
        }
    }

    std::uint64_t digest() const { return _h; }

  private:
    std::uint64_t _h;
};

/** One-shot 64-bit FNV-1a of a byte string. */
inline std::uint64_t
fnv1a(const std::string &s)
{
    Fnv1a h;
    h.update(s);
    return h.digest();
}

/**
 * 64-bit FNV-1a over @p n 64-bit words, one xor-multiply per word
 * rather than per byte: 8x cheaper than Fnv1a::update on each word,
 * and a different digest. For fingerprints of long word lists.
 */
inline std::uint64_t
fnv1aWords(const std::uint64_t *words, std::size_t n)
{
    std::uint64_t h = Fnv1a::offsetBasis;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= words[i];
        h *= Fnv1a::prime;
    }
    return h;
}

/** A 128-bit content digest (two independent FNV-1a streams). */
struct Digest128 {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    friend bool
    operator==(const Digest128 &a, const Digest128 &b)
    {
        return a.lo == b.lo && a.hi == b.hi;
    }

    friend bool
    operator!=(const Digest128 &a, const Digest128 &b)
    {
        return !(a == b);
    }

    friend bool
    operator<(const Digest128 &a, const Digest128 &b)
    {
        return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
    }

    /** 32 lowercase hex digits (hi then lo), e.g. a cache-key id. */
    std::string
    hex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string out(32, '0');
        for (int i = 0; i < 16; ++i) {
            out[15 - i] = digits[(hi >> (4 * i)) & 0xf];
            out[31 - i] = digits[(lo >> (4 * i)) & 0xf];
        }
        return out;
    }
};

/** Incremental 128-bit hasher: two Fnv1a streams over the same input. */
class Fnv1a128
{
  public:
    void
    update(const std::string &s)
    {
        _lo.update(s);
        _hi.update(s);
    }

    /** Hash the 8 little-endian bytes of @p v. */
    void
    update(std::uint64_t v)
    {
        _lo.update(v);
        _hi.update(v);
    }

    /** Hash the IEEE-754 bits of @p d. */
    void update(double d) { update(std::bit_cast<std::uint64_t>(d)); }

    Digest128 digest() const { return {_lo.digest(), _hi.digest()}; }

  private:
    Fnv1a _lo;
    /** A decorrelated basis (the golden-ratio constant splitmix64
     *  also uses). */
    Fnv1a _hi{Fnv1a::offsetBasis ^ 0x9e3779b97f4a7c15ull};
};

/** One-shot 128-bit digest of a byte string. */
inline Digest128
fnv1a128(const std::string &s)
{
    Fnv1a128 h;
    h.update(s);
    return h.digest();
}

} // namespace qtenon::core

#endif // QTENON_CORE_HASH_HH
