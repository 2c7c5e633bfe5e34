#include "shot_planes.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace qtenon::quantum {

namespace {

constexpr std::size_t blockWords = 64;

/**
 * Transpose the 64x64 bit matrix whose row r is @p a[r] (column c =
 * bit c) in place, by swapping ever smaller off-diagonal blocks.
 */
void
transpose64(std::uint64_t *a)
{
    std::uint64_t m = 0x00000000ffffffffu;
    for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (unsigned k = 0; k < blockWords; k = ((k | j) + 1) & ~j) {
            const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
        }
    }
}

} // namespace

ShotPlanes::ShotPlanes(const std::vector<std::uint64_t> &shots)
    : _numShots(shots.size()),
      _blocks((shots.size() + blockWords - 1) / blockWords * blockWords,
              0)
{
    std::copy(shots.begin(), shots.end(), _blocks.begin());
    for (std::size_t b = 0; b < _blocks.size(); b += blockWords)
        transpose64(&_blocks[b]);
}

std::uint64_t
ShotPlanes::oddCount(std::uint64_t mask) const
{
    std::uint64_t count = 0;
    for (std::size_t b = 0; b < _blocks.size(); b += blockWords) {
        std::uint64_t parity = 0;
        for (auto m = mask; m != 0; m &= m - 1)
            parity ^= _blocks[b + std::countr_zero(m)];
        count += std::popcount(parity);
    }
    return count;
}

std::uint64_t
ShotPlanes::bit(std::uint32_t q)
{
    if (q >= 64)
        sim::panic("qubit ", q, " outside 64-bit shot words");
    return std::uint64_t(1) << q;
}

} // namespace qtenon::quantum
