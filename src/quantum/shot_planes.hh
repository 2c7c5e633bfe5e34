/**
 * @file
 * Sampled shot words transposed into per-qubit bit-planes, so that
 * cost terms score whole 64-shot blocks with XOR and popcount instead
 * of testing one bit of one shot at a time.
 */

#ifndef QTENON_QUANTUM_SHOT_PLANES_HH
#define QTENON_QUANTUM_SHOT_PLANES_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qtenon::quantum {

/**
 * Bit s of plane q is bit q of shot s. Counts are integers, so a
 * score built from them equals the per-shot loop it replaces exactly.
 */
class ShotPlanes
{
  public:
    explicit ShotPlanes(const std::vector<std::uint64_t> &shots);

    std::size_t numShots() const { return _numShots; }

    /**
     * Shots in which an odd number of the qubits in @p mask read 1:
     * the shots where a Z-parity over @p mask is -1.
     */
    std::uint64_t oddCount(std::uint64_t mask) const;

    /** Sum over shots of the Z-parity over @p mask, +1 or -1 each. */
    std::int64_t
    paritySum(std::uint64_t mask) const
    {
        return static_cast<std::int64_t>(_numShots) -
            2 * static_cast<std::int64_t>(oddCount(mask));
    }

    /** The mask bit of qubit @p q; shot words hold qubits 0..63. */
    static std::uint64_t bit(std::uint32_t q);

  private:
    std::size_t _numShots;
    /** Word b of plane q lives at [64 b + q], zero past the last shot. */
    std::vector<std::uint64_t> _blocks;
};

} // namespace qtenon::quantum

#endif // QTENON_QUANTUM_SHOT_PLANES_HH
