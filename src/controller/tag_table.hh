/**
 * @file
 * An open-addressed uint32 -> uint32 table for each qubit's QSpace
 * (SLT tag -> .pulse entry), a hot lookup of the controller.
 */

#ifndef QTENON_CONTROLLER_TAG_TABLE_HH
#define QTENON_CONTROLLER_TAG_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace qtenon::controller {

/**
 * Keys below 2^31 mapped to 32-bit values. Linear probing over a
 * power-of-two capacity that doubles before the table gets more than
 * half full; an all-ones key marks an empty slot. put() overwrites
 * the value of a key already present. clear() empties the table and
 * keeps its capacity.
 */
class TagTable
{
  public:
    /** The value stored for @p key, or nullptr. */
    const std::uint32_t *
    find(std::uint32_t key) const
    {
        if (_slots.empty())
            return nullptr;
        const std::size_t mask = _slots.size() - 1;
        for (std::size_t i = homeOf(key);; i = (i + 1) & mask) {
            const auto &s = _slots[i];
            if (s.key == key)
                return &s.value;
            if (s.key == emptyKey)
                return nullptr;
        }
    }

    /** Store @p value under @p key, overwriting any. */
    void
    put(std::uint32_t key, std::uint32_t value)
    {
        if (2 * (std::size_t(_size) + 1) > _slots.size())
            grow();
        const std::size_t mask = _slots.size() - 1;
        for (std::size_t i = homeOf(key);; i = (i + 1) & mask) {
            auto &s = _slots[i];
            if (s.key == emptyKey) {
                s.key = key;
                ++_size;
            }
            if (s.key == key) {
                s.value = value;
                return;
            }
        }
    }

    /** Forget every key. */
    void
    clear()
    {
        if (_size != 0)
            std::fill(_slots.begin(), _slots.end(), Slot{});
        _size = 0;
    }

  private:
    static constexpr std::uint32_t emptyKey = ~std::uint32_t(0);
    static constexpr std::size_t minCapacity = 16;

    struct Slot {
        std::uint32_t key = emptyKey;
        std::uint32_t value = 0;
    };

    /** Home slot: Fibonacci hash into the top capacity bits. */
    std::size_t
    homeOf(std::uint32_t key) const
    {
        return (key * 0x9E3779B9u) >> _shift;
    }

    void
    grow()
    {
        std::vector<Slot> old(_slots.empty() ? minCapacity
                                             : 2 * _slots.size());
        old.swap(_slots);
        _shift = 32 - std::countr_zero(_slots.size());
        _size = 0;
        for (const auto &s : old) {
            if (s.key != emptyKey)
                put(s.key, s.value);
        }
    }

    std::vector<Slot> _slots;
    std::uint32_t _size = 0;
    /** 32 - log2(capacity). */
    std::uint32_t _shift = 32;
};

} // namespace qtenon::controller

#endif // QTENON_CONTROLLER_TAG_TABLE_HH
