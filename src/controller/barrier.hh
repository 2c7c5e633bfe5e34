/**
 * @file
 * The soft memory barrier backing Qtenon's fine-grained memory
 * consistency (paper Sec. 6.2).
 *
 * The controller marks host-address ranges as synchronized once the
 * corresponding PUT request has been sent through the system bus.
 * The host queries the barrier (non-blocking, single-cycle via the
 * RoCC interface) before touching an address the controller is
 * producing, instead of executing a full FENCE.
 */

#ifndef QTENON_CONTROLLER_BARRIER_HH
#define QTENON_CONTROLLER_BARRIER_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>

namespace qtenon::controller {

/**
 * Interval set of host addresses whose PUT has been sent through the
 * system bus. Every address starts unsynced; markSynced covers it.
 */
class MemoryBarrier
{
  public:
    /** Mark [addr, addr+size) as sent through the system bus. */
    void
    markSynced(std::uint64_t addr, std::uint64_t size)
    {
        if (size == 0)
            return;
        std::uint64_t lo = addr;
        std::uint64_t hi = addr + size;
        // Fast path for in-order PUTs: a range starting inside or at
        // the end of the last interval extends it in place. Stored
        // intervals neither overlap nor touch, so no earlier one can
        // reach lo.
        if (!_synced.empty()) {
            auto &last = *std::prev(_synced.end());
            if (last.first <= lo && lo <= last.second) {
                last.second = std::max(last.second, hi);
                return;
            }
        }
        // Merge with overlapping/adjacent intervals.
        auto it = _synced.lower_bound(lo);
        if (it != _synced.begin()) {
            auto prev = std::prev(it);
            if (prev->second >= lo)
                it = prev;
        }
        while (it != _synced.end() && it->first <= hi) {
            lo = std::min(lo, it->first);
            hi = std::max(hi, it->second);
            it = _synced.erase(it);
        }
        _synced.insert({lo, hi});
    }

    /**
     * Host-side non-blocking query: is every byte of
     * [addr, addr+size) synchronized?
     */
    bool
    query(std::uint64_t addr, std::uint64_t size = 1)
    {
        ++_queries;
        auto it = _synced.upper_bound(addr);
        if (it == _synced.begin()) {
            ++_missQueries;
            return false;
        }
        --it;
        const bool ok = it->first <= addr && it->second >= addr + size;
        if (!ok)
            ++_missQueries;
        return ok;
    }

    /** Forget all state (new experiment / program). */
    void
    reset()
    {
        _synced.clear();
    }

    std::uint64_t queries() const { return _queries; }
    std::uint64_t missQueries() const { return _missQueries; }
    std::size_t syncedIntervals() const { return _synced.size(); }

  private:
    std::map<std::uint64_t, std::uint64_t> _synced;
    std::uint64_t _queries = 0;
    std::uint64_t _missQueries = 0;
};

} // namespace qtenon::controller

#endif // QTENON_CONTROLLER_BARRIER_HH
