/**
 * @file
 * A set-associative write-back cache timing model used for the host's
 * L1 and L2 levels (Table 4: 16 KB 4-way L1, 512 KB 8-bank 4-way L2).
 */

#ifndef QTENON_MEMORY_CACHE_HH
#define QTENON_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "packet.hh"
#include "sim/sim_object.hh"

namespace qtenon::memory {

/** Cache geometry and timing parameters. */
struct CacheConfig {
    std::uint64_t sizeBytes = 16 * 1024;
    std::uint32_t associativity = 4;
    std::uint32_t lineBytes = 64;
    /** Lookup-to-data latency on a hit. */
    sim::Cycles hitLatency = 2;
    /** Additional fill latency applied after the downstream responds. */
    sim::Cycles fillLatency = 1;
    /** Cycles the tag/data port is occupied per access (bandwidth). */
    sim::Cycles portBusy = 1;
};

/**
 * Set-associative LRU write-back cache. Requests larger than one line
 * split into per-line accesses; a request completes with its slowest
 * line. A miss sends a dirty victim's writeback and then the fill
 * downstream at the same `now`; nothing waits for the writeback.
 */
class Cache : public MemDevice
{
  public:
    Cache(const std::string &name, sim::ClockDomain clock,
          CacheConfig cfg, MemDevice *downstream);

    /** Publishes hits/misses into obs (when enabled). */
    ~Cache() override;

    MemTiming access(const MemPacket &pkt, sim::Tick now) override;

    const CacheConfig &config() const { return _cfg; }
    std::uint32_t numSets() const { return _numSets; }

    /** Whether @p addr currently hits (no state change). */
    bool probe(std::uint64_t addr) const;

    /** Invalidate every line (e.g. between benchmark phases). */
    void flush();

    sim::Count hits;
    sim::Count misses;
    /** Dirty lines written back. */
    sim::Count writebacks;

    double
    missRate() const
    {
        const double total =
            static_cast<double>(hits.value() + misses.value());
        return total > 0 ? static_cast<double>(misses.value()) / total
                         : 0.0;
    }

  private:
    struct Line {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t lineAddr(std::uint64_t addr) const
    {
        return addr / _cfg.lineBytes;
    }
    std::uint32_t setOf(std::uint64_t line) const
    {
        return static_cast<std::uint32_t>(line % _numSets);
    }
    std::uint64_t tagOf(std::uint64_t line) const
    {
        return line / _numSets;
    }

    /**
     * Access one line arriving at @p now, timing any downstream
     * traffic.
     */
    MemTiming accessLine(std::uint64_t line_addr, bool is_write,
                         sim::Tick now);

    /** Find a victim way in @p set (LRU, invalid first). */
    std::uint32_t victimWay(std::uint32_t set) const;

    sim::ClockDomain _clock;
    CacheConfig _cfg;
    MemDevice *_downstream;
    std::uint32_t _numSets;
    std::vector<Line> _lines; // set-major [set * assoc + way]
    std::uint64_t _useCounter = 0;
    sim::Tick _portFree = 0;
};

} // namespace qtenon::memory

#endif // QTENON_MEMORY_CACHE_HH
