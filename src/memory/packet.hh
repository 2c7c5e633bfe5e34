/**
 * @file
 * Memory request packets shared by caches, DRAM, and the system bus.
 */

#ifndef QTENON_MEMORY_PACKET_HH
#define QTENON_MEMORY_PACKET_HH

#include <cstdint>

#include "sim/types.hh"

namespace qtenon::memory {

/** Memory command kinds. */
enum class MemCmd : std::uint8_t {
    Read,
    Write,
};

/** A timing-model memory request (data payloads are modelled by size). */
struct MemPacket {
    MemCmd cmd = MemCmd::Read;
    std::uint64_t addr = 0;
    std::uint32_t size = 8;

    bool isWrite() const { return cmd == MemCmd::Write; }
    bool isRead() const { return cmd == MemCmd::Read; }
};

/** The timing of one access. */
struct MemTiming {
    /** Tick at which the request completes. */
    sim::Tick done = 0;
    /**
     * Tick at which `done` became known: the arrival for a cache hit
     * or a DRAM access, the fill's return for a cache miss. A
     * requester orders responses that share a tick by it.
     */
    sim::Tick known = 0;
};

/**
 * Timing interface of the devices behind the system bus (L2, DRAM).
 * access() updates the device's state (port and bank occupancy,
 * tags, LRU order, dirty bits, counters, obs histograms) for a
 * request arriving at @p now and returns its timing, with now <=
 * known <= done. It schedules no event and takes no callback, so a
 * caller may time a request before the simulation reaches @p now;
 * the timing is exact while every access arrives in order (@p now
 * non-decreasing).
 */
class MemDevice
{
  public:
    virtual ~MemDevice() = default;

    /** Time a request arriving at @p now. */
    virtual MemTiming access(const MemPacket &pkt, sim::Tick now) = 0;
};

} // namespace qtenon::memory

#endif // QTENON_MEMORY_PACKET_HH
