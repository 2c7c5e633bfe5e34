/**
 * @file
 * A banked DRAM timing model standing in for the paper's 16 GB DDR3
 * module with four banks (Table 4): fixed access latency plus
 * per-bank serialization.
 */

#ifndef QTENON_MEMORY_DRAM_HH
#define QTENON_MEMORY_DRAM_HH

#include <vector>

#include "packet.hh"
#include "sim/sim_object.hh"

namespace qtenon::memory {

/** Configuration of the DRAM model. */
struct DramConfig {
    std::uint32_t numBanks = 4;
    /** Bank interleave granularity. */
    std::uint32_t interleaveBytes = 64;
    /** Random access latency (row activate + CAS). */
    sim::Tick accessLatency = 40 * sim::nsTicks;
    /** Bank occupancy per access (cycle time). */
    sim::Tick bankBusy = 15 * sim::nsTicks;
};

/** Bank-interleaved DRAM with per-bank queuing delay. */
class Dram : public MemDevice
{
  public:
    explicit Dram(DramConfig cfg = DramConfig{});

    /** Publishes reads + writes into obs (when enabled). */
    ~Dram() override;

    MemTiming access(const MemPacket &pkt, sim::Tick now) override;

    const DramConfig &config() const { return _cfg; }

    /** Which bank services @p addr. */
    std::uint32_t bankOf(std::uint64_t addr) const;

    sim::Count reads;
    sim::Count writes;

  private:
    DramConfig _cfg;
    std::vector<sim::Tick> _bankFree;
};

} // namespace qtenon::memory

#endif // QTENON_MEMORY_DRAM_HH
