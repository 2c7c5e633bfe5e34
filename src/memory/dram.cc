#include "dram.hh"

#include <algorithm>

#include "obs/metrics.hh"

namespace qtenon::memory {

Dram::Dram(DramConfig cfg) : _cfg(cfg), _bankFree(cfg.numBanks, 0)
{}

Dram::~Dram()
{
    obs::publish({{"mem.dram.accesses", "DRAM requests (reads + writes)",
                   reads.value() + writes.value()}});
}

std::uint32_t
Dram::bankOf(std::uint64_t addr) const
{
    return (addr / _cfg.interleaveBytes) % _cfg.numBanks;
}

MemTiming
Dram::access(const MemPacket &pkt, sim::Tick now)
{
    if (pkt.isWrite())
        ++writes;
    else
        ++reads;

    const auto bank = bankOf(pkt.addr);
    const sim::Tick start = std::max(now, _bankFree[bank]);

    // Large requests occupy the bank for multiple bursts.
    const std::uint32_t bursts =
        (pkt.size + _cfg.interleaveBytes - 1) / _cfg.interleaveBytes;
    const sim::Tick busy = _cfg.bankBusy * std::max(1u, bursts);
    _bankFree[bank] = start + busy;

    const sim::Tick done = start + _cfg.accessLatency +
        busy - _cfg.bankBusy;
    if (obs::metricsEnabled()) {
        static auto &lat = obs::histogram(
            "mem.dram.latency_ticks",
            "request-to-completion DRAM latency");
        static auto &queue = obs::histogram(
            "mem.dram.queue_wait_ticks",
            "per-request bank queueing delay");
        lat.record(done - now);
        queue.record(start - now);
    }
    return {done, now};
}

} // namespace qtenon::memory
