#include "cache.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "sim/logging.hh"

namespace qtenon::memory {

Cache::Cache(const std::string &name, sim::ClockDomain clock,
             CacheConfig cfg, MemDevice *downstream)
    : _clock(clock), _cfg(cfg), _downstream(downstream)
{
    if (!downstream)
        sim::fatal("cache '", name, "' needs a downstream level");
    const auto lines = _cfg.sizeBytes / _cfg.lineBytes;
    if (lines == 0 || lines % _cfg.associativity != 0)
        sim::fatal("cache '", name, "' has bad geometry");
    _numSets = static_cast<std::uint32_t>(lines / _cfg.associativity);
    _lines.assign(lines, Line{});
}

Cache::~Cache()
{
    obs::publish({{"mem.cache.hits", "cache hits", hits.value()},
                  {"mem.cache.misses", "cache misses", misses.value()}});
}

bool
Cache::probe(std::uint64_t addr) const
{
    const auto line = lineAddr(addr);
    const auto set = setOf(line);
    const auto tag = tagOf(line);
    for (std::uint32_t w = 0; w < _cfg.associativity; ++w) {
        const auto &l = _lines[set * _cfg.associativity + w];
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (auto &l : _lines)
        l = Line{};
}

std::uint32_t
Cache::victimWay(std::uint32_t set) const
{
    std::uint32_t victim = 0;
    std::uint64_t oldest = ~std::uint64_t(0);
    for (std::uint32_t w = 0; w < _cfg.associativity; ++w) {
        const auto &l = _lines[set * _cfg.associativity + w];
        if (!l.valid)
            return w;
        if (l.lastUse < oldest) {
            oldest = l.lastUse;
            victim = w;
        }
    }
    return victim;
}

MemTiming
Cache::accessLine(std::uint64_t line_addr, bool is_write, sim::Tick now)
{
    const auto set = setOf(line_addr);
    const auto tag = tagOf(line_addr);

    // Model port bandwidth: accesses serialize on the tag/data port.
    const sim::Tick start = std::max(now, _portFree);
    _portFree = start + _clock.cyclesToTicks(_cfg.portBusy);

    for (std::uint32_t w = 0; w < _cfg.associativity; ++w) {
        auto &l = _lines[set * _cfg.associativity + w];
        if (l.valid && l.tag == tag) {
            ++hits;
            l.lastUse = ++_useCounter;
            if (is_write)
                l.dirty = true;
            return {start + _clock.cyclesToTicks(_cfg.hitLatency), now};
        }
    }

    // Miss: evict, fetch the line downstream, then respond.
    ++misses;
    const auto way = victimWay(set);
    auto &victim = _lines[set * _cfg.associativity + way];
    if (victim.valid && victim.dirty) {
        ++writebacks;
        MemPacket wb;
        wb.cmd = MemCmd::Write;
        wb.addr = (victim.tag * _numSets + set) * _cfg.lineBytes;
        wb.size = _cfg.lineBytes;
        // Writebacks drain in the background; nothing waits for them.
        _downstream->access(wb, now);
    }
    victim.valid = true;
    victim.dirty = is_write;
    victim.tag = tag;
    victim.lastUse = ++_useCounter;

    MemPacket fill;
    fill.cmd = MemCmd::Read;
    fill.addr = line_addr * _cfg.lineBytes;
    fill.size = _cfg.lineBytes;
    const sim::Tick filled = _downstream->access(fill, now).done;
    return {filled +
                _clock.cyclesToTicks(_cfg.hitLatency + _cfg.fillLatency),
            filled};
}

MemTiming
Cache::access(const MemPacket &pkt, sim::Tick now)
{
    const auto first = lineAddr(pkt.addr);
    const auto last = lineAddr(pkt.addr + std::max(1u, pkt.size) - 1);
    // A multi-line request completes with its slowest line; of lines
    // that finish together, the one known last decides.
    MemTiming t{now, now};
    for (auto line = first; line <= last; ++line) {
        const MemTiming l = accessLine(line, pkt.isWrite(), now);
        if (l.done > t.done || (l.done == t.done && l.known > t.known))
            t = l;
    }
    return t;
}

} // namespace qtenon::memory
