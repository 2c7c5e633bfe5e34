#include "cache.hh"

#include <algorithm>
#include <memory>

#include "obs/metrics.hh"
#include "sim/logging.hh"

namespace qtenon::memory {

Cache::Cache(sim::EventQueue &eq, std::string name,
             sim::ClockDomain clock, CacheConfig cfg,
             MemDevice *downstream)
    : SimObject(eq, std::move(name)), _clock(clock), _cfg(cfg),
      _downstream(downstream)
{
    if (!downstream)
        sim::fatal("cache '", this->name(), "' needs a downstream level");
    const auto lines = _cfg.sizeBytes / _cfg.lineBytes;
    if (lines == 0 || lines % _cfg.associativity != 0)
        sim::fatal("cache '", this->name(), "' has bad geometry");
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

void
Cache::accessLine(std::uint64_t line_addr, bool is_write,
                  MemCallback on_complete)
{
    const auto set = setOf(line_addr);
    const auto tag = tagOf(line_addr);

    // Model port bandwidth: accesses serialize on the tag/data port.
    const sim::Tick now = curTick();
    const sim::Tick start = std::max(now, _portFree);
    _portFree = start + _clock.cyclesToTicks(_cfg.portBusy);

    for (std::uint32_t w = 0; w < _cfg.associativity; ++w) {
        auto &l = _lines[set * _cfg.associativity + w];
        if (l.valid && l.tag == tag) {
            ++hits;
            l.lastUse = ++_useCounter;
            if (is_write)
                l.dirty = true;
            const sim::Tick done =
                start + _clock.cyclesToTicks(_cfg.hitLatency);
            eventq().scheduleLambda(done,
                [cb = std::move(on_complete), done] { cb(done); },
                "cache hit");
            return;
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
        // Writebacks drain in the background; no completion needed.
        _downstream->access(wb, [](sim::Tick) {});
    }
    victim.valid = true;
    victim.dirty = is_write;
    victim.tag = tag;
    victim.lastUse = ++_useCounter;

    MemPacket fill;
    fill.cmd = MemCmd::Read;
    fill.addr = line_addr * _cfg.lineBytes;
    fill.size = _cfg.lineBytes;
    const sim::Tick fill_ticks =
        _clock.cyclesToTicks(_cfg.hitLatency + _cfg.fillLatency);
    _downstream->access(fill,
        [this, cb = std::move(on_complete),
         fill_ticks](sim::Tick down_done) mutable {
            const sim::Tick done = down_done + fill_ticks;
            eventq().scheduleLambda(done,
                [cb = std::move(cb), done] { cb(done); }, "cache fill");
        });
}

void
Cache::access(const MemPacket &pkt, MemCallback on_complete)
{
    const auto first = lineAddr(pkt.addr);
    const auto last = lineAddr(pkt.addr + std::max(1u, pkt.size) - 1);
    const auto count = last - first + 1;

    if (count == 1) {
        accessLine(first, pkt.isWrite(), std::move(on_complete));
        return;
    }

    // Multi-line request: complete when the slowest line completes.
    struct Join {
        std::uint64_t remaining;
        sim::Tick latest = 0;
        MemCallback cb;
    };
    auto join = std::make_shared<Join>(
        Join{count, 0, std::move(on_complete)});
    for (auto line = first; line <= last; ++line) {
        accessLine(line, pkt.isWrite(), [join](sim::Tick done) {
            join->latest = std::max(join->latest, done);
            if (--join->remaining == 0)
                join->cb(join->latest);
        });
    }
}

} // namespace qtenon::memory
