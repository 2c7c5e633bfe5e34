#include "tilelink.hh"

#include <algorithm>
#include <bit>

#include "obs/metrics.hh"
#include "obs/trace_sink.hh"
#include "sim/logging.hh"

namespace qtenon::memory {

TileLinkBus::TileLinkBus(sim::EventQueue &eq, std::string name,
                         sim::ClockDomain clock, TileLinkConfig cfg,
                         MemDevice *downstream)
    : Clocked(eq, std::move(name), clock), _cfg(cfg),
      _downstream(downstream)
{
    if (!downstream)
        sim::fatal("bus '", this->name(), "' needs a downstream device");
    if (_cfg.tagBits == 0 || _cfg.tagBits > 5)
        sim::fatal("tag width must be 1..5 bits");
    _freeTagMask = (numTags() >= 32)
        ? ~std::uint32_t(0) : ((1u << numTags()) - 1);
    for (std::uint32_t t = 0; t < numTags(); ++t) {
        _inflight[t].response.bus = this;
        _inflight[t].response.tag = static_cast<std::uint8_t>(t);
        _inflight[t].hop.bus = this;
        _inflight[t].hop.tag = static_cast<std::uint8_t>(t);
    }
}

TileLinkBus::~TileLinkBus()
{
    obs::publish({
        {"mem.bus.transactions", "bus transactions completed",
         transactions.value()},
        {"mem.bus.beats", "request beats transferred", beats.value()},
        {"mem.bus.tag_stalls", "requests that waited for a free tag",
         tagStalls.value()},
    });
}

void
TileLinkBus::attachInjector(fault::FaultInjector *inj,
                            fault::RetryPolicy retry)
{
    _inj = inj;
    _site = inj ? inj->site("bus") : 0;
    _retry = retry;
}

std::uint32_t
TileLinkBus::freeTags() const
{
    return std::popcount(_freeTagMask);
}

std::uint8_t
TileLinkBus::allocateTag()
{
    const int tag = std::countr_zero(_freeTagMask);
    _freeTagMask &= ~(1u << tag);
    return static_cast<std::uint8_t>(tag);
}

void
TileLinkBus::accessTagged(const MemPacket &pkt,
                          TaggedCallback on_complete,
                          IssueCallback on_issue)
{
    if (_freeTagMask == 0) {
        ++tagStalls;
    } else if (_waiting.empty()) {
        // Nothing queued ahead of it: skip the queue.
        issue(pkt, std::move(on_complete), on_issue);
        return;
    }
    _waiting.push_back(
        Pending{pkt, std::move(on_complete), std::move(on_issue)});
    tryIssue();
}

void
TileLinkBus::observeTransaction(const MemPacket &pkt,
                                std::uint8_t tag, sim::Tick issued,
                                sim::Tick done)
{
    if (obs::metricsEnabled()) {
        static auto &lat = obs::histogram(
            "mem.bus.latency_ticks",
            "issue-to-completion bus transaction latency");
        lat.record(done - issued);
    }
    if (auto *sink = obs::traceSink()) {
        if (_tracePid == 0) {
            _tracePid = sink->allocProcess(name() + " (sim time)");
            for (std::uint32_t t = 0; t < numTags(); ++t)
                sink->threadName(_tracePid, t,
                                 "tag " + std::to_string(t));
        }
        sink->complete(_tracePid, tag,
                       pkt.cmd == MemCmd::Write ? "write" : "read",
                       "mem.bus", sim::ticksToUs(issued),
                       sim::ticksToUs(done - issued),
                       {{"addr", std::to_string(pkt.addr)},
                        {"bytes", std::to_string(pkt.size)}});
    }
}

void
TileLinkBus::tryIssue()
{
    while (!_waiting.empty() && _freeTagMask != 0) {
        Pending p = std::move(_waiting.front());
        _waiting.pop_front();
        issue(p.pkt, std::move(p.cb), p.issueCb);
    }
}

void
TileLinkBus::issue(const MemPacket &pkt, TaggedCallback cb,
                   const IssueCallback &on_issue)
{
    const std::uint8_t tag = allocateTag();
    if (obs::metricsEnabled()) {
        static auto &occ = obs::histogram(
            "mem.bus.tag_occupancy", "tags in use when issuing");
        occ.record(numTags() - freeTags());
    }
    if (on_issue)
        on_issue(tag, curTick(), pkt);

    const sim::Cycles req_beats = beatsFor(pkt.size);
    beats += req_beats;

    const sim::Tick now = curTick();
    sim::Tick start = std::max(now, _requestChannelFree);
    const bool faults = _inj && _inj->active(_site);
    if (faults && _inj->shouldStall(_site)) {
        // An injected stall occupies the request channel, so it
        // back-pressures every queued transaction behind it.
        start += _inj->faults(_site).stallTicks;
    }
    _requestChannelFree = start + clockDomain().cyclesToTicks(req_beats);
    const sim::Tick arrive = _requestChannelFree +
        clockDomain().cyclesToTicks(_cfg.channelLatency);

    auto &slot = _inflight[tag];
    slot.pkt = pkt;
    slot.cb = std::move(cb);
    slot.issued = now;
    slot.attempt = 1;
    if (faults) {
        issueDownstream(tag, arrive);
        return;
    }
    const MemTiming t = _downstream->access(slot.pkt, arrive);
    slot.known = t.known;
    slot.knownOnArrival = t.known == arrive;
    slot.knownAfter = slot.knownOnArrival ? now : arrive;
    slot.issueStamp = eventq().scheduleStamp();
    respondInOrder(tag, t.done +
        clockDomain().cyclesToTicks(_cfg.channelLatency));
}

bool
TileLinkBus::respondsAhead(const InFlight &x, const InFlight &o) const
{
    // An event per hop put responses at one tick in the order of the
    // events that scheduled them: by when each completion was known,
    // then by when the hop before was scheduled (the issue of a hit,
    // the arrival of a miss). A hit issued just as a tied miss
    // arrives goes first only if the event issuing it fired ahead of
    // the miss's arrival event, which a response of this bus never
    // did and a call from outside the run never does.
    if (x.known != o.known)
        return x.known < o.known;
    if (x.knownAfter != o.knownAfter)
        return x.knownAfter < o.knownAfter;
    return x.knownOnArrival && !o.knownOnArrival && !_delivering &&
        eventq().firingAhead(sim::Event::defaultPrio, o.issueStamp);
}

void
TileLinkBus::respondInOrder(std::uint8_t tag, sim::Tick when)
{
    // Responses at one tick fire in scheduling order and the pending
    // ones are in order already, so those this one must precede are
    // the last few: move them behind it, keeping their order. (Tags
    // past numTags() never have a response scheduled.)
    std::array<std::uint8_t, 32> later;
    std::size_t n = 0;
    for (std::uint32_t busy = ~_freeTagMask; busy != 0;
         busy &= busy - 1) {
        const auto other =
            static_cast<std::uint8_t>(std::countr_zero(busy));
        const InFlight &o = _inflight[other];
        if (other == tag || !o.response.scheduled() ||
            o.response.when() != when ||
            !respondsAhead(_inflight[tag], o))
            continue;
        std::size_t i = n++;
        for (; i > 0 &&
               _inflight[later[i - 1]].responseStamp > o.responseStamp;
             --i)
            later[i] = later[i - 1];
        later[i] = other;
    }
    scheduleResponse(tag, when);
    for (std::size_t i = 0; i < n; ++i)
        scheduleResponse(later[i], when);
}

void
TileLinkBus::scheduleResponse(std::uint8_t tag, sim::Tick when)
{
    auto &slot = _inflight[tag];
    slot.responseStamp = eventq().scheduleStamp();
    eventq().reschedule(&slot.response, when);
}

void
TileLinkBus::issueDownstream(std::uint8_t tag, sim::Tick arrive)
{
    // A retry re-enters the downstream device off the request
    // channel, out of issue order, so on this path every request is
    // timed when it arrives, and its hop event fires where a
    // request, a DRAM completion and a hit or fill event used to.
    auto &hop = _inflight[tag].hop;
    hop.phase = HopEvent::Phase::Arrive;
    eventq().schedule(&hop, arrive);
}

void
TileLinkBus::hop(std::uint8_t tag)
{
    auto &slot = _inflight[tag];
    auto &ev = slot.hop;
    switch (ev.phase) {
      case HopEvent::Phase::Arrive: {
        const MemTiming t = _downstream->access(slot.pkt, curTick());
        ev.done = t.done;
        if (t.known != curTick()) {
            ev.phase = HopEvent::Phase::Known;
            eventq().schedule(&ev, t.known);
            return;
        }
        [[fallthrough]];
      }
      case HopEvent::Phase::Known:
        ev.phase = HopEvent::Phase::Done;
        eventq().schedule(&ev, ev.done);
        return;
      case HopEvent::Phase::Done:
        downstreamDone(tag, ev.done);
        return;
    }
}

void
TileLinkBus::downstreamDone(std::uint8_t tag, sim::Tick down_done)
{
    auto &slot = _inflight[tag];
    const sim::Tick done =
        down_done + clockDomain().cyclesToTicks(_cfg.channelLatency);
    if (_inj->shouldError(_site)) {
        if (slot.attempt < std::max(1u, _retry.maxAttempts)) {
            _inj->count(_site, "retries");
            const sim::Tick backoff = _retry.backoffBefore(
                slot.attempt, slot.issued ^ tag);
            ++slot.attempt;
            issueDownstream(tag, done + backoff);
            return;
        }
        // Budget spent: deliver the (errored) response rather than
        // wedge the tag.
        _inj->count(_site, "retry_exhausted");
    }
    scheduleResponse(tag, done);
}

void
TileLinkBus::deliver(std::uint8_t tag)
{
    auto &slot = _inflight[tag];
    const sim::Tick done = curTick();
    ++transactions;
    observeTransaction(slot.pkt, tag, slot.issued, done);
    BusResponse r;
    r.tag = tag;
    r.issued = slot.issued;
    r.completed = done;
    r.pkt = slot.pkt;
    // The callback may issue a request that reuses this tag, so take
    // it out of the slot before freeing the tag.
    auto cb = std::move(slot.cb);
    _freeTagMask |= (1u << tag);
    _delivering = true;
    cb(r);
    tryIssue();
    _delivering = false;
}

} // namespace qtenon::memory
