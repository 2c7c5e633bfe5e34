/**
 * @file
 * The unified link-model API.
 *
 * The classical-quantum links that carry messages share one surface,
 * `link::Channel`: `baseline::EthernetLink` (analytic UDP/Ethernet
 * one-way latency), `controller::AdiModel` (analog-digital interface
 * bandwidth + latency arithmetic) and the inter-chip links of
 * `shard/interchip.hh`. (`memory::TileLinkBus` is an event-driven
 * bus that times its own transactions; it takes a fault injector at
 * site "bus" directly.) The surface:
 *
 *   - `transferLatency(bytes)` — the pure latency model (virtual;
 *     each adapter delegates to its wrapped model);
 *   - `send` / `deliver` / `tick`-style in-flight message queue for
 *     protocol code (the baseline's UDP retransmission loop);
 *   - `sampleLatency(bytes)` — one-shot latency draw including
 *     injected jitter, for analytic call sites that only need a
 *     number;
 *   - `attachInjector` — the uniform fault-injection hook, replacing
 *     per-class special cases.
 *
 * Fault semantics on send(): the attached `fault::FaultInjector`
 * (none by default) may drop the message, deliver a duplicate copy,
 * delay it by jittered latency, reorder it behind its successors
 * (modeled as one extra transfer latency of delay, enough for any
 * immediately following message to overtake), or flip a payload bit.
 * Without an injector a channel is a perfect, deterministic link.
 */

#ifndef QTENON_LINK_CHANNEL_HH
#define QTENON_LINK_CHANNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "sim/types.hh"

namespace qtenon::link {

/** One message in flight (or delivered) on a channel. */
struct Message {
    /** Send-order sequence number (duplicates share it). */
    std::uint64_t seq = 0;
    std::uint64_t bytes = 0;
    /** Optional data word; the corruption target. */
    std::uint64_t payload = 0;
    sim::Tick sentAt = 0;
    sim::Tick deliverAt = 0;
    bool corrupted = false;
    /** True on the injected second copy of a duplicated message. */
    bool duplicate = false;
};

/** What send() did with one message. */
struct SendOutcome {
    /** The message was silently lost (nothing queued). */
    bool dropped = false;
    /** Earliest delivery time of any queued copy (!dropped only). */
    sim::Tick deliverAt = 0;
};

/** Channel transfer accounting. */
struct ChannelStats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t reordered = 0;
    /** Total injected extra delay across all messages. */
    sim::Tick jitterTicks = 0;
};

/**
 * One direction of a classical-quantum link: a latency model plus an
 * in-flight queue with a uniform fault-injection hook. Subclasses
 * supply `transferLatency`; everything else is shared.
 */
class Channel
{
  public:
    explicit Channel(std::string site);
    virtual ~Channel() = default;

    /** Injection-site name ("eth", "adi", "bus", ...). */
    const std::string &site() const { return _site; }

    /** Attach (or detach with nullptr) the fault injector. */
    void attachInjector(fault::FaultInjector *inj);
    fault::FaultInjector *injector() const { return _inj; }
    /** The interned site id (valid while an injector is attached). */
    fault::SiteId siteId() const { return _siteId; }

    /** Fault-free one-way latency for a @p bytes message. */
    virtual sim::Tick transferLatency(std::uint64_t bytes) const = 0;

    /**
     * One latency draw including injected jitter (and counting the
     * injection), without touching the message queue. For analytic
     * call sites that fold the link into a closed-form model.
     */
    sim::Tick sampleLatency(std::uint64_t bytes);

    /**
     * Queue a @p bytes message sent at @p now. Applies the
     * injector's plan (drop / duplicate / jitter / reorder /
     * corrupt); see the file comment for semantics.
     */
    SendOutcome send(std::uint64_t bytes, sim::Tick now,
                     std::uint64_t payload = 0);

    /**
     * Remove and return every message whose delivery time is
     * <= @p now, in delivery order (ties in send order).
     */
    std::vector<Message> deliver(sim::Tick now);

    /** Advance to @p now, discarding arrivals (timing-only users). */
    void tick(sim::Tick now) { deliver(now); }

    /** Messages queued but not yet delivered. */
    std::size_t inFlight() const { return _inFlight.size(); }
    bool idle() const { return _inFlight.empty(); }

    /** Next arrival tick, or sim::maxTick when idle. */
    sim::Tick nextDeliveryAt() const;

    const ChannelStats &stats() const { return _stats; }

  private:
    void enqueue(Message m);

    std::string _site;
    fault::FaultInjector *_inj = nullptr;
    fault::SiteId _siteId = 0;
    std::uint64_t _nextSeq = 0;
    /** Sorted by (deliverAt, seq). */
    std::vector<Message> _inFlight;
    ChannelStats _stats;
};

} // namespace qtenon::link

#endif // QTENON_LINK_CHANNEL_HH
