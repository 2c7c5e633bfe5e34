/**
 * @file
 * TileLink-style system bus model.
 *
 * Captures the properties the paper's controller interface depends
 * on (Sec. 5.2): 256-bit beats, a pool of 32 unique 5-bit source
 * tags limiting outstanding transactions, and out-of-order responses
 * (downstream latency varies), which is why the controller needs the
 * Reorder Buffer Queue.
 */

#ifndef QTENON_MEMORY_TILELINK_HH
#define QTENON_MEMORY_TILELINK_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "fault/fault.hh"
#include "link/channel.hh"
#include "packet.hh"
#include "sim/sim_object.hh"

namespace qtenon::memory {

class TileLinkPort;

/** Bus parameters. */
struct TileLinkConfig {
    std::uint32_t widthBits = 256;
    std::uint32_t tagBits = 5;
    /** Fixed request/response channel traversal latency. */
    sim::Cycles channelLatency = 2;
};

/** A completed bus transaction, as seen by the requester. */
struct BusResponse {
    std::uint8_t tag = 0;
    sim::Tick issued = 0;
    sim::Tick completed = 0;
    MemPacket pkt;
};

/**
 * The bus connecting the quantum controller to the host L2/DRAM.
 * Requests acquire a tag and serialize on the request channel for
 * ceil(size / beat) cycles; responses complete whenever the
 * downstream device answers, i.e. out of order.
 *
 * A transaction is timed when it is issued: the bus is the only
 * client of its downstream device and its request channel is FIFO,
 * so tryIssue() calls `MemDevice::access(pkt, arrive)` at once and
 * schedules only the tag's response. While the "bus" fault site is
 * active a retry bypasses the channel, so every request keeps an
 * event per hop: its arrival, a miss's fill, its completion (where
 * the error draw happens). DESIGN.md §16, "Transactions timed at
 * issue", argues both paths exact.
 */
class TileLinkBus : public sim::Clocked
{
  public:
    using TaggedCallback = std::function<void(const BusResponse &)>;
    /**
     * Observer invoked when a tag is allocated (request leaves),
     * with the request itself so a caller need not capture it.
     */
    using IssueCallback = std::function<void(
        std::uint8_t tag, sim::Tick when, const MemPacket &pkt)>;

    TileLinkBus(sim::EventQueue &eq, std::string name,
                sim::ClockDomain clock, TileLinkConfig cfg,
                MemDevice *downstream);

    /** Publishes the counts below into obs (when enabled). */
    ~TileLinkBus() override;

    /**
     * The bus's `link::Channel` view (injection site "bus"): the
     * uniform attachment point for fault injection, shared with the
     * Ethernet and ADI adapters.
     */
    TileLinkPort &port() { return *_port; }

    /**
     * Attach fault injection through the port and set the tag-retry
     * policy: an injected response error re-issues the transaction
     * downstream on the *same* tag after a deterministic backoff, so
     * the RBQ still sees exactly one arrival per expected tag.
     */
    void attachInjector(fault::FaultInjector *inj,
                        fault::RetryPolicy retry = {});

    /**
     * Issue a request and observe the tag in the response. It issues
     * at once when a tag is free and no request waits; otherwise it
     * waits, in arrival order, for a tag.
     */
    void accessTagged(const MemPacket &pkt, TaggedCallback on_complete,
                      IssueCallback on_issue = nullptr);

    const TileLinkConfig &config() const { return _cfg; }
    std::uint32_t numTags() const { return 1u << _cfg.tagBits; }
    std::uint32_t freeTags() const;

    /** Beats needed to move @p bytes across the bus. */
    sim::Cycles
    beatsFor(std::uint32_t bytes) const
    {
        const std::uint32_t beat_bytes = _cfg.widthBits / 8;
        return std::max<sim::Cycles>(
            1, (bytes + beat_bytes - 1) / beat_bytes);
    }

    /** Bus transactions completed. */
    sim::Count transactions;
    /** Request beats transferred. */
    sim::Count beats;
    /** Requests that waited for a free tag. */
    sim::Count tagStalls;

  private:
    /** A request waiting for a free tag. */
    struct Pending {
        MemPacket pkt;
        TaggedCallback cb;
        IssueCallback issueCb;
    };

    /** The response event of one tag's transaction. */
    class ResponseEvent final : public sim::Event
    {
      public:
        void process() override { bus->deliver(tag); }
        std::string description() const override
        {
            return "bus response";
        }

        TileLinkBus *bus = nullptr;
        std::uint8_t tag = 0;
    };

    /**
     * Fault path: one tag's request on its way downstream. It fires
     * where the request arrives, where a miss's completion is known,
     * and where the device answers, rescheduling itself from
     * process() (the queue clears scheduled() before calling it).
     */
    class HopEvent final : public sim::Event
    {
      public:
        enum class Phase { Arrive, Known, Done };

        void process() override { bus->hop(tag); }
        std::string description() const override { return "bus hop"; }

        TileLinkBus *bus = nullptr;
        std::uint8_t tag = 0;
        Phase phase = Phase::Arrive;
        /** When the device answers; set on arrival. */
        sim::Tick done = 0;
    };

    /**
     * An issued transaction. It holds its tag from issue to response
     * (retries included), so its state lives in the tag's slot and
     * the scheduled events carry only the tag.
     */
    struct InFlight {
        MemPacket pkt;
        TaggedCallback cb;
        sim::Tick issued = 0;
        std::uint32_t attempt = 0;
        /** For respondsAhead: MemTiming::known, the tick the hop
         *  before it was scheduled, and the scheduling stamps of the
         *  issue and of the response. */
        sim::Tick known = 0;
        sim::Tick knownAfter = 0;
        bool knownOnArrival = false;
        std::uint64_t issueStamp = 0;
        std::uint64_t responseStamp = 0;
        ResponseEvent response;
        HopEvent hop;
    };

    /** Issue waiting requests while tags are free. */
    void tryIssue();

    /** Issue @p pkt on a free tag: time it, or, while the bus fault
     *  site is active, send it downstream as an event. */
    void issue(const MemPacket &pkt, TaggedCallback cb,
               const IssueCallback &on_issue);
    std::uint8_t allocateTag();

    /**
     * Whether @p x's response, issued now, fires before @p o's
     * pending response at the same tick, as with an event per hop.
     */
    bool respondsAhead(const InFlight &x, const InFlight &o) const;

    /** Schedule @p tag's response at @p when, in respondsAhead order. */
    void respondInOrder(std::uint8_t tag, sim::Tick when);

    /** (Re)schedule the response event on @p tag at @p when. */
    void scheduleResponse(std::uint8_t tag, sim::Tick when);

    /** The response event on @p tag fired: complete the transaction. */
    void deliver(std::uint8_t tag);

    /**
     * Fault path: hand the transaction on @p tag to the downstream
     * device at @p arrive; on an injected response error, re-issue
     * (same tag) until the retry budget is spent.
     */
    void issueDownstream(std::uint8_t tag, sim::Tick arrive);

    /** Fault path: the hop event on @p tag fired. */
    void hop(std::uint8_t tag);

    /** Fault path: the downstream device answered on @p tag. */
    void downstreamDone(std::uint8_t tag, sim::Tick down_done);

    /** Record the latency histogram and emit the trace span. */
    void observeTransaction(const MemPacket &pkt, std::uint8_t tag,
                            sim::Tick issued, sim::Tick done);

    TileLinkConfig _cfg;
    MemDevice *_downstream;
    std::uint32_t _freeTagMask;
    std::deque<Pending> _waiting;
    /** Per-tag transaction slots, indexed by tag. */
    std::array<InFlight, 32> _inflight;
    sim::Tick _requestChannelFree = 0;
    /** Inside deliver(): requests issued now come from a response. */
    bool _delivering = false;
    /** Lazily allocated trace-sink process id (0 = none yet). */
    std::uint32_t _tracePid = 0;
    fault::RetryPolicy _retry;
    std::unique_ptr<TileLinkPort> _port;
};

/**
 * `link::Channel` adapter over the bus's own channel timing (request
 * serialization + one channel traversal). The event-driven bus model
 * stays authoritative for transaction scheduling; the port is the
 * uniform latency/injection surface.
 */
class TileLinkPort : public link::Channel
{
  public:
    explicit TileLinkPort(const TileLinkBus &bus)
        : link::Channel("bus"), _bus(&bus)
    {}

    sim::Tick
    transferLatency(std::uint64_t bytes) const override
    {
        return _bus->clockDomain().cyclesToTicks(
            _bus->beatsFor(static_cast<std::uint32_t>(bytes)) +
            _bus->config().channelLatency);
    }

  private:
    const TileLinkBus *_bus;
};

} // namespace qtenon::memory

#endif // QTENON_MEMORY_TILELINK_HH
