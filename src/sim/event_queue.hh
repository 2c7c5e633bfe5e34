/**
 * @file
 * Discrete-event simulation core: Event and EventQueue.
 *
 * The queue orders events by tick; events scheduled for the same tick
 * fire in priority order, then in scheduling order (FIFO). This
 * mirrors the determinism guarantees of gem5's event queue, which the
 * cycle-level controller models rely on.
 */

#ifndef QTENON_SIM_EVENT_QUEUE_HH
#define QTENON_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <queue>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "types.hh"

namespace qtenon::sim {

class EventQueue;

/**
 * A schedulable event. Subclass and override process(), or use
 * EventQueue::scheduleLambda for ad-hoc callbacks.
 */
class Event
{
  public:
    /** Default priority bands, lower value fires first. */
    enum Priority : int {
        clockPrio = -10,
        /**
         * Work released one at a time from a list sorted up front:
         * q_run's batch PUTs (runtime/executor.cc), fired with
         * EventQueue::fireInline. Scheduling the whole list before
         * the drain would give every PUT a sequence number below
         * that of any event the drain creates, so at a shared tick
         * a PUT would fire before every default-priority event.
         * This band gives a PUT released late that same precedence,
         * so both schedules fire the same events in the same order.
         * It is exact only while nothing else uses a band between
         * clockPrio and defaultPrio.
         */
        releasePrio = -5,
        defaultPrio = 0,
        statsPrio = 10,
    };

    explicit Event(int priority = defaultPrio) : _priority(priority) {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Called by the queue when the event fires. */
    virtual void process() = 0;

    /** Human-readable event description for tracing. */
    virtual std::string description() const { return "generic event"; }

    bool scheduled() const { return _scheduled; }
    Tick when() const { return _when; }
    int priority() const { return _priority; }

  private:
    friend class EventQueue;

    Tick _when = 0;
    std::uint64_t _sequence = 0;
    int _priority;
    bool _scheduled = false;
    /** A LambdaEvent, deleted by the queue once it fires. */
    bool _queueOwned = false;
    EventQueue *_queue = nullptr;
};

/**
 * A one-shot event holding a callable. Only EventQueue::scheduleLambda
 * creates these; the queue deletes one right after it fires, or at
 * teardown if it never does.
 */
template <typename F>
class LambdaEvent final : public Event
{
  public:
    LambdaEvent(F fn, const char *desc, int priority)
        : Event(priority), _fn(std::move(fn)), _desc(desc)
    {}

    void process() override { _fn(); }
    std::string description() const override { return _desc; }

  private:
    F _fn;
    const char *_desc;
};

/**
 * The global event queue for one simulation. Owns current time;
 * everything that happens in the simulation happens because an event
 * on this queue fired.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Schedule @p ev to fire at absolute tick @p when. */
    void schedule(Event *ev, Tick when);

    /** Remove a pending event from the queue. */
    void deschedule(Event *ev);

    /** Deschedule (if needed) and reschedule at a new time. */
    void reschedule(Event *ev, Tick when);

    /**
     * Schedule a one-shot callback in a queue-owned LambdaEvent,
     * which is deleted right after it fires; its ordering is exactly
     * that of an owner-managed event scheduled at the same point.
     * @p desc must outlive the event (pass a string literal).
     */
    template <typename F>
    void
    scheduleLambda(Tick when, F &&fn, const char *desc = "lambda",
                   int priority = Event::defaultPrio)
    {
        auto *ev = new LambdaEvent<std::decay_t<F>>(
            std::forward<F>(fn), desc, priority);
        ev->_queueOwned = true;
        schedule(ev, when);
    }

    /**
     * Fire @p fn where a lambda scheduled now at (@p when,
     * @p priority) would fire, without queueing it: run every event
     * ordered before it, set the current tick to @p when, then call
     * @p fn as the event being processed (it holds the sequence
     * number taken here, so firingAhead() answers for it). The same
     * events fire in the same order as with `scheduleLambda(when,
     * fn, desc, priority)` and a run until it fired, but no node is
     * queued, @p fn is never copied, and eventsProcessed() does not
     * count it. Call it outside any event.
     */
    template <typename F>
    void
    fireInline(Tick when, int priority, F &&fn)
    {
        const Entry self{when, priority, _nextSequence++, nullptr};
        runBefore(self);
        _curTick = when;
        _firing = &self;
        fn();
        _firing = nullptr;
    }

    /** Whether any events are pending. */
    bool empty() const { return _live == 0; }

    /** Number of pending events. */
    std::size_t size() const { return _live; }

    /** Tick of the next pending event (maxTick if empty). */
    Tick nextTick() const;

    /**
     * Run until the queue drains or @p limit is reached, whichever is
     * first. Returns the number of events processed.
     */
    std::uint64_t run(Tick limit = maxTick);

    /** Fire exactly one event. Returns false if the queue is empty. */
    bool step();

    /** Total number of events processed so far. */
    std::uint64_t eventsProcessed() const { return _processed; }

    /**
     * A point in the scheduling order: every event scheduled from
     * here on gets a sequence number at or above it.
     */
    std::uint64_t scheduleStamp() const { return _nextSequence; }

    /**
     * Whether the event being processed fires, at its tick, ahead of
     * an event of @p priority scheduled at @p stamp for that tick;
     * false outside an event.
     */
    bool
    firingAhead(int priority, std::uint64_t stamp) const
    {
        return _firing &&
            (_firing->priority != priority ? _firing->priority < priority
                                           : _firing->sequence < stamp);
    }

  private:
    struct Entry {
        Tick when;
        int priority;
        std::uint64_t sequence;
        Event *event;
    };

    struct EntryCompare {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.sequence > b.sequence;
        }
    };

    /** Pop cancelled (descheduled/rescheduled) heap entries. */
    void prune();

    /**
     * fireInline's checks and catch-up: panic inside an event or for
     * a past tick, then fire every event ordered before @p bound.
     */
    void runBefore(const Entry &bound);

    std::priority_queue<Entry, std::vector<Entry>, EntryCompare> _heap;
    /** Sequence numbers of descheduled entries still in the heap. */
    std::unordered_set<std::uint64_t> _cancelled;
    Tick _curTick = 0;
    std::uint64_t _nextSequence = 0;
    std::uint64_t _processed = 0;
    /** The entry of the event being processed, if any. */
    const Entry *_firing = nullptr;
    std::size_t _live = 0;
};

} // namespace qtenon::sim

#endif // QTENON_SIM_EVENT_QUEUE_HH
