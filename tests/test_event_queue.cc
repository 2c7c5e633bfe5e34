/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, same-tick
 * determinism, deschedule/reschedule, bounded runs, queue-owned
 * lambda events, and a differential check against a reference queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <ostream>
#include <queue>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

using namespace qtenon::sim;

namespace {

class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::vector<int> &log, int id,
                   int priority = Event::defaultPrio)
        : Event(priority), _log(log), _id(id)
    {}

    void process() override { _log.push_back(_id); }

  private:
    std::vector<int> &_log;
    int _id;
};

} // namespace

TEST(EventQueue, FiresInTickOrder)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&c, 300);
    eq.schedule(&a, 100);
    eq.schedule(&b, 200);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&a, 50);
    eq.schedule(&b, 50);
    eq.schedule(&c, 50);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent low(log, 1, Event::statsPrio);
    RecordingEvent high(log, 2, Event::clockPrio);
    eq.schedule(&low, 10);
    eq.schedule(&high, 10);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, ReleaseBandFiresBetweenClockAndDefault)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent dflt(log, 1);
    RecordingEvent clock(log, 2, Event::clockPrio);
    RecordingEvent release(log, 3, Event::releasePrio);
    eq.schedule(&dflt, 10);
    eq.schedule(&clock, 10);
    eq.schedule(&release, 10);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
}

TEST(EventQueue, ReleaseBandHoldsWhenScheduledLast)
{
    // The release-band event is scheduled from inside an earlier
    // event, after both same-tick events are already queued.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent dflt(log, 1);
    RecordingEvent clock(log, 2, Event::clockPrio);
    RecordingEvent release(log, 3, Event::releasePrio);
    eq.schedule(&dflt, 10);
    eq.schedule(&clock, 10);
    eq.scheduleLambda(5, [&] { eq.schedule(&release, 10); });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
}

TEST(EventQueue, FireInlineOrdersAgainstBandsAtItsTick)
{
    // Inline at (10, releasePrio): what is ordered before it fires
    // first, including a release-band event queued earlier; nothing
    // ordered after it fires until the queue runs.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent early(log, 1);
    RecordingEvent clock(log, 2, Event::clockPrio);
    RecordingEvent release(log, 3, Event::releasePrio);
    RecordingEvent dflt(log, 4);
    RecordingEvent stats(log, 5, Event::statsPrio);
    RecordingEvent late(log, 6, Event::clockPrio);
    eq.schedule(&dflt, 10);
    eq.schedule(&stats, 10);
    eq.schedule(&late, 11);
    eq.schedule(&release, 10);
    eq.schedule(&clock, 10);
    eq.schedule(&early, 9);
    eq.fireInline(10, Event::releasePrio, [&] { log.push_back(0); });
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 0}));
    EXPECT_EQ(eq.curTick(), 10u);
    EXPECT_EQ(eq.size(), 3u);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 0, 4, 5, 6}));
    // Only queued events count as processed.
    EXPECT_EQ(eq.eventsProcessed(), 6u);
}

TEST(EventQueue, FireInlineRunsAsTheEventBeingProcessed)
{
    EventQueue eq;
    eq.scheduleLambda(4, [] {});
    const std::uint64_t stamp = eq.scheduleStamp();
    bool called = false;
    eq.fireInline(7, Event::releasePrio, [&] {
        called = true;
        EXPECT_EQ(eq.curTick(), 7u);
        // It took the sequence number `stamp`.
        EXPECT_EQ(eq.scheduleStamp(), stamp + 1);
        EXPECT_TRUE(eq.firingAhead(Event::defaultPrio, 0));
        EXPECT_TRUE(eq.firingAhead(Event::statsPrio, 0));
        EXPECT_FALSE(eq.firingAhead(Event::clockPrio, stamp + 1));
        EXPECT_TRUE(eq.firingAhead(Event::releasePrio, stamp + 1));
        EXPECT_FALSE(eq.firingAhead(Event::releasePrio, stamp));
    });
    EXPECT_TRUE(called);
    EXPECT_FALSE(eq.firingAhead(Event::defaultPrio, ~0ull));
    EXPECT_EQ(eq.eventsProcessed(), 1u);
}

TEST(EventQueue, FireInlineSchedulesAtItsOwnTick)
{
    // Events the callable schedules at its own tick fire after it,
    // by band, and after queued events of their band.
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent queued(log, 1);
    eq.schedule(&queued, 10);
    eq.fireInline(10, Event::releasePrio, [&] {
        log.push_back(0);
        eq.scheduleLambda(10, [&] { log.push_back(2); }, "dflt");
        eq.scheduleLambda(10, [&] { log.push_back(3); }, "release",
                          Event::releasePrio);
        eq.scheduleLambda(10, [&] { log.push_back(4); }, "clock",
                          Event::clockPrio);
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 4, 3, 1, 2}));
}

TEST(EventQueueDeath, FireInlineInThePastPanics)
{
    EventQueue eq;
    eq.scheduleLambda(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.fireInline(50, Event::releasePrio, [] {}),
                 "in the past");
}

TEST(EventQueueDeath, FireInlineInsideAnEventPanics)
{
    EventQueue eq;
    eq.scheduleLambda(5, [&] {
        eq.fireInline(6, Event::releasePrio, [] {});
    });
    EXPECT_DEATH(eq.run(), "inside an event");
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.reschedule(&a, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, DestroyedEventsAreNeverTouched)
{
    // Cancelled heap entries outlive their events; the queue must
    // skip them without dereferencing (checked under ASan + UBSan).
    EventQueue eq;
    std::vector<int> log;
    {
        RecordingEvent a(log, 1), b(log, 2);
        eq.schedule(&a, 10);
        eq.deschedule(&a);
        eq.schedule(&b, 5); // still scheduled when destroyed
    }
    RecordingEvent c(log, 3);
    eq.schedule(&c, 20);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{3}));
    RecordingEvent d(log, 4);
    eq.schedule(&d, 30);
    eq.reschedule(&d, 40); // torn down with a cancelled entry queued
}

TEST(EventQueue, RunWithLimitStopsAndAdvancesTime)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 100);
    eq.schedule(&b, 500);
    eq.run(250);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(eq.curTick(), 250u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RunWithLimitAdvancesEmptyQueue)
{
    EventQueue eq;
    eq.run(1000);
    EXPECT_EQ(eq.curTick(), 1000u);
}

TEST(EventQueue, LambdaEventsSelfDelete)
{
    EventQueue eq;
    int count = 0;
    eq.scheduleLambda(10, [&] { ++count; });
    eq.scheduleLambda(20, [&] { ++count; });
    eq.run();
    EXPECT_EQ(count, 2);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    std::vector<Tick> fired;
    eq.scheduleLambda(10, [&] {
        fired.push_back(eq.curTick());
        eq.scheduleLambda(eq.curTick() + 5,
                          [&] { fired.push_back(eq.curTick()); });
    });
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{10, 15}));
}

TEST(EventQueue, NextTickReportsEarliestPending)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    EXPECT_EQ(eq.nextTick(), maxTick);
    eq.schedule(&a, 42);
    EXPECT_EQ(eq.nextTick(), 42u);
}

TEST(EventQueue, StepFiresExactlyOne)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ProcessedCountAccumulates)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.scheduleLambda(10 * (i + 1), [] {});
    eq.run();
    EXPECT_EQ(eq.eventsProcessed(), 5u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.scheduleLambda(100, [] {});
    eq.run();
    std::vector<int> log;
    RecordingEvent a(log, 1);
    EXPECT_DEATH(eq.schedule(&a, 50), "in the past");
}

TEST(EventQueueDeath, DoubleSchedulePanics)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    eq.schedule(&a, 10);
    EXPECT_DEATH(eq.schedule(&a, 20), "scheduled twice");
    eq.deschedule(&a);
}

TEST(EventQueue, LambdaCapturesReleasedAfterFiringAndAtTeardown)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue eq;
        eq.scheduleLambda(10, [token] { ++*token; });
        eq.scheduleLambda(20, [token] { ++*token; });
        eq.run(15);
        // The fired lambda's captures are gone; the pending one's
        // live until the queue is destroyed.
        EXPECT_EQ(*token, 1);
        EXPECT_EQ(token.use_count(), 2);
        // A lambda scheduled after a run fires on the next.
        eq.scheduleLambda(15, [token] { ++*token; });
        eq.run(15);
        EXPECT_EQ(*token, 2);
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
}

/**
 * Differential test of the EventQueue against a reference built on
 * std::priority_queue. A seeded corpus of schedule / deschedule /
 * reschedule / scheduleLambda calls (lambdas schedule more lambdas)
 * drives both through the same harness interface; each firing logs
 * (tick, priority, sequence), where the sequence is the index of the
 * schedule call that armed the event.
 */
namespace {

struct Fired {
    Tick tick;
    int priority;
    std::uint64_t sequence;

    bool
    operator==(const Fired &o) const
    {
        return tick == o.tick && priority == o.priority &&
            sequence == o.sequence;
    }
};

std::ostream &
operator<<(std::ostream &os, const Fired &f)
{
    return os << "(" << f.tick << ", " << f.priority << ", "
              << f.sequence << ")";
}

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 31;
    x *= 0x9E3779B97F4A7C15ull;
    x ^= x >> 29;
    return x;
}

int
priorityFrom(std::uint64_t h)
{
    static const int prios[] = {Event::clockPrio, Event::defaultPrio,
                                Event::defaultPrio, Event::statsPrio,
                                -3, 7};
    return prios[h % 6];
}

/** The EventQueue behind the harness interface. */
class PooledHarness
{
  public:
    explicit PooledHarness(int owned)
    {
        for (int i = 0; i < owned; ++i)
            _owned.push_back(std::make_unique<Owned>(
                *this, priorityFrom(mix(i + 1))));
    }

    std::vector<Fired> fired;
    std::uint64_t nextSequence = 0;

    Tick curTick() const { return _eq.curTick(); }
    bool scheduled(int id) const { return _owned[id]->scheduled(); }
    std::uint64_t eventsProcessed() const { return _eq.eventsProcessed(); }
    bool step() { return _eq.step(); }
    void run(Tick limit = maxTick) { _eq.run(limit); }

    void
    schedule(int id, Tick when)
    {
        _owned[id]->sequence = nextSequence++;
        _eq.schedule(_owned[id].get(), when);
    }

    void deschedule(int id) { _eq.deschedule(_owned[id].get()); }

    void
    reschedule(int id, Tick when)
    {
        _owned[id]->sequence = nextSequence++;
        _eq.reschedule(_owned[id].get(), when);
    }

    template <typename F>
    void
    lambda(Tick when, int priority, F &&fn)
    {
        ++nextSequence;
        _eq.scheduleLambda(when, std::forward<F>(fn), "corpus lambda",
                           priority);
    }

  private:
    struct Owned : public Event {
        Owned(PooledHarness &h, int prio) : Event(prio), harness(h) {}
        void
        process() override
        {
            harness.fired.push_back(
                {harness.curTick(), priority(), sequence});
        }
        PooledHarness &harness;
        std::uint64_t sequence = 0;
    };

    EventQueue _eq;
    std::vector<std::unique_ptr<Owned>> _owned;
};

/** The reference: std::priority_queue with lazy deletion. */
class ReferenceHarness
{
  public:
    explicit ReferenceHarness(int owned)
    {
        for (int i = 0; i < owned; ++i)
            _owned.push_back({priorityFrom(mix(i + 1)), 0, false});
    }

    std::vector<Fired> fired;
    std::uint64_t nextSequence = 0;

    Tick curTick() const { return _cur; }
    bool scheduled(int id) const { return _owned[id].scheduled; }
    std::uint64_t eventsProcessed() const { return _processed; }

    void
    schedule(int id, Tick when)
    {
        auto &o = _owned[id];
        o.sequence = nextSequence++;
        o.scheduled = true;
        _heap.push({when, o.priority, o.sequence, id});
    }

    void deschedule(int id) { _owned[id].scheduled = false; }

    void
    reschedule(int id, Tick when)
    {
        schedule(id, when);
    }

    template <typename F>
    void
    lambda(Tick when, int priority, F &&fn)
    {
        _lambdas.emplace_back(std::forward<F>(fn));
        _heap.push({when, priority, nextSequence++,
                    -static_cast<int>(_lambdas.size())});
    }

    bool
    step()
    {
        prune();
        if (_heap.empty())
            return false;
        const Entry e = _heap.top();
        _heap.pop();
        _cur = e.when;
        ++_processed;
        if (e.id >= 0) {
            _owned[e.id].scheduled = false;
            fired.push_back({e.when, e.priority, e.sequence});
        } else {
            auto fn = std::move(_lambdas[-e.id - 1]);
            fn();
        }
        return true;
    }

    void
    run(Tick limit = maxTick)
    {
        while (true) {
            prune();
            if (_heap.empty())
                break;
            if (_heap.top().when > limit) {
                _cur = limit;
                break;
            }
            step();
        }
        if (_heap.empty() && limit != maxTick && _cur < limit)
            _cur = limit;
    }

  private:
    struct Entry {
        Tick when;
        int priority;
        std::uint64_t sequence;
        /** Owned event index, or -(lambda index + 1). */
        int id;

        bool
        operator>(const Entry &o) const
        {
            return std::tie(when, priority, sequence) >
                std::tie(o.when, o.priority, o.sequence);
        }
    };

    struct OwnedState {
        int priority;
        std::uint64_t sequence;
        bool scheduled;
    };

    void
    prune()
    {
        while (!_heap.empty()) {
            const Entry &e = _heap.top();
            if (e.id < 0 || (_owned[e.id].scheduled &&
                             _owned[e.id].sequence == e.sequence))
                return;
            _heap.pop();
        }
    }

    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        _heap;
    std::vector<OwnedState> _owned;
    std::vector<std::function<void()>> _lambdas;
    Tick _cur = 0;
    std::uint64_t _processed = 0;
};

/**
 * Schedule a corpus lambda; some capture a heap string or pad their
 * captures toward the inline budget, and some schedule children.
 */
template <typename H>
void
spawnLambda(H &h, Tick when, int priority, unsigned depth)
{
    const std::uint64_t seq = h.nextSequence;
    const auto fire = [&h, priority, seq, depth] {
        h.fired.push_back({h.curTick(), priority, seq});
        const auto x = mix(seq);
        if (depth < 3 && x % 3 == 0) {
            spawnLambda(h, h.curTick() + (x >> 8) % 40,
                        priorityFrom(x >> 16), depth + 1);
        }
    };
    switch (seq % 3) {
      case 0:
        h.lambda(when, priority, fire);
        break;
      case 1:
        h.lambda(when, priority,
                 [fire, name = std::string(40, 'x')] {
                     ASSERT_EQ(name.size(), 40u);
                     fire();
                 });
        break;
      default: {
        std::array<std::uint8_t, 96> pad{};
        pad.fill(static_cast<std::uint8_t>(seq));
        h.lambda(when, priority, [fire, pad, seq] {
            ASSERT_EQ(pad[95], static_cast<std::uint8_t>(seq));
            fire();
        });
      }
    }
}

template <typename H>
void
runCorpus(H &h, std::uint64_t seed, int ops, int owned)
{
    std::mt19937_64 rng(seed);
    for (int i = 0; i < ops; ++i) {
        const auto r = rng() % 100;
        const int id = static_cast<int>(rng() % owned);
        const Tick when = h.curTick() + rng() % 60;
        if (r < 20) {
            if (h.scheduled(id))
                h.reschedule(id, when);
            else
                h.schedule(id, when);
        } else if (r < 30) {
            if (h.scheduled(id))
                h.deschedule(id);
        } else if (r < 40) {
            h.reschedule(id, when);
        } else if (r < 70) {
            spawnLambda(h, when, priorityFrom(rng()), 0);
        } else if (r < 95) {
            h.step();
        } else {
            h.run(h.curTick() + rng() % 120);
        }
    }
    h.run();
}

} // namespace

TEST(EventQueue, PooledQueueMatchesReferenceOnRandomCorpus)
{
    constexpr int owned = 12;
    constexpr int ops = 4000;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        PooledHarness pooled(owned);
        ReferenceHarness ref(owned);
        runCorpus(pooled, seed, ops, owned);
        runCorpus(ref, seed, ops, owned);
        ASSERT_EQ(pooled.fired.size(), ref.fired.size()) << "seed " << seed;
        ASSERT_EQ(pooled.fired, ref.fired) << "seed " << seed;
        EXPECT_EQ(pooled.eventsProcessed(), ref.eventsProcessed());
        EXPECT_EQ(pooled.curTick(), ref.curTick());
        EXPECT_EQ(pooled.nextSequence, ref.nextSequence);
        EXPECT_GT(ref.fired.size(), std::size_t(ops / 2));
    }
}

/**
 * Differential test of fireInline against the schedule it replaces:
 * a sorted list of release-band lambdas, each scheduling the next
 * when it fires, then a drain. Every release spawns events in the
 * other bands (some at its own tick, some spawning more), and events
 * are queued before the first release; both schedules must fire the
 * same events at the same ticks in the same order.
 */
namespace {

class ReleaseCorpus
{
  public:
    explicit ReleaseCorpus(std::uint64_t seed) : _seed(seed) {}

    EventQueue eq;
    /** (tick, id) per firing; releases are tagged by releaseBit. */
    std::vector<std::pair<Tick, std::uint64_t>> log;
    static constexpr std::uint64_t releaseBit = 1ull << 63;

    /** Queue a corpus event at @p when, labelled by spawn order. */
    void
    spawn(Tick when, unsigned depth)
    {
        static const int bands[] = {Event::clockPrio, Event::defaultPrio,
                                    Event::statsPrio};
        const std::uint64_t id = _spawned++;
        const auto x = mix(id ^ (_seed * 0x9E3779B97F4A7C15ull));
        eq.scheduleLambda(when,
            [this, id, depth, x] {
                log.push_back({eq.curTick(), id});
                if (depth < 3 && x % 3 == 0)
                    spawn(eq.curTick() + (x >> 8) % 30, depth + 1);
                if (depth < 3 && x % 5 == 0)
                    spawn(eq.curTick(), depth + 1);
            },
            "corpus", bands[(x >> 20) % 3]);
    }

    /** Release @p k: log it and spawn events, one at its tick. */
    void
    release(std::uint64_t k)
    {
        log.push_back({eq.curTick(), releaseBit | k});
        const auto x = mix(k + _seed);
        spawn(eq.curTick(), 0);
        if (x % 2 == 0)
            spawn(eq.curTick() + (x >> 4) % 25, 0);
    }

  private:
    std::uint64_t _seed;
    std::uint64_t _spawned = 0;
};

/** Seeded release ticks (sorted, with ties) and queued-first events. */
std::vector<Tick>
seedCorpus(ReleaseCorpus &c, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    for (int i = 0; i < 40; ++i)
        c.spawn(rng() % 200, 0);
    std::vector<Tick> times(60);
    for (auto &t : times)
        t = rng() % 250;
    std::sort(times.begin(), times.end());
    return times;
}

} // namespace

TEST(EventQueue, FireInlineMatchesChainedReleaseLambdas)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        ReleaseCorpus queued(seed);
        const auto times = seedCorpus(queued, seed);
        struct Chain {
            ReleaseCorpus &c;
            const std::vector<Tick> &times;
            std::size_t next = 0;

            void
            releaseNext()
            {
                const std::size_t k = next++;
                c.eq.scheduleLambda(times[k],
                    [this, k] {
                        if (next < times.size())
                            releaseNext();
                        c.release(k);
                    },
                    "release", Event::releasePrio);
            }
        } chain{queued, times, 0};
        chain.releaseNext();
        queued.eq.run();

        ReleaseCorpus inlined(seed);
        ASSERT_EQ(seedCorpus(inlined, seed), times);
        for (std::size_t k = 0; k < times.size(); ++k) {
            inlined.eq.fireInline(times[k], Event::releasePrio,
                                  [&] { inlined.release(k); });
        }
        inlined.eq.run();

        ASSERT_EQ(inlined.log, queued.log) << "seed " << seed;
        EXPECT_EQ(inlined.eq.curTick(), queued.eq.curTick());
        EXPECT_EQ(inlined.eq.eventsProcessed() + times.size(),
                  queued.eq.eventsProcessed());
        EXPECT_GT(queued.log.size(), 2 * times.size());
    }
}
