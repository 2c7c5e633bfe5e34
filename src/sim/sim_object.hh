/**
 * @file
 * SimObject: the base class for every named model in the simulated
 * system, and Clocked: the mixin giving an object a clock domain.
 */

#ifndef QTENON_SIM_SIM_OBJECT_HH
#define QTENON_SIM_SIM_OBJECT_HH

#include <cstdint>
#include <string>

#include "event_queue.hh"
#include "types.hh"

namespace qtenon::sim {

/**
 * One simulated fact a SimObject counts: a plain integer bumped once
 * at its event site. The owner is the only place the count lives;
 * it publishes its totals into the process-wide obs registry when it
 * is destroyed.
 */
class Count
{
  public:
    Count &operator++() { ++_n; return *this; }
    Count &operator+=(std::uint64_t n) { _n += n; return *this; }
    std::uint64_t value() const { return _n; }

  private:
    std::uint64_t _n = 0;
};

/**
 * A named participant in the simulation. Holds a reference to the
 * shared event queue.
 */
class SimObject
{
  public:
    SimObject(EventQueue &eq, std::string name)
        : _eventq(eq), _name(std::move(name))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    EventQueue &eventq() { return _eventq; }
    const EventQueue &eventq() const { return _eventq; }
    Tick curTick() const { return _eventq.curTick(); }

    /** Schedule an event on the shared queue. */
    void schedule(Event *ev, Tick when) { _eventq.schedule(ev, when); }

  private:
    EventQueue &_eventq;
    std::string _name;
};

/**
 * A clock domain: a period in ticks. Shared by all objects clocked at
 * the same frequency.
 */
class ClockDomain
{
  public:
    explicit ClockDomain(Tick period) : _period(period) {}

    /** Construct from a frequency in hertz. */
    static ClockDomain fromHz(std::uint64_t hz)
    {
        return ClockDomain(periodFromHz(hz));
    }

    Tick period() const { return _period; }

    /** Number of whole cycles elapsed at tick @p t. */
    Cycles cyclesAt(Tick t) const { return t / _period; }

    /**
     * The tick of the next rising edge at or after @p t, then @p n
     * additional cycles later.
     */
    Tick
    clockEdgeAt(Tick t, Cycles n = 0) const
    {
        Tick edge = ((t + _period - 1) / _period) * _period;
        return edge + n * _period;
    }

    /** Convert a cycle count to ticks. */
    Tick cyclesToTicks(Cycles c) const { return c * _period; }

    /** Convert a tick delta to whole cycles (rounding up). */
    Cycles
    ticksToCycles(Tick t) const
    {
        return (t + _period - 1) / _period;
    }

  private:
    Tick _period;
};

/** A SimObject with an attached clock domain. */
class Clocked : public SimObject
{
  public:
    Clocked(EventQueue &eq, std::string name, ClockDomain domain)
        : SimObject(eq, std::move(name)), _domain(domain)
    {}

    const ClockDomain &clockDomain() const { return _domain; }
    Tick clockPeriod() const { return _domain.period(); }
    Cycles curCycle() const { return _domain.cyclesAt(curTick()); }

    /** Tick of the rising edge @p n cycles from now. */
    Tick clockEdge(Cycles n = 0) const
    {
        return _domain.clockEdgeAt(curTick(), n);
    }

  private:
    ClockDomain _domain;
};

} // namespace qtenon::sim

#endif // QTENON_SIM_SIM_OBJECT_HH
