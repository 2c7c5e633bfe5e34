#include "event_queue.hh"

#include <memory>

#include "logging.hh"

namespace qtenon::sim {

Event::~Event()
{
    if (_scheduled && _queue)
        _queue->deschedule(this);
}

EventQueue::~EventQueue()
{
    // Drain the heap, detaching events that never fired and deleting
    // the lambdas among them. A cancelled entry's event may already
    // be destroyed, so only live entries are dereferenced.
    while (!_heap.empty()) {
        Entry e = _heap.top();
        _heap.pop();
        if (!_cancelled.erase(e.sequence)) {
            e.event->_scheduled = false;
            e.event->_queue = nullptr;
            if (e.event->_queueOwned)
                delete e.event;
        }
    }
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    if (ev->_scheduled)
        panic("event '", ev->description(), "' scheduled twice");
    if (when < _curTick) {
        panic("event '", ev->description(), "' scheduled in the past (",
              when, " < ", _curTick, ")");
    }

    ev->_when = when;
    ev->_sequence = _nextSequence++;
    ev->_scheduled = true;
    ev->_queue = this;
    _heap.push(Entry{when, ev->priority(), ev->_sequence, ev});
    ++_live;
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->_scheduled)
        panic("descheduling unscheduled event '", ev->description(), "'");
    // Lazy deletion: the heap entry is discarded when it surfaces.
    // It is recognised by its sequence number, never through the
    // event, which its owner may destroy in the meantime.
    _cancelled.insert(ev->_sequence);
    ev->_scheduled = false;
    ev->_queue = nullptr;
    --_live;
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->_scheduled)
        deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::prune()
{
    while (!_heap.empty() && !_cancelled.empty() &&
           _cancelled.erase(_heap.top().sequence)) {
        _heap.pop();
    }
}

void
EventQueue::runBefore(const Entry &bound)
{
    if (_firing)
        panic("inline event fired inside an event");
    if (bound.when < _curTick) {
        panic("inline event fired in the past (", bound.when, " < ",
              _curTick, ")");
    }
    // Sequence numbers are unique, so no entry ties with the bound.
    while (true) {
        prune();
        if (_heap.empty() || !EntryCompare{}(bound, _heap.top()))
            break;
        step();
    }
}

Tick
EventQueue::nextTick() const
{
    auto *self = const_cast<EventQueue *>(this);
    self->prune();
    return _heap.empty() ? maxTick : _heap.top().when;
}

bool
EventQueue::step()
{
    prune();
    if (_heap.empty())
        return false;

    Entry e = _heap.top();
    _heap.pop();
    --_live;

    Event *ev = e.event;
    ev->_scheduled = false;
    ev->_queue = nullptr;
    _curTick = e.when;
    ++_processed;
    // A lambda is deleted once it has fired, even if it throws.
    const std::unique_ptr<Event> lambda(ev->_queueOwned ? ev : nullptr);
    const Entry *outer = _firing;
    _firing = &e;
    ev->process();
    _firing = outer;
    return true;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t fired = 0;
    while (true) {
        prune();
        if (_heap.empty())
            break;
        if (_heap.top().when > limit) {
            _curTick = limit;
            break;
        }
        step();
        ++fired;
    }
    if (_heap.empty() && limit != maxTick && _curTick < limit)
        _curTick = limit;
    return fired;
}

} // namespace qtenon::sim
