#include "sim/event_queue.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace soc
{
namespace sim
{

namespace
{

/** Heap order: @p a runs after @p b (std heaps keep the "largest"
 *  on top, so the earliest (when, seq) must compare largest). */
template <class Record>
bool
runsAfter(const Record &a, const Record &b)
{
    if (a.when != b.when)
        return a.when > b.when;
    return a.seq > b.seq;
}

} // namespace

EventId
EventQueue::schedule(Tick when, Handler handler)
{
    assert(when >= now_ && "scheduling into the past");
    std::uint32_t slot = freeHead_;
    if (slot != kNoSlot) {
        freeHead_ = slots_[slot].nextFree;
    } else {
        if (slots_.size() >= kNoSlot)
            throw std::length_error("EventQueue: slot pool exhausted");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[slot];
    s.handler = std::move(handler);
    heap_.push_back(Record{when, nextSeq_++, slot, s.generation});
    std::push_heap(heap_.begin(), heap_.end(), runsAfter<Record>);
    ++pendingCount_;
    return (EventId{s.generation} << 32) | slot;
}

EventId
EventQueue::scheduleAfter(Tick delay, Handler handler)
{
    return schedule(now_ + delay, std::move(handler));
}

void
EventQueue::release(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.handler = nullptr;
    // Generation 0 is never issued, so a slot whose counter wraps is
    // retired rather than reused: no id, however old, can match it.
    if (++s.generation == 0)
        return;
    s.nextFree = freeHead_;
    freeHead_ = slot;
}

bool
EventQueue::cancel(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (generation == 0 || slot >= slots_.size() ||
        slots_[slot].generation != generation)
        return false;
    // The heap record stays behind; its generation no longer
    // matches, so skipCancelled() discards it at the head.
    release(slot);
    --pendingCount_;
    return true;
}

bool
EventQueue::empty() const
{
    return pendingCount_ == 0;
}

EventQueue::Record
EventQueue::popHead()
{
    std::pop_heap(heap_.begin(), heap_.end(), runsAfter<Record>);
    const Record head = heap_.back();
    heap_.pop_back();
    return head;
}

void
EventQueue::skipCancelled()
{
    while (!heap_.empty() && !live(heap_.front()))
        popHead();
}

bool
EventQueue::step()
{
    skipCancelled();
    if (heap_.empty())
        return false;

    const Record head = popHead();
    // Move the handler out and free its slot first: the handler may
    // schedule (growing slots_) or try to cancel its own, now stale,
    // id.
    Handler handler = std::move(slots_[head.slot].handler);
    release(head.slot);
    --pendingCount_;

    now_ = head.when;
    ++executed_;
    handler(now_);
    return true;
}

void
EventQueue::runUntil(Tick until)
{
    while (true) {
        skipCancelled();
        if (heap_.empty() || heap_.front().when > until)
            break;
        step();
    }
    if (now_ < until)
        now_ = until;
}

void
EventQueue::run()
{
    while (step()) {
    }
}

} // namespace sim
} // namespace soc
