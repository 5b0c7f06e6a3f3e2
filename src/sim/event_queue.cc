#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace soc
{
namespace sim
{

namespace
{

/** (when, seq) order: does (aw, as) run before (bw, bs)? */
bool
before(Tick aw, std::uint64_t as, Tick bw, std::uint64_t bs)
{
    return aw != bw ? aw < bw : as < bs;
}

/** Heap order: @p a runs after @p b (std heaps keep the "largest"
 *  on top, so the earliest (when, seq) must compare largest). */
template <class Record>
bool
runsAfter(const Record &a, const Record &b)
{
    return before(b.when, b.seq, a.when, a.seq);
}

std::uint32_t
lowestBit(std::uint64_t bits)
{
    return static_cast<std::uint32_t>(std::countr_zero(bits));
}

} // namespace

// soclint:hot-begin(PERF-001) — schedule, step and cancel run once
// per event of every discrete-event run; the slot pool and the heap
// grow to the peak pending count and are then reused.

EventId
EventQueue::schedule(Tick when, Handler handler)
{
    // Checked in every build, before any state changes: a past
    // event would move now() backwards and break the near tier's
    // window.
    if (when < now_)
        throw std::invalid_argument(
            "EventQueue: scheduling into the past");
    std::uint32_t slot;
    if (freeHead_ != 0) {
        slot = freeHead_ - 1;
        freeHead_ = slots_[slot].link;
    } else {
        if (slots_.size() >= kMaxSlots)
            throw std::length_error("EventQueue: slot pool exhausted");
        slot = static_cast<std::uint32_t>(slots_.size());
        // Grows to the peak pending count once.
        // soclint:allow(PERF-001)
        slots_.emplace_back();
    }
    Slot &s = slots_[slot];
    s.handler = std::move(handler);
    s.when = when;
    s.seq = nextSeq_++;
    const auto span = static_cast<std::uint64_t>(when >> kSpanShift);
    const auto first = static_cast<std::uint64_t>(now_ >> kSpanShift);
    const std::uint32_t b = bucketOf(when);
    s.near = span - first < kBuckets && counts_[b] < kBucketCap;
    if (s.near) {
        s.link = heads_[b];
        heads_[b] = slot + 1;
        if (counts_[b]++ == 0) {
            occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
            occupiedWords_ |= std::uint64_t{1} << (b / 64);
        }
    } else {
        // Grows to the peak far count once.  soclint:allow(PERF-001)
        heap_.push_back(Record{when, s.seq, slot, s.generation});
        std::push_heap(heap_.begin(), heap_.end(), runsAfter<Record>);
    }
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
    s.link = freeHead_;
    freeHead_ = slot + 1;
}

void
EventQueue::unlink(std::uint32_t *link, std::uint32_t bucket)
{
    *link = slots_[*link - 1].link;
    if (--counts_[bucket] == 0) {
        std::uint64_t &word = occupied_[bucket / 64];
        word &= ~(std::uint64_t{1} << (bucket % 64));
        if (word == 0)
            occupiedWords_ &= ~(std::uint64_t{1} << (bucket / 64));
    }
}

bool
EventQueue::cancel(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (generation == 0 || slot >= slots_.size() ||
        slots_[slot].generation != generation)
        return false;
    if (slots_[slot].near) {
        // At most kBucketCap links to walk.
        const std::uint32_t b = bucketOf(slots_[slot].when);
        std::uint32_t *link = &heads_[b];
        while (*link != slot + 1)
            link = &slots_[*link - 1].link;
        unlink(link, b);
    }
    // A far event's heap record stays behind; its generation no
    // longer matches, so skipCancelled() discards it at the head.
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

std::uint32_t
EventQueue::firstBucket() const
{
    // Circular order from now()'s bucket is span order, because
    // every near event lies within kBuckets spans of now().  Word
    // w's bits below `from` come last: they are the window's far
    // end.
    const std::uint32_t from = bucketOf(now_);
    const std::uint32_t w = from / 64;
    const std::uint64_t here =
        occupied_[w] & (~std::uint64_t{0} << (from % 64));
    if (here != 0)
        return w * 64 + lowestBit(here);
    std::uint64_t words =
        occupiedWords_ & ((~std::uint64_t{0} << w) << 1);
    if (words == 0)
        words = occupiedWords_; // wrapped: words 0..w, in order
    const std::uint32_t v = lowestBit(words);
    return v * 64 + lowestBit(occupied_[v]);
}

bool
EventQueue::findNext(Next &next)
{
    if (occupiedWords_ == 0) {
        skipCancelled();
        next.link = nullptr;
        return !heap_.empty();
    }
    // The near tier's minimum is in its first occupied bucket.
    const std::uint32_t b = firstBucket();
    std::uint32_t *best = &heads_[b];
    for (std::uint32_t *link = &slots_[*best - 1].link; *link != 0;
         link = &slots_[*link - 1].link) {
        const Slot &s = slots_[*link - 1];
        const Slot &m = slots_[*best - 1];
        if (before(s.when, s.seq, m.when, m.seq))
            best = link;
    }
    // The far tier wins only with an earlier live head; a cancelled
    // head is discarded only when it would have won.
    const Slot &m = slots_[*best - 1];
    while (!heap_.empty()) {
        const Record &head = heap_.front();
        if (!before(head.when, head.seq, m.when, m.seq))
            break;
        if (live(head)) {
            next.link = nullptr;
            return true;
        }
        popHead();
    }
    next.link = best;
    next.bucket = b;
    return true;
}

Tick
EventQueue::whenOf(const Next &next) const
{
    return next.link != nullptr ? slots_[*next.link - 1].when
                                : heap_.front().when;
}

void
EventQueue::runNext(const Next &next)
{
    std::uint32_t slot;
    if (next.link != nullptr) {
        slot = *next.link - 1;
        unlink(next.link, next.bucket);
    } else {
        slot = popHead().slot;
    }
    // Move the handler out and free its slot first: the handler may
    // schedule (growing slots_) or try to cancel its own, now stale,
    // id.
    Handler handler = std::move(slots_[slot].handler);
    const Tick when = slots_[slot].when;
    release(slot);
    --pendingCount_;

    now_ = when;
    ++executed_;
    handler(now_);
}

bool
EventQueue::step()
{
    Next next;
    if (!findNext(next))
        return false;
    runNext(next);
    return true;
}

void
EventQueue::runUntil(Tick until)
{
    Next next;
    while (findNext(next) && whenOf(next) <= until)
        runNext(next);
    if (now_ < until)
        now_ = until;
}

// soclint:hot-end(PERF-001)

void
EventQueue::run()
{
    while (step()) {
    }
}

} // namespace sim
} // namespace soc
