/**
 * @file
 * Discrete-event queue underlying every SmartOClock simulation.
 *
 * Two kinds of simulation run on this queue: the 5-minute-slot power
 * simulation used for the large-scale trace studies (Table I) and the
 * microsecond-scale queueing simulation used for the cluster
 * experiments (Figs. 12-14).  Both need deterministic ordering, event
 * cancellation (e.g. a scheduled scale-down cancelled by a new load
 * spike), and periodic events (control-loop ticks).
 *
 * Storage (DESIGN.md §3): a binary heap of (when, seq, slot,
 * generation) records held by value, over a pooled array of handler
 * slots threaded by a free list.  An EventId names a slot and the
 * generation it had when the event was scheduled; running or
 * cancelling an event bumps the slot's generation, so a stale id can
 * never cancel the slot's next occupant, and a heap record whose
 * generation no longer matches is a cancelled event, discarded when
 * it reaches the head.  Once both arrays have grown to the peak
 * number of pending events, scheduling allocates nothing — provided
 * the handler fits std::function's inline buffer (16 bytes in
 * libstdc++, e.g. two pointers).
 */

#ifndef SOC_SIM_EVENT_QUEUE_HH
#define SOC_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hh"

namespace soc
{
namespace sim
{

/**
 * Opaque handle identifying a scheduled event, used to cancel it:
 * the slot index in the low 32 bits, its generation (never 0) in
 * the high 32.
 */
using EventId = std::uint64_t;

/** Sentinel returned when scheduling fails / for "no event". */
constexpr EventId kInvalidEvent = 0;

/**
 * Time-ordered event queue with stable FIFO ordering among events
 * scheduled for the same tick.
 */
class EventQueue
{
  public:
    using Handler = std::function<void(Tick)>;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time (the tick of the last executed event). */
    Tick now() const { return now_; }

    /**
     * Schedule @p handler to run at absolute time @p when.
     * Scheduling in the past is a programming error and asserts.
     *
     * @return handle usable with cancel().
     */
    EventId schedule(Tick when, Handler handler);

    /** Schedule @p handler to run @p delay after now(). */
    EventId scheduleAfter(Tick delay, Handler handler);

    /**
     * Cancel a previously scheduled event.
     *
     * @return true if the event was pending and is now cancelled;
     *         false for an event that already ran or was cancelled,
     *         even once its slot holds a later event.
     */
    bool cancel(EventId id);

    /** @return true when no runnable events remain. */
    bool empty() const;

    /** Number of pending (non-cancelled) events. */
    std::size_t size() const { return pendingCount_; }

    /**
     * Run the next event.
     *
     * @return false when the queue is empty.
     */
    bool step();

    /** Run events until the queue drains or now() would pass @p until;
     *  afterwards now() is exactly @p until. */
    void runUntil(Tick until);

    /** Run events until the queue drains. */
    void run();

    /** Total number of events executed so far. */
    std::uint64_t executedCount() const { return executed_; }

  private:
    /** Heap record; ordered by (when, seq), so FIFO within a tick. */
    struct Record {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t generation;
    };

    /** Pooled handler storage; a free slot's generation has already
     *  moved past every id issued for it. */
    struct Slot {
        Handler handler;
        std::uint32_t generation = 1;
        std::uint32_t nextFree = kNoSlot;
    };

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** A record is live while its slot still has its generation. */
    bool live(const Record &r) const
    {
        return slots_[r.slot].generation == r.generation;
    }

    /** Retire @p slot's current generation and return it to the
     *  free list (handler already moved out or dropped). */
    void release(std::uint32_t slot);

    /** Pop cancelled records off the heap head. */
    void skipCancelled();

    /** Remove and return the heap head. */
    Record popHead();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pendingCount_ = 0;

    std::vector<Record> heap_;
    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNoSlot;
};

} // namespace sim
} // namespace soc

#endif // SOC_SIM_EVENT_QUEUE_HH
