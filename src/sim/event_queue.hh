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
 * Storage (DESIGN.md §3): a pooled array of event slots threaded by
 * a free list, stored in one of two tiers.  The near tier is a
 * timing wheel of 4,096 buckets of 16 us covering the 65.5 ms from
 * now(); each bucket chains at most 8 events through their slots and
 * a 4,096-bit occupancy map finds the first occupied one.  Events
 * past the window, or headed for a full bucket, go to the far tier,
 * a binary heap of (when, seq, slot, generation) records held by
 * value.  An event stays in the tier it was scheduled into; each
 * step runs the earlier by (when, seq) of the first occupied
 * bucket's minimum and the heap's live head, so the execution order
 * is the (when, seq) order alone.
 *
 * An EventId names a slot and the generation it had when the event
 * was scheduled; running or cancelling an event bumps the slot's
 * generation, so a stale id can never cancel the slot's next
 * occupant.  Cancelling a near event unlinks it at once; a far
 * event's heap record stays behind, and a record whose generation no
 * longer matches is discarded when it reaches the head.  Once the
 * slot pool and the heap have grown to their peaks, scheduling
 * allocates nothing — provided the handler fits std::function's
 * inline buffer (16 bytes in libstdc++, e.g. two pointers).
 */

#ifndef SOC_SIM_EVENT_QUEUE_HH
#define SOC_SIM_EVENT_QUEUE_HH

#include <array>
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
     *
     * @throws std::invalid_argument if @p when is before now(), in
     *         every build, leaving the queue unchanged.
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
    /** Near-tier geometry: kBuckets buckets of 2^kSpanShift ticks
     *  (16 us x 4,096 = 65.5 ms), at most kBucketCap events each. */
    static constexpr int kSpanShift = 4;
    static constexpr std::uint32_t kBuckets = 4096;
    static constexpr std::uint8_t kBucketCap = 8;
    static constexpr std::uint32_t kWords = kBuckets / 64;
    /** Links hold index + 1 in 32 bits. */
    static constexpr std::size_t kMaxSlots = 0xffffffffu;

    /** Far-tier heap record; ordered by (when, seq), so FIFO within
     *  a tick. */
    struct Record {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t generation;
    };

    /** Pooled event storage; a free slot's generation has already
     *  moved past every id issued for it. */
    struct Slot {
        Tick when = 0;
        std::uint64_t seq = 0;
        /** Next event in the bucket (near tier) or next free slot,
         *  as index + 1; 0 ends the chain. */
        std::uint32_t link = 0;
        std::uint32_t generation = 1;
        bool near = false;
        Handler handler;
    };

    /** The event step() runs next: a near event is named by the
     *  link that holds it (its bucket head or its predecessor's
     *  link); a null link names the far tier's head. */
    struct Next {
        std::uint32_t *link = nullptr;
        std::uint32_t bucket = 0;
    };

    /** A record is live while its slot still has its generation. */
    bool live(const Record &r) const
    {
        return slots_[r.slot].generation == r.generation;
    }

    static std::uint32_t bucketOf(Tick when)
    {
        return static_cast<std::uint32_t>(when >> kSpanShift) &
            (kBuckets - 1);
    }

    /** Retire @p slot's current generation and return it to the
     *  free list (handler already moved out or dropped). */
    void release(std::uint32_t slot);

    /** Pop cancelled records off the heap head. */
    void skipCancelled();

    /** Remove and return the heap head. */
    Record popHead();

    /** First occupied bucket in window order from now(); the near
     *  tier must not be empty. */
    std::uint32_t firstBucket() const;

    /** Unlink the near event held by @p link from @p bucket. */
    void unlink(std::uint32_t *link, std::uint32_t bucket);

    /** Find the next event; false when none is pending. */
    bool findNext(Next &next);

    Tick whenOf(const Next &next) const;

    /** Remove the event @p next names and run it. */
    void runNext(const Next &next);

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t pendingCount_ = 0;

    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = 0; ///< index + 1; 0: none free

    /** Near tier.  All zeros is empty, so construction only clears
     *  memory.  Bucket b holds the span s with s % kBuckets == b and
     *  now() >> kSpanShift <= s < that + kBuckets. */
    std::array<std::uint32_t, kBuckets> heads_{}; ///< index + 1
    std::array<std::uint8_t, kBuckets> counts_{};
    std::array<std::uint64_t, kWords> occupied_{};
    std::uint64_t occupiedWords_ = 0; ///< bit w: occupied_[w] != 0

    /** Far tier. */
    std::vector<Record> heap_;
};

} // namespace sim
} // namespace soc

#endif // SOC_SIM_EVENT_QUEUE_HH
