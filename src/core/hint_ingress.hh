/**
 * @file
 * Bounded, batched hint ingestion boundary (DESIGN.md §12).
 *
 * `HintIngress` sits between the WI agents and the gOA/sOA control
 * loop.  Hints arrive as serialized `wire` frames, are parsed
 * fail-closed (every rejection attributed to a `wire::Reject`
 * counter, zero state mutation), deduplicated, and enqueued into a
 * fixed-capacity queue with an explicit, deterministic drop policy.
 * The control loop drains hints in batches from a snapshot, so
 * ingestion never blocks — or reorders — a recompute in flight.
 *
 * Determinism: the queue is plain FIFO storage (two ring buffers,
 * pending and draining); the dedup and per-flow bookkeeping are
 * lookup-only hash tables that are never iterated, so no decision
 * depends on hash order.  Given the same offer sequence the ingress
 * accepts, drops and drains the same hints in the same order
 * regardless of how many worker threads the surrounding sim uses
 * (each rack owns its own ingress, and racks are merged in rack
 * order).
 *
 * Drop policy on overflow (oldest-duplicate-first): evict the
 * front-most queued entry belonging to any flow (server, vm, kind)
 * with at least two entries queued — the newer entry supersedes it —
 * otherwise evict the queue front (oldest overall).  Ties are broken
 * by queue position, which is seed-stable.
 *
 * Allocation: the rings grow (to at most queueCapacity entries) and
 * the tables grow (to at most the power of two >= 2 x queueCapacity
 * slots) only while the queue is deeper than ever before; after
 * that, offers, evictions and drains allocate nothing.
 */

#ifndef SOC_CORE_HINT_INGRESS_HH
#define SOC_CORE_HINT_INGRESS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "core/wire.hh"
#include "sim/ring.hh"
#include "sim/time.hh"

namespace soc
{
namespace core
{

/** Tunables for one ingress instance (typically one per rack). */
struct HintIngressConfig {
    /** Master switch; disabled ingress rejects nothing and the sims
     *  keep their direct call path, preserving seed behavior. */
    bool enabled = false;

    /** Fixed queue capacity; offers beyond it trigger the drop
     *  policy, they never grow the queue. */
    std::size_t queueCapacity = 4096;

    /** Max hints dispatched per drain() call; 0 = drain the whole
     *  snapshot.  Bounds the control loop's per-step work under a
     *  storm (explicit backpressure). */
    std::size_t drainMax = 0;

    /**
     * Hysteresis window the sims copy into SoaConfig::flapHoldoff:
     * after a VM stops overclocking, re-requests within this window
     * are denied (rate-limits per-VM hint flapping).
     */
    sim::Tick flapHoldoff = 0;

    /**
     * Reject hints whose issuedAt is older than this relative to
     * the offer time, or from the future; 0 disables the check.
     */
    sim::Tick maxHintAge = 0;

    /** Field bounds enforced by the fail-closed parser. */
    wire::WireLimits limits;

    void
    validate() const
    {
        if (queueCapacity == 0)
            throw std::invalid_argument(
                "HintIngressConfig: queueCapacity must be > 0");
        if (flapHoldoff < 0 || maxHintAge < 0)
            throw std::invalid_argument(
                "HintIngressConfig: negative window");
    }
};

/** Counters for the evaluation harnesses; merged in rack order. */
struct IngressStats {
    /** Frames offered, valid or not. */
    std::uint64_t offered = 0;
    /** Frames that passed parsing and were enqueued. */
    std::uint64_t accepted = 0;
    /** Frames rejected by the parser (sum of rejectsByReason). */
    std::uint64_t parseRejects = 0;
    /** Per-reason rejection counters, indexed by wire::Reject. */
    std::array<std::uint64_t, wire::kRejectReasons> rejectsByReason{};
    /** Exact duplicates (same server/vm/kind/seq) suppressed. */
    std::uint64_t duplicates = 0;
    /** Queue-overflow evictions, total. */
    std::uint64_t overflowEvictions = 0;
    /** ...of which evicted an older entry of the same flow. */
    std::uint64_t overflowSuperseded = 0;
    /** Hints dropped by the drain sink (e.g. unknown server). */
    std::uint64_t sinkDrops = 0;
    /** Hints dispatched to the sink. */
    std::uint64_t drained = 0;
    /** drain() calls that dispatched at least one hint. */
    std::uint64_t drainBatches = 0;
    /** High-water mark of the pending queue. */
    std::uint64_t maxDepth = 0;

    void
    merge(const IngressStats &other)
    {
        offered += other.offered;
        accepted += other.accepted;
        parseRejects += other.parseRejects;
        for (std::size_t i = 0; i < rejectsByReason.size(); ++i)
            rejectsByReason[i] += other.rejectsByReason[i];
        duplicates += other.duplicates;
        overflowEvictions += other.overflowEvictions;
        overflowSuperseded += other.overflowSuperseded;
        sinkDrops += other.sinkDrops;
        drained += other.drained;
        drainBatches += other.drainBatches;
        if (other.maxDepth > maxDepth)
            maxDepth = other.maxDepth;
    }

    std::uint64_t
    rejects(wire::Reject r) const
    {
        return rejectsByReason[static_cast<std::size_t>(r)];
    }
};

/**
 * The bounded ingestion queue.  Single-threaded by design: each
 * rack's sim step owns its ingress exclusively (same model as the
 * rest of the per-rack state), so determinism comes from ordering,
 * not locks.
 */
class HintIngress
{
  public:
    /** Drain callback; return false to count the hint as a sink
     *  drop (e.g. it names a server this rack doesn't host). */
    using Sink = std::function<bool(const wire::ParsedHint &)>;

    explicit HintIngress(HintIngressConfig config);

    const HintIngressConfig &config() const { return config_; }
    const IngressStats &stats() const { return stats_; }

    /** Hints currently queued (pending + still draining). */
    std::size_t depth() const;

    /**
     * Offer one serialized frame.  Parses fail-closed, checks
     * staleness and duplicates, then enqueues — applying the drop
     * policy if the queue is full.  Returns the rejection reason
     * (None when the hint was enqueued or deduplicated).
     */
    wire::Reject offer(const std::uint8_t *data, std::size_t len,
                       sim::Tick now);

    wire::Reject
    offer(const wire::Frame &frame, sim::Tick now)
    {
        return offer(frame.data(), frame.size, now);
    }

    /**
     * Dispatch up to config().drainMax hints (all, when 0) to
     * `sink`, oldest first.  Works from a snapshot: the pending
     * queue is swapped out first, so offers made *during* the drain
     * (re-entrancy) land in the next batch and can never starve or
     * reorder the one in flight.  Returns hints dispatched.
     */
    std::size_t drain(sim::Tick now, const Sink &sink);

    /** Drop all queued hints (e.g. across a crash restart). */
    void clear();

  private:
    /** Flow identity: hints of one kind for one VM supersede each
     *  other under overflow. */
    struct FlowKey {
        int server = 0;
        std::int32_t vm = 0;
        std::uint8_t kind = 0;
        bool operator==(const FlowKey &) const = default;
        std::uint64_t hash() const;
    };
    /** Exact-duplicate identity adds the sequence number. */
    struct DupKey {
        FlowKey flow;
        std::uint64_t seq = 0;
        bool operator==(const DupKey &) const = default;
        std::uint64_t hash() const;
    };

    /**
     * Lookup-only count table: open addressing with linear probing
     * over a power-of-two slot array kept at most half full.  A slot
     * is occupied while its epoch equals the table's, so clear() is
     * one increment; erasing a key backward-shifts its probe run, so
     * the table holds exactly the live keys (no tombstones).  Never
     * iterated: keys compare exactly and the hash only picks where
     * to look, so it cannot influence any result.
     */
    template <class Key>
    class CountTable
    {
      public:
        /** Count for @p key; 0 when absent. */
        std::uint32_t count(const Key &key) const;
        /** Add one to @p key's count (inserting it); the new count. */
        std::uint32_t increment(const Key &key);
        /** Take one from @p key's count, erasing it at zero; the new
         *  count (0 also when it was absent). */
        std::uint32_t decrement(const Key &key);
        /** Forget every key in O(1). */
        void clear();

      private:
        struct Slot {
            Key key;
            std::uint32_t count = 0;
            std::uint32_t epoch = 0;
        };

        /** Index of @p key's slot, or of the empty slot ending its
         *  probe run. */
        std::size_t probe(const Key &key) const;
        bool occupied(std::size_t i) const
        {
            return slots_[i].epoch == epoch_;
        }
        void grow();

        std::vector<Slot> slots_;
        std::size_t live_ = 0;
        std::uint32_t epoch_ = 1;
    };

    static FlowKey flowKey(const wire::ParsedHint &h);
    static DupKey dupKey(const wire::ParsedHint &h);

    void evictForOverflow();
    void noteDepth();

    HintIngressConfig config_;
    IngressStats stats_;

    /** Hints accepted but not yet snapshotted for drain; both rings
     *  grow to at most queueCapacity entries. */
    sim::Ring<wire::ParsedHint> pending_;
    /** The drain-in-progress snapshot. */
    sim::Ring<wire::ParsedHint> draining_;

    /** Exact-duplicate suppression over pending_ only. */
    CountTable<DupKey> dupCounts_;
    /** Entries per flow over pending_, for the drop policy. */
    CountTable<FlowKey> flowCounts_;
    /** Flows with >= 2 pending entries (supersede candidates). */
    std::size_t supersedableFlows_ = 0;
};

} // namespace core
} // namespace soc

#endif // SOC_CORE_HINT_INGRESS_HH
