/**
 * @file
 * Incremental, exact power-template maintenance (§IV-B DailyMed
 * aggregation made an always-on path).
 *
 * The sOA's five SlotAggregators are the only resident copy of its
 * closed-slot telemetry: every template and every gOA profile pull
 * is served from them.  ProfileTemplate::build, the batch reference,
 * scans a whole history on every call: with weekly recomputes over
 * an unbounded history the per-recompute cost grows O(t) and the
 * whole-run cost O(t²) per rack.  SlotAggregator bounds both the
 * rebuild cost and the resident footprint with a two-mode
 * representation:
 *
 *  - **Ring mode** (small retained sets, the fleet-replay steady
 *    state): the only per-sample state is a window-bounded ring of
 *    values, 8 B per retained slot, plus the tick of the oldest
 *    one.  Ticks are consecutive slots, so every sample's tick —
 *    and with it its (weekday|weekend, slot-of-day) bucket — is
 *    implied by its position.  build(strategy) assembles in one
 *    pass without sorting: DailyMed/DailyMax count the ring into
 *    per-bucket runs of thread-local scratch and take each run's
 *    median or max, Weekly copies the newest week of the ring,
 *    FlatMax is a max scan, and the window-wide median is selected
 *    only when a template reads it (FlatMed, an unfilled Weekly
 *    slot, an empty weekday bucket).  An earlier design maintained
 *    sorted buckets incrementally on every add(); at fleet scale
 *    that cost ~1.5 KB of resident state per retained slot per
 *    server (280k+ aggregators resident).
 *  - **Indexed mode** (retention beyond kIndexThreshold slots —
 *    unbounded or multi-week windows): the ring is replayed once
 *    into the classic incremental structures (sorted bag per
 *    bucket, global sorted bag, latest-per-slot-of-week), and
 *    add()/evictions maintain them from then on, so build() stays
 *    O(slots) no matter how long the history grows — the
 *    recompute-vs-horizon bench gates this.
 *
 * Both modes assemble templates **bit-identical** to
 * ProfileTemplate::build over the retained history for all five
 * strategies — enforced by test, so the mode switch is a pure
 * representation change, never a behavior change.
 *
 * A version counter increments on every accepted sample (and every
 * eviction); build() caches the assembled template per strategy,
 * rebuilds it in place when the version moved, and returns it
 * untouched while the version is unchanged, which makes
 * back-to-back gOA recomputes with no newly closed slot O(1).
 *
 * An optional window (0 = unbounded, the default) evicts samples
 * older than the window behind the newest sample, bounding memory
 * and matching the paper's prior-week semantics when set to
 * sim::kWeek.  With a window W, the retained set after adding the
 * sample at tick t is exactly the samples whose slot start lies in
 * [t + kSlot - W, t] — i.e. build() equals the batch builder over
 * history.slice(end - W, end).
 */

#ifndef SOC_CORE_SLOT_AGGREGATOR_HH
#define SOC_CORE_SLOT_AGGREGATOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/profile_template.hh"
#include "sim/time.hh"

namespace soc
{
namespace core
{

/**
 * Exact incremental slot aggregation with per-strategy template
 * caching.  Not thread-safe; each sOA owns its aggregators.
 * (Ring-mode assembly uses thread-local scratch, so distinct
 * aggregators may build concurrently from distinct threads.)
 */
class SlotAggregator
{
  public:
    /**
     * Retained-sample count past which the aggregator switches from
     * the ring-only representation to incremental index
     * maintenance.  Three weeks: comfortably above the one-week
     * window the fleet replay uses (those aggregators never pay for
     * the index), comfortably below the multi-week histories where
     * an O(retained) rebuild would start to dominate recomputes.
     */
    static constexpr std::size_t kIndexThreshold =
        static_cast<std::size_t>(3 * sim::kSlotsPerWeek);

    /**
     * @param window Eviction horizon; 0 keeps every sample forever
     *               (bit-identical to the unbounded batch builder).
     *               Must otherwise be a positive multiple of
     *               sim::kSlot; anything else throws
     *               std::invalid_argument.
     */
    explicit SlotAggregator(sim::Tick window = 0);

    /**
     * Fold in the sample of the slot starting at @p t.  The first
     * sample (after construction or clear()) may start at any
     * non-negative, slot-aligned tick; every later one must start
     * at the next slot, t = previous + sim::kSlot (the sOA feeds
     * one sample per consecutive slot, gap-filled).  @p value must
     * be finite: NaN/Inf telemetry would corrupt every median and
     * max built from it.  Any other tick or value is rejected with
     * std::invalid_argument and leaves the aggregator unchanged.
     * Same fail-at-ingestion stance as BudgetAssignment validation.
     */
    void add(sim::Tick t, double value);

    /** Forget everything (sOA crash-restart). */
    void clear();

    sim::Tick window() const { return window_; }
    bool empty() const { return ring_.empty(); }
    std::size_t sampleCount() const { return ring_.size(); }

    /** Value of the newest sample (the sOA's gap-fill repeats it).
     *  Throws std::logic_error when empty. */
    double latest() const;

    /** Monotonic counter bumped by every add() and eviction. */
    std::uint64_t version() const { return version_; }

    /**
     * Template over the retained samples, bit-identical to
     * ProfileTemplate::build(strategy, retained history).  Cached:
     * repeated calls at an unchanged version return the same object
     * without rebuilding.
     */
    const ProfileTemplate &build(TemplateStrategy strategy) const;

    /** Cache misses so far (tests assert cache-hit behavior). */
    std::uint64_t rebuildCount() const { return rebuilds_; }

  private:
    /**
     * Sorted multiset on a vector with a lazily merged unsorted
     * tail (indexed mode only).  insert() is an O(1) append; the
     * tail is folded into the sorted body when it grows past
     * kMaxPending (amortizing the memmove-heavy sorted insertion
     * that used to cost O(bag) per sample) or when an ordered read
     * needs it.  The vectors are mutable because flushing is a pure
     * representation change: the multiset the bag denotes — and
     * thus every median()/max() — is identical before and after.
     */
    struct SortedBag {
        /** Sorted body. */
        mutable std::vector<double> values;
        /** Unsorted recent tail, bounded by kMaxPending. */
        mutable std::vector<double> pending;

        static constexpr std::size_t kMaxPending = 128;

        void insert(double v)
        {
            pending.push_back(v);
            if (pending.size() >= kMaxPending)
                flushPending();
        }
        void erase(double v);
        bool empty() const
        {
            return values.empty() && pending.empty();
        }
        /** Merge the pending tail into the sorted body.  Inline
         *  no-op when the tail is empty (template assembly reads
         *  every bucket, most of which have nothing pending). */
        void flush() const
        {
            if (!pending.empty())
                flushPending();
        }
        /** Matches sim::median bit for bit. */
        double median() const;
        /** Matches *std::max_element over the same multiset. */
        double max() const
        {
            flush();
            return values.back();
        }

      private:
        void flushPending() const;
    };

    /** Drop the oldest retained sample (window eviction). */
    void evictOldest();
    /** Feed one retained sample into the indexed structures. */
    void indexSample(sim::Tick t, double value);
    /** Replay the ring into the indexed structures (mode switch). */
    void buildIndex();
    /** Overwrite @p out with the template over the retained
     *  samples, reusing its vectors' storage. */
    void assemble(TemplateStrategy strategy,
                  ProfileTemplate &out) const;
    void assembleFromRing(TemplateStrategy strategy,
                          ProfileTemplate &out) const;
    void assembleFromIndex(TemplateStrategy strategy,
                           ProfileTemplate &out) const;

    sim::Tick window_;
    std::uint64_t version_ = 0;

    /** Tick of the oldest retained sample: the i-th retained value
     *  covers the slot starting at firstTick_ + i * sim::kSlot. */
    sim::Tick firstTick_ = 0;
    /** Retained values in tick order — the complete per-sample
     *  state in ring mode, and the eviction log in indexed mode. */
    std::deque<double> ring_;

    /** True once the retained set crossed kIndexThreshold and the
     *  incremental structures below took over (sticky until
     *  clear()). */
    bool indexed_ = false;
    /*
     * The indexed stores below stay unallocated until buildIndex()
     * runs, so ring-mode aggregators (all of them at fleet scale)
     * pay nothing for the indexed path.
     */
    SortedBag all_;
    std::vector<SortedBag> weekday_; // kSlotsPerDay buckets
    std::vector<SortedBag> weekend_; // kSlotsPerDay buckets
    /** Most recent retained value per slot-of-week (Weekly). */
    std::vector<double> weeklyLatest_; // kSlotsPerWeek
    /** Tick that wrote weeklyLatest_[s]; -1 when unfilled. */
    std::vector<sim::Tick> weeklyTick_; // kSlotsPerWeek

    struct CacheEntry {
        ProfileTemplate tmpl;
        std::uint64_t version = 0;
        bool valid = false;
    };
    mutable std::array<CacheEntry, 5> cache_;
    mutable std::uint64_t rebuilds_ = 0;
};

} // namespace core
} // namespace soc

#endif // SOC_CORE_SLOT_AGGREGATOR_HH
