/**
 * @file
 * Incremental, exact power-template maintenance (§IV-B DailyMed
 * aggregation of the prior week made an always-on path).
 *
 * The sOA's five SlotAggregators are the only resident copy of its
 * closed-slot telemetry: every template and every gOA profile pull
 * is served from them.  ProfileTemplate::build, the batch reference,
 * scans a whole history on every call.  SlotAggregator bounds both
 * the rebuild cost and the resident footprint with a window (by
 * default the paper's prior week, SoaConfig::templateWindow): the
 * only per-sample state is a window-bounded ring of values, 8 B
 * per retained slot, plus the tick of the oldest one.  Ticks are
 * consecutive slots, so every sample's tick — and with it its
 * (weekday|weekend, slot-of-day) bucket — is implied by its
 * position.  build(strategy) assembles in one pass without sorting:
 * DailyMed/DailyMax count the ring into per-bucket runs of
 * thread-local scratch and take each run's median or max, Weekly
 * copies the newest week of the ring, FlatMax is a max scan, and
 * the window-wide median is selected only when a template reads it
 * (FlatMed, an unfilled Weekly slot, an empty weekday bucket).  An
 * earlier design maintained sorted buckets incrementally on every
 * add(); at fleet scale that cost ~1.5 KB of resident state per
 * retained slot per server (280k+ aggregators resident).
 *
 * Templates are **bit-identical** to ProfileTemplate::build over the
 * retained history for all five strategies — enforced by test.
 *
 * A version counter increments on every accepted sample (and every
 * eviction); build() caches the assembled template per strategy,
 * rebuilds it in place when the version moved, and returns it
 * untouched while the version is unchanged, which makes
 * back-to-back gOA recomputes with no newly closed slot O(1).
 *
 * With a window W, the retained set after adding the sample at tick
 * t is exactly the samples whose slot start lies in
 * [t + kSlot - W, t] — i.e. build() equals the batch builder over
 * history.slice(end - W, end).
 */

#ifndef SOC_CORE_SLOT_AGGREGATOR_HH
#define SOC_CORE_SLOT_AGGREGATOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>

#include "core/profile_template.hh"
#include "sim/time.hh"

namespace soc
{
namespace core
{

/**
 * Exact incremental slot aggregation with per-strategy template
 * caching.  Not thread-safe; each sOA owns its aggregators.
 * (Assembly uses thread-local scratch, so distinct aggregators may
 * build concurrently from distinct threads.)
 */
class SlotAggregator
{
  public:
    /**
     * @param window Eviction horizon: a positive multiple of
     *               sim::kSlot (sim::kWeek is the paper's prior
     *               week).  Anything else, 0 included, throws
     *               std::invalid_argument: a 0 window would evict
     *               every sample, the one latest() returns included.
     */
    explicit SlotAggregator(sim::Tick window);

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
    /** Overwrite @p out with the template over the retained
     *  samples, reusing its vectors' storage. */
    void assemble(TemplateStrategy strategy,
                  ProfileTemplate &out) const;

    sim::Tick window_;
    std::uint64_t version_ = 0;

    /** Tick of the oldest retained sample: the i-th retained value
     *  covers the slot starting at firstTick_ + i * sim::kSlot. */
    sim::Tick firstTick_ = 0;
    /** Retained values in tick order: the complete per-sample
     *  state. */
    std::deque<double> ring_;

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
