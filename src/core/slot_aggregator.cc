#include "core/slot_aggregator.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace soc
{
namespace core
{

namespace
{

/** Median of @p values as sim::median computes it, selected in a
 *  thread-local copy. */
double
medianOf(const std::deque<double> &values)
{
    thread_local std::vector<double> scratch;
    scratch.assign(values.begin(), values.end());
    return sim::medianInPlace(scratch.data(),
                              scratch.data() + scratch.size());
}

constexpr auto kDaySlots =
    static_cast<std::size_t>(sim::kSlotsPerDay);
constexpr auto kWeekSlots =
    static_cast<std::size_t>(sim::kSlotsPerWeek);

} // namespace

SlotAggregator::SlotAggregator(sim::Tick window)
    : window_(window)
{
    // Checked in every build: an SoaConfig built directly never
    // passes through the simulators' validate().
    if (window_ <= 0 || window_ % sim::kSlot != 0) {
        throw std::invalid_argument(
            "SlotAggregator: window " + std::to_string(window_) +
            " is not a positive multiple of the slot width");
    }
}

void
SlotAggregator::add(sim::Tick t, double value)
{
    if (t < 0 || t % sim::kSlot != 0) {
        throw std::invalid_argument(
            "SlotAggregator: tick " + std::to_string(t) +
            " is negative or not slot-aligned");
    }
    // Positions stand in for ticks, so a skipped, repeated or
    // out-of-order slot would silently shift every later sample
    // into the wrong bucket.
    const sim::Tick next = firstTick_ +
        static_cast<sim::Tick>(ring_.size()) * sim::kSlot;
    if (!ring_.empty() && t != next) {
        throw std::invalid_argument(
            "SlotAggregator: tick " + std::to_string(t) +
            " is not the next slot " + std::to_string(next));
    }
    // Reject non-finite telemetry before it is retained: a NaN
    // breaks the ordering comparisons every median and max relies
    // on, silently corrupting them far from the cause.
    if (!std::isfinite(value)) {
        throw std::invalid_argument(
            "SlotAggregator: non-finite sample " +
            std::to_string(value) + " at tick " + std::to_string(t));
    }
    if (ring_.empty())
        firstTick_ = t;
    ring_.push_back(value);
    ++version_;
    // Consecutive ticks: the window holds exactly window_ / kSlot
    // slots, so at most the one oldest sample falls out per add.
    if (static_cast<sim::Tick>(ring_.size()) * sim::kSlot > window_) {
        ring_.pop_front();
        firstTick_ += sim::kSlot;
        ++version_;
    }
}

double
SlotAggregator::latest() const
{
    if (ring_.empty())
        throw std::logic_error("SlotAggregator: latest() while empty");
    return ring_.back();
}

void
SlotAggregator::clear()
{
    // Release everything outright (crash-restart forgets the shape
    // of the history too); storage regrows on demand.
    ring_.clear();
    ring_.shrink_to_fit();
    firstTick_ = 0;
    ++version_;
}

const ProfileTemplate &
SlotAggregator::build(TemplateStrategy strategy) const
{
    auto &entry = cache_[static_cast<std::size_t>(strategy)];
    if (!entry.valid || entry.version != version_) {
        assemble(strategy, entry.tmpl);
        entry.version = version_;
        entry.valid = true;
        ++rebuilds_;
    }
    return entry.tmpl;
}

void
SlotAggregator::assemble(TemplateStrategy strategy,
                         ProfileTemplate &out) const
{
    // Reset to the batch builder's shape for this strategy: vectors
    // the strategy does not fill are empty (clear() keeps their
    // capacity, so a cache entry rebuilt every recompute stops
    // reallocating once warm).
    out.strategy_ = strategy;
    out.flatValue_ = 0.0;
    const bool daily = strategy == TemplateStrategy::DailyMed ||
        strategy == TemplateStrategy::DailyMax;
    if (!daily || empty()) {
        out.weekday_.clear();
        out.weekend_.clear();
    }
    if (strategy != TemplateStrategy::Weekly || empty())
        out.weekly_.clear();
    if (empty())
        return;

    // Field-for-field mirror of ProfileTemplate::build over the
    // retained samples; the equivalence tests hold the two
    // bit-identical for every strategy.  Every median goes through
    // sim::medianInPlace and every max through std::max_element on
    // the values in arrival order — the batch builder's calls on
    // the batch builder's sequences, so ties and equal-comparing
    // values resolve identically too.
    //
    // Scratch is thread-local: contents are fully rewritten on
    // every assemble, so the result is a pure function of the ring
    // (deterministic across thread counts), and aggregators owned
    // by different racks can build concurrently.  Assembly is
    // O(retained) with no sort — it runs at every recompute
    // boundary for every server, while add() keeps only 8 B per
    // retained slot.
    const std::size_t n = ring_.size();
    switch (strategy) {
      case TemplateStrategy::FlatMed:
        out.flatValue_ = medianOf(ring_);
        return;
      case TemplateStrategy::FlatMax:
        out.flatValue_ =
            *std::max_element(ring_.begin(), ring_.end());
        return;
      case TemplateStrategy::Weekly: {
        // Consecutive ticks: the newest min(n, kSlotsPerWeek)
        // samples sit in distinct slots of the week, each the
        // latest retained sample of its slot; any other slot is
        // unfilled and takes the window median.
        const std::size_t newest = std::min(n, kWeekSlots);
        if (newest < kWeekSlots)
            out.weekly_.assign(kWeekSlots, medianOf(ring_));
        else
            out.weekly_.resize(kWeekSlots);
        const sim::Tick from = firstTick_ +
            static_cast<sim::Tick>(n - newest) * sim::kSlot;
        auto slot = static_cast<std::size_t>(from % sim::kWeek /
                                             sim::kSlot);
        auto it = ring_.end() - static_cast<std::ptrdiff_t>(newest);
        for (; it != ring_.end(); ++it) {
            out.weekly_[slot] = *it;
            if (++slot == kWeekSlots)
                slot = 0;
        }
        return;
      }
      case TemplateStrategy::DailyMed:
      case TemplateStrategy::DailyMax: {
        // One counting pass: bucket k (weekday slot-of-day k, or
        // weekend slot-of-day k - kSlotsPerDay) owns the run
        // scratch[k * stride, k * stride + count[k]), filled in
        // arrival order.  n consecutive slots touch at most
        // n / kSlotsPerDay + 2 days, and a bucket gets at most one
        // sample per day, so stride bounds every run.
        const std::size_t stride = n / kDaySlots + 2;
        thread_local std::vector<double> scratch;
        thread_local std::vector<std::size_t> count;
        scratch.resize(2 * kDaySlots * stride);
        count.assign(2 * kDaySlots, 0);
        auto slot =
            static_cast<std::size_t>(sim::slotOfDay(firstTick_));
        int day = sim::dayOfWeek(firstTick_);
        std::size_t base = day >= 5 ? kDaySlots : 0;
        for (double value : ring_) {
            const std::size_t k = base + slot;
            scratch[k * stride + count[k]++] = value;
            if (++slot == kDaySlots) {
                slot = 0;
                day = day == 6 ? 0 : day + 1;
                base = day >= 5 ? kDaySlots : 0;
            }
        }

        const bool use_max = strategy == TemplateStrategy::DailyMax;
        auto aggregate = [&](std::size_t k, double fallback) {
            double *first = scratch.data() + k * stride;
            double *last = first + count[k];
            if (first == last)
                return fallback;
            return use_max ? *std::max_element(first, last)
                           : sim::medianInPlace(first, last);
        };
        // The window median is read only through an empty weekday
        // bucket; a window covering every weekday slot skips it.
        const auto weekdays_end =
            count.begin() + static_cast<std::ptrdiff_t>(kDaySlots);
        const bool weekday_gap =
            std::find(count.begin(), weekdays_end, std::size_t{0}) !=
            weekdays_end;
        const double fallback = weekday_gap ? medianOf(ring_) : 0.0;
        out.weekday_.resize(kDaySlots);
        out.weekend_.resize(kDaySlots);
        for (std::size_t s = 0; s < kDaySlots; ++s) {
            out.weekday_[s] = aggregate(s, fallback);
            out.weekend_[s] =
                aggregate(kDaySlots + s, out.weekday_[s]);
        }
        return;
      }
    }
}

} // namespace core
} // namespace soc
