/**
 * @file
 * Power/utilization profile templates (§IV-B, Figs. 8 and 15).
 *
 * A template predicts a server's or rack's telemetry (power draw,
 * CPU utilization, overclocked-core count) at a future instant from
 * the prior week's history.  SmartOClock's production choice is
 * *DailyMed*: aggregate all weekdays of the prior week into one
 * typical day by taking the per-slot median, with a separate
 * template for weekends.  The alternative strategies evaluated in
 * Fig. 15 are implemented for comparison:
 *
 *  - FlatMed / FlatMax — constant prediction (median / max of all
 *    prior measurements);
 *  - Weekly — replay last week's series slot for slot;
 *  - DailyMed / DailyMax — per-slot median / max across the week's
 *    weekdays (weekends aggregated separately).
 */

#ifndef SOC_CORE_PROFILE_TEMPLATE_HH
#define SOC_CORE_PROFILE_TEMPLATE_HH

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "sim/time.hh"
#include "telemetry/time_series.hh"

namespace soc
{
namespace core
{

/** Template-construction strategies compared in Fig. 15. */
enum class TemplateStrategy {
    FlatMed,
    FlatMax,
    Weekly,
    DailyMed,
    DailyMax,
};

/** Printable strategy name. */
std::string strategyName(TemplateStrategy strategy);

class SlotAggregator;

/**
 * An immutable prediction function over time-of-week.
 */
class ProfileTemplate
{
  public:
    /** Zero template (predicts 0 everywhere). */
    ProfileTemplate();

    /**
     * Build a template of the given strategy from history.
     *
     * @param strategy Aggregation strategy.
     * @param history  Telemetry sampled at the 5-minute slot width;
     *                 typically the prior week(s).
     */
    static ProfileTemplate build(TemplateStrategy strategy,
                                 const telemetry::TimeSeries &history);

    /** Constant template. */
    static ProfileTemplate flat(double value);

    /**
     * Template directly from one week of per-slot values
     * (sim::kSlotsPerWeek entries, Monday 00:00 first).  Used by the
     * budget allocator to hand per-slot budgets to the sOAs.  Any
     * other length throws std::invalid_argument (every build).
     */
    static ProfileTemplate fromWeekly(std::vector<double> values);

    /**
     * Overwrite this template in place with one week of per-slot
     * values (same semantics as fromWeekly).  Copy-assigns into the
     * existing weekly storage, so a template that is rebuilt every
     * recompute (the budget allocator's steady state) reuses its
     * allocation instead of producing a fresh 2016-entry vector.
     * Any other length throws std::invalid_argument (every build)
     * and leaves the template unchanged.
     */
    void assignWeekly(const std::vector<double> &values);

    TemplateStrategy strategy() const { return strategy_; }

    /** Predicted value at simulated time @p t. */
    double predict(sim::Tick t) const;

    /**
     * Write one full week of predictions into @p out
     * (sim::kSlotsPerWeek values, Monday 00:00 first), equal to
     * predict(slot * sim::kSlot) at every slot.  The bulk accessor
     * the recompute paths use: a slot loop over predict() re-derives
     * the slot-of-week from the tick 2016 times per template, which
     * dominated paper-scale boundary recomputes.
     */
    void fillWeek(double *out) const;

    /**
     * Like fillWeek, but writes fn(prediction) instead of the raw
     * prediction: out[slot] == fn(predict(slot * sim::kSlot)) for
     * every slot of the week, with @p fn invoked once per *distinct
     * stored value* and the result reused wherever that value
     * repeats.  For a pure @p fn this is exact — same double in,
     * same double out — while evaluating a DailyMed template costs
     * 576 calls instead of 2016 and a flat one costs a single call.
     * The budget allocator maps its per-core overclock surcharge
     * model over utilization templates this way; the model
     * evaluation per (server, slot) dominated recompute cost.
     */
    template <typename Fn>
    void fillWeekMapped(double *out, Fn fn) const
    {
        const auto slots =
            static_cast<std::size_t>(sim::kSlotsPerWeek);
        switch (strategy_) {
          case TemplateStrategy::FlatMed:
          case TemplateStrategy::FlatMax: {
            std::fill(out, out + slots, fn(flatValue_));
            return;
          }
          case TemplateStrategy::Weekly: {
            if (weekly_.empty()) {
                std::fill(out, out + slots, fn(flatValue_));
                return;
            }
            for (std::size_t slot = 0; slot < slots; ++slot)
                out[slot] = fn(weekly_[slot]);
            return;
          }
          case TemplateStrategy::DailyMed:
          case TemplateStrategy::DailyMax: {
            if (weekday_.empty()) {
                std::fill(out, out + slots, fn(flatValue_));
                return;
            }
            const auto day_slots =
                static_cast<std::size_t>(sim::kSlotsPerDay);
            // Map each day-shape once, then copy per day: days 5-6
            // are the weekend (sim::isWeekend), as in fillWeek.
            double *monday = out;
            for (std::size_t s = 0; s < day_slots; ++s)
                monday[s] = fn(weekday_[s]);
            for (int day = 1; day < 5; ++day)
                std::copy(monday, monday + day_slots,
                          out + day * day_slots);
            double *saturday = out + 5 * day_slots;
            for (std::size_t s = 0; s < day_slots; ++s)
                saturday[s] = fn(weekend_[s]);
            std::copy(saturday, saturday + day_slots,
                      out + 6 * day_slots);
            return;
          }
        }
        std::fill(out, out + slots, 0.0);
    }

    /** Predictions aligned with @p actual's sampling grid. */
    std::vector<double>
    predictSeries(const telemetry::TimeSeries &actual) const;

    /** Root-mean-squared prediction error against @p actual. */
    double rmseAgainst(const telemetry::TimeSeries &actual) const;

    /** Mean signed error (positive = overprediction). */
    double biasAgainst(const telemetry::TimeSeries &actual) const;

    /** Largest value the template ever predicts. */
    double peak() const;

    /** Smallest value the template ever predicts. */
    double trough() const;

    /**
     * Exact structural equality (strategy and every stored value).
     * Two templates that compare equal predict identically at every
     * tick; the incremental-maintenance tests use this to enforce
     * bit-identical agreement with the batch builder.
     */
    bool operator==(const ProfileTemplate &other) const;
    bool operator!=(const ProfileTemplate &other) const
    {
        return !(*this == other);
    }

  private:
    /** SlotAggregator mirrors build() incrementally and must fill
     *  the same representation the batch builder produces. */
    friend class SlotAggregator;
    TemplateStrategy strategy_ = TemplateStrategy::FlatMed;
    double flatValue_ = 0.0;
    /** Per slot-of-day values for weekdays (DailyMed/DailyMax). */
    std::vector<double> weekday_;
    /** Per slot-of-day values for weekends (DailyMed/DailyMax). */
    std::vector<double> weekend_;
    /** Per slot-of-week values (Weekly / fromWeekly). */
    std::vector<double> weekly_;
};

} // namespace core
} // namespace soc

#endif // SOC_CORE_PROFILE_TEMPLATE_HH
