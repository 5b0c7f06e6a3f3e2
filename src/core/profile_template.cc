#include "core/profile_template.hh"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "sim/stats.hh"

namespace soc
{
namespace core
{

std::string
strategyName(TemplateStrategy strategy)
{
    switch (strategy) {
      case TemplateStrategy::FlatMed: return "FlatMed";
      case TemplateStrategy::FlatMax: return "FlatMax";
      case TemplateStrategy::Weekly: return "Weekly";
      case TemplateStrategy::DailyMed: return "DailyMed";
      case TemplateStrategy::DailyMax: return "DailyMax";
    }
    return "unknown";
}

ProfileTemplate::ProfileTemplate() = default;

ProfileTemplate
ProfileTemplate::flat(double value)
{
    ProfileTemplate out;
    out.strategy_ = TemplateStrategy::FlatMed;
    out.flatValue_ = value;
    return out;
}

namespace
{

/** Checked in every build: fillWeek copies the whole weekly vector
 *  into a kSlotsPerWeek buffer and predict indexes it by
 *  slot-of-week, so any other length writes or reads out of
 *  bounds. */
void
requireWeek(const std::vector<double> &values, const char *caller)
{
    if (values.size() !=
        static_cast<std::size_t>(sim::kSlotsPerWeek)) {
        throw std::invalid_argument(
            std::string("ProfileTemplate::") + caller + ": " +
            std::to_string(values.size()) + " values, expected " +
            std::to_string(sim::kSlotsPerWeek));
    }
}

} // namespace

ProfileTemplate
ProfileTemplate::fromWeekly(std::vector<double> values)
{
    requireWeek(values, "fromWeekly");
    ProfileTemplate out;
    out.strategy_ = TemplateStrategy::Weekly;
    out.weekly_ = std::move(values);
    return out;
}

void
ProfileTemplate::assignWeekly(const std::vector<double> &values)
{
    requireWeek(values, "assignWeekly");
    strategy_ = TemplateStrategy::Weekly;
    flatValue_ = 0.0;
    weekday_.clear();
    weekend_.clear();
    weekly_ = values;
}

bool
ProfileTemplate::operator==(const ProfileTemplate &other) const
{
    return strategy_ == other.strategy_ &&
        flatValue_ == other.flatValue_ &&
        weekday_ == other.weekday_ && weekend_ == other.weekend_ &&
        weekly_ == other.weekly_;
}

ProfileTemplate
ProfileTemplate::build(TemplateStrategy strategy,
                       const telemetry::TimeSeries &history)
{
    assert(history.interval() == sim::kSlot &&
           "templates require 5-minute telemetry");
    ProfileTemplate out;
    out.strategy_ = strategy;

    const auto &values = history.values();
    if (values.empty())
        return out;

    switch (strategy) {
      case TemplateStrategy::FlatMed:
        out.flatValue_ = sim::median(values);
        return out;
      case TemplateStrategy::FlatMax:
        out.flatValue_ = *std::max_element(values.begin(),
                                           values.end());
        return out;
      case TemplateStrategy::Weekly: {
        // Replay the most recent week, aligned by slot-of-week.
        out.weekly_.assign(sim::kSlotsPerWeek, 0.0);
        std::vector<bool> filled(sim::kSlotsPerWeek, false);
        for (std::size_t i = history.size(); i-- > 0;) {
            const sim::Tick t = history.timeOf(i);
            const int slot = static_cast<int>(
                (t % sim::kWeek) / sim::kSlot);
            if (!filled[slot]) {
                out.weekly_[slot] = history.at(i);
                filled[slot] = true;
            }
        }
        // Backfill any gap with the history median.
        const double fallback = sim::median(values);
        for (int s = 0; s < sim::kSlotsPerWeek; ++s)
            if (!filled[s])
                out.weekly_[s] = fallback;
        return out;
      }
      case TemplateStrategy::DailyMed:
      case TemplateStrategy::DailyMax: {
        // Aggregate per slot-of-day, weekdays and weekends apart.
        std::vector<std::vector<double>> weekday(sim::kSlotsPerDay);
        std::vector<std::vector<double>> weekend(sim::kSlotsPerDay);
        for (std::size_t i = 0; i < history.size(); ++i) {
            const sim::Tick t = history.timeOf(i);
            auto &bucket = sim::isWeekend(t)
                ? weekend[sim::slotOfDay(t)]
                : weekday[sim::slotOfDay(t)];
            bucket.push_back(history.at(i));
        }
        const bool use_max = strategy == TemplateStrategy::DailyMax;
        auto aggregate = [use_max](std::vector<double> &bucket,
                                   double fallback) {
            if (bucket.empty())
                return fallback;
            if (use_max)
                return *std::max_element(bucket.begin(), bucket.end());
            return sim::median(bucket);
        };
        const double fallback = sim::median(values);
        out.weekday_.resize(sim::kSlotsPerDay);
        out.weekend_.resize(sim::kSlotsPerDay);
        for (int s = 0; s < sim::kSlotsPerDay; ++s) {
            out.weekday_[s] = aggregate(weekday[s], fallback);
            // Weekends fall back to the weekday value when the
            // history covers no weekend yet.
            out.weekend_[s] = aggregate(weekend[s], out.weekday_[s]);
        }
        return out;
      }
    }
    return out;
}

double
ProfileTemplate::predict(sim::Tick t) const
{
    switch (strategy_) {
      case TemplateStrategy::FlatMed:
      case TemplateStrategy::FlatMax:
        return flatValue_;
      case TemplateStrategy::Weekly: {
        if (weekly_.empty())
            return flatValue_;
        const int slot = static_cast<int>(
            ((t % sim::kWeek) + sim::kWeek) % sim::kWeek / sim::kSlot);
        return weekly_[slot];
      }
      case TemplateStrategy::DailyMed:
      case TemplateStrategy::DailyMax: {
        if (weekday_.empty())
            return flatValue_;
        const auto &day = sim::isWeekend(t) ? weekend_ : weekday_;
        return day[sim::slotOfDay(t)];
      }
    }
    return 0.0;
}

void
ProfileTemplate::fillWeek(double *out) const
{
    const auto slots = static_cast<std::size_t>(sim::kSlotsPerWeek);
    switch (strategy_) {
      case TemplateStrategy::FlatMed:
      case TemplateStrategy::FlatMax:
        std::fill(out, out + slots, flatValue_);
        return;
      case TemplateStrategy::Weekly:
        if (weekly_.empty()) {
            std::fill(out, out + slots, flatValue_);
            return;
        }
        std::copy(weekly_.begin(), weekly_.end(), out);
        return;
      case TemplateStrategy::DailyMed:
      case TemplateStrategy::DailyMax: {
        if (weekday_.empty()) {
            std::fill(out, out + slots, flatValue_);
            return;
        }
        // Monday-first week: days 5 and 6 are the weekend
        // (sim::isWeekend), matching predict's per-tick test.
        for (int day = 0; day < 7; ++day) {
            const auto &src = day >= 5 ? weekend_ : weekday_;
            std::copy(src.begin(), src.end(),
                      out + static_cast<std::size_t>(day) *
                          static_cast<std::size_t>(sim::kSlotsPerDay));
        }
        return;
      }
    }
    std::fill(out, out + slots, 0.0);
}

std::vector<double>
ProfileTemplate::predictSeries(const telemetry::TimeSeries &actual)
    const
{
    std::vector<double> out;
    out.reserve(actual.size());
    for (std::size_t i = 0; i < actual.size(); ++i)
        out.push_back(predict(actual.timeOf(i)));
    return out;
}

double
ProfileTemplate::rmseAgainst(const telemetry::TimeSeries &actual) const
{
    return sim::rmse(actual.values(), predictSeries(actual));
}

double
ProfileTemplate::biasAgainst(const telemetry::TimeSeries &actual) const
{
    return sim::meanSignedError(actual.values(),
                                predictSeries(actual));
}

double
ProfileTemplate::peak() const
{
    double best = flatValue_;
    for (double v : weekday_)
        best = std::max(best, v);
    for (double v : weekend_)
        best = std::max(best, v);
    for (double v : weekly_)
        best = std::max(best, v);
    return best;
}

double
ProfileTemplate::trough() const
{
    if (weekday_.empty() && weekend_.empty() && weekly_.empty())
        return flatValue_;
    double worst = std::numeric_limits<double>::infinity();
    for (double v : weekday_)
        worst = std::min(worst, v);
    for (double v : weekend_)
        worst = std::min(worst, v);
    for (double v : weekly_)
        worst = std::min(worst, v);
    return worst;
}

} // namespace core
} // namespace soc
