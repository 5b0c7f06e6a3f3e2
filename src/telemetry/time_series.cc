#include "telemetry/time_series.hh"

#include <algorithm>
#include <cassert>

namespace soc
{
namespace telemetry
{

TimeSeries::TimeSeries(sim::Tick start, sim::Tick interval)
    : start_(start), interval_(interval)
{
    assert(interval_ > 0);
}

TimeSeries::TimeSeries(sim::Tick start, sim::Tick interval,
                       std::vector<double> values)
    : start_(start), interval_(interval), values_(std::move(values))
{
    assert(interval_ > 0);
}

sim::Tick
TimeSeries::end() const
{
    return start_ +
        static_cast<sim::Tick>(values_.size()) * interval_;
}

void
TimeSeries::append(double value)
{
    values_.push_back(value);
}

double
TimeSeries::at(std::size_t idx) const
{
    assert(idx < values_.size());
    return values_[idx];
}

void
TimeSeries::set(std::size_t idx, double value)
{
    assert(idx < values_.size());
    values_[idx] = value;
}

std::size_t
TimeSeries::indexOf(sim::Tick t) const
{
    if (values_.empty())
        return 0;
    // Ticks at/after end() have no covering sample: loud in debug
    // (the caller's trace is shorter than its horizon), clamped to
    // the last sample in release so replays degrade gracefully.
    assert(t < end() && "TimeSeries: tick at/after end()");
    if (t <= start_)
        return 0;
    const auto idx =
        static_cast<std::size_t>((t - start_) / interval_);
    return std::min(idx, values_.size() - 1);
}

double
TimeSeries::atTime(sim::Tick t) const
{
    if (values_.empty())
        return 0.0;
    return values_[indexOf(t)];
}

sim::Tick
TimeSeries::timeOf(std::size_t idx) const
{
    return start_ + static_cast<sim::Tick>(idx) * interval_;
}

TimeSeries
TimeSeries::slice(sim::Tick from, sim::Tick to) const
{
    TimeSeries out(std::max(from, start_), interval_);
    if (values_.empty() || to - start_ < interval_)
        return out;
    // The kept samples are a contiguous index range on a uniform
    // grid, so compute its bounds arithmetically and copy once
    // instead of testing every sample:
    //   timeOf(i) >= from           <=> i >= ceil((from-start)/iv)
    //   timeOf(i) + iv <= to        <=> i <  floor((to-start)/iv)
    std::size_t first = 0;
    if (from > start_) {
        first = static_cast<std::size_t>(
            (from - start_ + interval_ - 1) / interval_);
    }
    const std::size_t last = std::min<std::size_t>(
        values_.size(),
        static_cast<std::size_t>((to - start_) / interval_));
    if (first >= last)
        return out;
    out.values_.assign(
        values_.begin() + static_cast<std::ptrdiff_t>(first),
        values_.begin() + static_cast<std::ptrdiff_t>(last));
    return out;
}

sim::OnlineStats
TimeSeries::stats() const
{
    sim::OnlineStats out;
    for (double v : values_)
        out.add(v);
    return out;
}

double
TimeSeries::quantile(double q) const
{
    // One quantile needs only the two order statistics straddling
    // the rank: selecting them beats sorting a Percentiles
    // reservoir, bit for bit.
    std::vector<double> scratch = values_;
    return sim::quantileInPlace(scratch.data(),
                                scratch.data() + scratch.size(), q);
}

TimeSeries &
TimeSeries::operator+=(const TimeSeries &other)
{
    assert(start_ == other.start_ && interval_ == other.interval_);
    assert(values_.size() == other.values_.size());
    for (std::size_t i = 0; i < values_.size(); ++i)
        values_[i] += other.values_[i];
    return *this;
}

void
TimeSeries::scale(double factor)
{
    for (double &v : values_)
        v *= factor;
}

void
TimeSeries::clamp(double lo, double hi)
{
    for (double &v : values_)
        v = std::clamp(v, lo, hi);
}

TimeSeries
TimeSeries::sum(const std::vector<const TimeSeries *> &parts)
{
    assert(!parts.empty());
    TimeSeries out = *parts.front();
    for (std::size_t i = 1; i < parts.size(); ++i)
        out += *parts[i];
    return out;
}

} // namespace telemetry
} // namespace soc
