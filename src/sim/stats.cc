#include "sim/stats.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace soc
{
namespace sim
{

void
OnlineStats::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void
OnlineStats::merge(const OnlineStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
OnlineStats::variance() const
{
    if (count_ == 0)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

void
Percentiles::add(double x)
{
    samples_.push_back(x);
    sorted_ = samples_.size() <= 1;
}

void
Percentiles::merge(const Percentiles &other)
{
    if (other.samples_.empty())
        return;
    const std::size_t mid = samples_.size();
    const bool both_sorted = sorted_ && other.sorted_;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    if (both_sorted) {
        // Two sorted runs: an in-place merge is O(n) and keeps the
        // lazily-cached sorted order valid, so a quantile query
        // right after a merge skips the O(n log n) re-sort.
        std::inplace_merge(samples_.begin(),
                           samples_.begin() +
                               static_cast<std::ptrdiff_t>(mid),
                           samples_.end());
        sorted_ = true;
    } else {
        sorted_ = samples_.size() <= 1;
    }
}

void
Percentiles::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
Percentiles::quantile(double q) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(samples_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double
Percentiles::mean() const
{
    if (samples_.empty())
        return 0.0;
    const double sum = std::accumulate(samples_.begin(), samples_.end(),
                                       0.0);
    return sum / static_cast<double>(samples_.size());
}

double
Percentiles::fractionAbove(double threshold) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    const auto it = std::upper_bound(samples_.begin(), samples_.end(),
                                     threshold);
    const auto above = std::distance(it, samples_.end());
    return static_cast<double>(above) /
        static_cast<double>(samples_.size());
}

std::vector<CdfPoint>
buildCdf(std::vector<double> samples, std::size_t points)
{
    std::vector<CdfPoint> cdf;
    if (samples.empty() || points == 0)
        return cdf;
    std::sort(samples.begin(), samples.end());
    cdf.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        const double frac = points == 1
            ? 1.0
            : static_cast<double>(i) / static_cast<double>(points - 1);
        const double rank = frac *
            static_cast<double>(samples.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(rank);
        const std::size_t hi = std::min(lo + 1, samples.size() - 1);
        const double part = rank - static_cast<double>(lo);
        cdf.push_back({samples[lo] * (1.0 - part) + samples[hi] * part,
                       frac});
    }
    return cdf;
}

double
rmse(const std::vector<double> &actual,
     const std::vector<double> &predicted)
{
    assert(actual.size() == predicted.size());
    if (actual.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        const double diff = predicted[i] - actual[i];
        sum += diff * diff;
    }
    return std::sqrt(sum / static_cast<double>(actual.size()));
}

double
meanAbsoluteError(const std::vector<double> &actual,
                  const std::vector<double> &predicted)
{
    assert(actual.size() == predicted.size());
    if (actual.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < actual.size(); ++i)
        sum += std::abs(predicted[i] - actual[i]);
    return sum / static_cast<double>(actual.size());
}

double
meanSignedError(const std::vector<double> &actual,
                const std::vector<double> &predicted)
{
    assert(actual.size() == predicted.size());
    if (actual.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < actual.size(); ++i)
        sum += predicted[i] - actual[i];
    return sum / static_cast<double>(actual.size());
}

double
median(std::vector<double> samples)
{
    return medianInPlace(samples.data(),
                         samples.data() + samples.size());
}

double
medianInPlace(double *first, double *last)
{
    const auto size = static_cast<std::size_t>(last - first);
    if (size == 0)
        return 0.0;
    const std::size_t mid = size / 2;
    std::nth_element(first, first + mid, last);
    double upper = first[mid];
    if (size % 2 == 1)
        return upper;
    std::nth_element(first, first + mid - 1, first + mid);
    return 0.5 * (first[mid - 1] + upper);
}

} // namespace sim
} // namespace soc
