#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>

namespace soc
{
namespace sim
{

namespace
{

/** Closest ranks of quantile @p q in @p size sorted samples and the
 *  interpolation weight of the upper one. */
struct Ranks {
    std::size_t lo;
    std::size_t hi;
    double frac;
};

Ranks
closestRanks(std::size_t size, double q)
{
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(size - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    return {lo, std::min(lo + 1, size - 1),
            rank - static_cast<double>(lo)};
}

// Radix sort of the Percentiles reservoir.
constexpr unsigned kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr unsigned kDigits = (64 + kDigitBits - 1) / kDigitBits;
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/** Order-preserving key: unsigned key order is the numeric order of
 *  the doubles (negatives get every bit flipped, the rest only the
 *  sign bit), with -0 before +0. */
std::uint64_t
orderKey(double x)
{
    const auto bits = std::bit_cast<std::uint64_t>(x);
    return bits ^ ((bits & kSignBit) != 0 ? ~std::uint64_t{0} : kSignBit);
}

double
fromOrderKey(std::uint64_t key)
{
    return std::bit_cast<double>(
        key ^ ((key & kSignBit) != 0 ? kSignBit : ~std::uint64_t{0}));
}

std::size_t
digitOf(std::uint64_t key, unsigned d)
{
    return static_cast<std::size_t>(key >> (d * kDigitBits)) &
        (kBuckets - 1);
}

// Between passes the keys live either in a scratch buffer or in the
// reservoir's own storage, copied in and out bytewise, so a sort
// needs one n-sized scratch buffer rather than two.
std::uint64_t
loadKey(const std::uint64_t *p)
{
    return *p;
}

std::uint64_t
loadKey(const double *p)
{
    std::uint64_t key;
    std::memcpy(&key, p, sizeof key);
    return key;
}

void
storeKey(std::uint64_t *p, std::uint64_t key)
{
    *p = key;
}

void
storeKey(double *p, std::uint64_t key)
{
    std::memcpy(p, &key, sizeof key);
}

/** One stable counting-sort pass on digit @p d; @p offset holds the
 *  digit's bucket counts and is turned into running positions. */
template <typename Src, typename Dst>
void
scatterPass(const Src *src, Dst *dst, std::size_t n, unsigned d,
            std::size_t *offset)
{
    std::size_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
        const std::size_t count = offset[b];
        offset[b] = sum;
        sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = loadKey(src + i);
        storeKey(dst + offset[digitOf(key, d)]++, key);
    }
}

/** Sort @p v ascending: one sweep turns the samples into keys in
 *  place and counts every digit, then one stable scatter per 11-bit
 *  digit, least significant first; a digit every key shares moves
 *  nothing and is skipped. */
void
radixSort(std::vector<double> &v)
{
    const std::size_t n = v.size();
    double *own = v.data();
    std::vector<std::uint64_t> spare(n);
    std::vector<std::size_t> counts(kDigits * kBuckets, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t key = orderKey(own[i]);
        storeKey(own + i, key);
        for (unsigned d = 0; d < kDigits; ++d)
            ++counts[d * kBuckets + digitOf(key, d)];
    }
    // A digit is constant when one key's bucket holds all n keys.
    const std::uint64_t some_key = loadKey(own);
    bool in_spare = false;
    for (unsigned d = 0; d < kDigits; ++d) {
        std::size_t *offset = counts.data() + d * kBuckets;
        if (offset[digitOf(some_key, d)] == n)
            continue;
        if (in_spare)
            scatterPass(spare.data(), own, n, d, offset);
        else
            scatterPass(own, spare.data(), n, d, offset);
        in_spare = !in_spare;
    }
    for (std::size_t i = 0; i < n; ++i)
        own[i] = fromOrderKey(in_spare ? spare[i] : loadKey(own + i));
}

void
requireSameLength(const char *what, const std::vector<double> &actual,
                  const std::vector<double> &predicted)
{
    if (actual.size() != predicted.size()) {
        throw std::invalid_argument(
            std::string(what) + ": series lengths differ (" +
            std::to_string(actual.size()) + " actual vs " +
            std::to_string(predicted.size()) + " predicted)");
    }
}

} // namespace

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
Percentiles::add(const double *first, const double *last)
{
    if (first == last)
        return;
    samples_.insert(samples_.end(), first, last);
    sorted_ = samples_.size() <= 1;
}

void
Percentiles::ensureSorted() const
{
    if (sorted_)
        return;
    radixSort(samples_);
    sorted_ = true;
}

double
Percentiles::quantile(double q) const
{
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    const Ranks r = closestRanks(samples_.size(), q);
    return samples_[r.lo] * (1.0 - r.frac) + samples_[r.hi] * r.frac;
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
    requireSameLength("rmse", actual, predicted);
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
    requireSameLength("meanAbsoluteError", actual, predicted);
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
    requireSameLength("meanSignedError", actual, predicted);
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

double
quantileInPlace(double *first, double *last, double q)
{
    const auto size = static_cast<std::size_t>(last - first);
    if (size == 0)
        return 0.0;
    const Ranks r = closestRanks(size, q);
    double *lo = first + r.lo;
    std::nth_element(first, lo, last);
    const double lo_val = *lo;
    const double hi_val =
        r.hi == r.lo ? lo_val : *std::min_element(lo + 1, last);
    return lo_val * (1.0 - r.frac) + hi_val * r.frac;
}

} // namespace sim
} // namespace soc
