/**
 * @file
 * Statistics utilities used across the characterization and
 * evaluation experiments: streaming moments, exact percentiles,
 * CDF construction (Figs. 5, 8, 15), and RMSE (Fig. 8).
 */

#ifndef SOC_SIM_STATS_HH
#define SOC_SIM_STATS_HH

#include <cstddef>
#include <vector>

namespace soc
{
namespace sim
{

/**
 * Streaming mean/variance/extrema accumulator (Welford's algorithm).
 */
class OnlineStats
{
  public:
    /** Fold one observation into the accumulator. */
    void add(double x);

    /** Merge another accumulator (parallel Welford). */
    void merge(const OnlineStats &other);

    std::size_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** Population variance. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Sample reservoir with exact percentile queries.
 *
 * Stores all samples; at our experiment scales (<= tens of millions)
 * this is cheaper and more trustworthy than approximate sketches.
 * Percentile queries sort lazily and cache the sorted order.  The
 * sort is an LSD radix sort over order-preserving 64-bit keys, O(n),
 * so it yields the sequence any correct sort yields; only the order
 * of -0 and +0, which compare equal, is left open, as with
 * std::sort.  mean() sums the samples in their current order: after
 * a quantile query that is the sorted order.
 */
class Percentiles
{
  public:
    void add(double x);

    /** Append the samples in [first, last), in order; the range must
     *  not lie in this reservoir (samples() of another one may). */
    void add(const double *first, const double *last);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /**
     * Exact quantile by linear interpolation between closest ranks.
     *
     * @param q Quantile in [0, 1]; e.g. 0.99 for P99.
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p99() const { return quantile(0.99); }

    double mean() const;
    double min() const { return quantile(0.0); }
    double max() const { return quantile(1.0); }

    /** Fraction of samples strictly above @p threshold. */
    double fractionAbove(double threshold) const;

    const std::vector<double> &samples() const { return samples_; }

  private:
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/** One (x, cumulativeFraction) point of an empirical CDF. */
struct CdfPoint {
    double value;
    double fraction;
};

/**
 * Build an empirical CDF sampled at @p points evenly spaced
 * cumulative fractions — the form the paper's CDF figures plot.
 */
std::vector<CdfPoint> buildCdf(std::vector<double> samples,
                               std::size_t points = 100);

/**
 * Root-mean-squared error between two equally long series.
 * Used to score power-template predictions (Fig. 8 / Fig. 15).
 * The three error helpers throw std::invalid_argument when the
 * series differ in length.
 */
double rmse(const std::vector<double> &actual,
            const std::vector<double> &predicted);

/** Mean absolute error between two equally long series. */
double meanAbsoluteError(const std::vector<double> &actual,
                         const std::vector<double> &predicted);

/**
 * Mean signed error (predicted - actual); positive means the
 * predictor overestimates.  Fig. 15 plots this per technique.
 */
double meanSignedError(const std::vector<double> &actual,
                       const std::vector<double> &predicted);

/** Exact median of a copied sample set; empty input yields 0. */
double median(std::vector<double> samples);

/**
 * median() over [first, last) in place: reorders the range and
 * selects the same two order statistics with the same nth_element
 * calls, so the same input sequence yields the same double.  Empty
 * input yields 0.
 */
double medianInPlace(double *first, double *last);

/**
 * Percentiles::quantile(@p q) of [first, last) in place, by
 * selection: reorders the range and selects the two order
 * statistics straddling the rank (nth_element + min_element, O(n)
 * expected) instead of sorting, with the same closest-rank
 * interpolation, so it returns the same double.  Empty input
 * yields 0.
 */
double quantileInPlace(double *first, double *last, double q);

} // namespace sim
} // namespace soc

#endif // SOC_SIM_STATS_HH
