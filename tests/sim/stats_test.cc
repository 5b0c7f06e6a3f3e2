/** @file Unit and property tests for the statistics utilities. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace soc::sim;

namespace
{

/** Append every sample of @p from to @p to, through the range add. */
void
addAll(Percentiles &to, const Percentiles &from)
{
    const auto &v = from.samples();
    to.add(v.data(), v.data() + v.size());
}

} // namespace

TEST(OnlineStats, EmptyIsZero)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, BasicMoments)
{
    OnlineStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesSequential)
{
    Rng rng(3);
    OnlineStats all, a, b;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.normal(10.0, 3.0);
        all.add(v);
        (i % 2 == 0 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmptySides)
{
    OnlineStats a, b;
    a.add(1.0);
    a.merge(b); // empty rhs
    EXPECT_EQ(a.count(), 1u);
    b.merge(a); // empty lhs
    EXPECT_EQ(b.count(), 1u);
    EXPECT_EQ(b.mean(), 1.0);
}

TEST(Percentiles, EmptyQuantileIsZero)
{
    Percentiles p;
    EXPECT_EQ(p.quantile(0.5), 0.0);
    EXPECT_TRUE(p.empty());
}

TEST(Percentiles, SingleSample)
{
    Percentiles p;
    p.add(7.0);
    EXPECT_EQ(p.p50(), 7.0);
    EXPECT_EQ(p.p99(), 7.0);
    EXPECT_EQ(p.min(), 7.0);
    EXPECT_EQ(p.max(), 7.0);
}

TEST(Percentiles, ExactQuantilesOnKnownData)
{
    Percentiles p;
    for (int i = 1; i <= 100; ++i)
        p.add(static_cast<double>(i));
    EXPECT_NEAR(p.p50(), 50.5, 1e-9);
    EXPECT_NEAR(p.quantile(0.0), 1.0, 1e-9);
    EXPECT_NEAR(p.quantile(1.0), 100.0, 1e-9);
    EXPECT_NEAR(p.p99(), 99.01, 1e-9);
}

TEST(Percentiles, QuantileMonotoneInQ)
{
    Rng rng(5);
    Percentiles p;
    for (int i = 0; i < 1000; ++i)
        p.add(rng.lognormal(0.0, 1.0));
    double prev = -1.0;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        const double v = p.quantile(q);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(Percentiles, InterleavedAddAndQuery)
{
    Percentiles p;
    p.add(10.0);
    EXPECT_EQ(p.p50(), 10.0);
    p.add(20.0);
    p.add(0.0);
    EXPECT_NEAR(p.p50(), 10.0, 1e-9);
}

TEST(Percentiles, MergeCombinesSamples)
{
    Percentiles a, b;
    for (int i = 0; i < 50; ++i)
        a.add(1.0);
    for (int i = 0; i < 50; ++i)
        b.add(3.0);
    addAll(a, b);
    EXPECT_EQ(a.count(), 100u);
    EXPECT_NEAR(a.mean(), 2.0, 1e-9);
}

TEST(Percentiles, MergeOfSortedSidesKeepsQuantilesCheap)
{
    // After both sides have answered a quantile query their sample
    // stores are sorted; appending one to the other leaves the
    // combined store unsorted, and the next query sorts all of it
    // again (one O(n) radix sort), with the same results as one
    // reservoir fed every sample.
    Rng rng(7);
    Percentiles a, b, all;
    for (int i = 0; i < 400; ++i) {
        const double v = rng.lognormal(0.0, 1.0);
        (i % 2 == 0 ? a : b).add(v);
        all.add(v);
    }
    (void)a.p50(); // force both sides sorted
    (void)b.p50();
    addAll(a, b);
    EXPECT_EQ(a.count(), all.count());
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q));
}

TEST(Percentiles, MergeOfUnsortedSidesStillCorrect)
{
    Rng rng(8);
    Percentiles a, b, all;
    for (int i = 0; i < 300; ++i) {
        const double v = rng.uniform(-5.0, 5.0);
        (i % 3 == 0 ? a : b).add(v);
        all.add(v);
    }
    addAll(a, b); // neither side ever sorted
    EXPECT_EQ(a.count(), all.count());
    for (double q : {0.0, 0.25, 0.5, 0.75, 1.0})
        EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q));
}

TEST(Percentiles, MergeWithEmptySides)
{
    Percentiles a, b;
    a.add(1.0);
    a.add(2.0);
    addAll(a, b); // empty rhs is a no-op
    EXPECT_EQ(a.count(), 2u);
    addAll(b, a); // empty lhs adopts rhs
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.p50(), 1.5);
}

TEST(Percentiles, FractionAbove)
{
    Percentiles p;
    for (int i = 1; i <= 10; ++i)
        p.add(static_cast<double>(i));
    EXPECT_NEAR(p.fractionAbove(7.0), 0.3, 1e-9);
    EXPECT_NEAR(p.fractionAbove(0.0), 1.0, 1e-9);
    EXPECT_NEAR(p.fractionAbove(10.0), 0.0, 1e-9);
}

TEST(Cdf, EndsAtExtremes)
{
    std::vector<double> samples{5.0, 1.0, 3.0, 2.0, 4.0};
    const auto cdf = buildCdf(samples, 11);
    ASSERT_EQ(cdf.size(), 11u);
    EXPECT_EQ(cdf.front().value, 1.0);
    EXPECT_EQ(cdf.front().fraction, 0.0);
    EXPECT_EQ(cdf.back().value, 5.0);
    EXPECT_EQ(cdf.back().fraction, 1.0);
}

TEST(Cdf, MonotoneValues)
{
    Rng rng(6);
    std::vector<double> samples;
    for (int i = 0; i < 500; ++i)
        samples.push_back(rng.normal(0.0, 1.0));
    const auto cdf = buildCdf(samples, 50);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GE(cdf[i].value, cdf[i - 1].value);
        EXPECT_GT(cdf[i].fraction, cdf[i - 1].fraction);
    }
}

TEST(Cdf, EmptyInput)
{
    EXPECT_TRUE(buildCdf({}, 10).empty());
    EXPECT_TRUE(buildCdf({1.0}, 0).empty());
}

TEST(Rmse, ZeroForPerfectPrediction)
{
    std::vector<double> a{1.0, 2.0, 3.0};
    EXPECT_EQ(rmse(a, a), 0.0);
}

TEST(Rmse, KnownValue)
{
    std::vector<double> actual{0.0, 0.0};
    std::vector<double> pred{3.0, 4.0};
    // sqrt((9 + 16) / 2) = sqrt(12.5)
    EXPECT_NEAR(rmse(actual, pred), std::sqrt(12.5), 1e-12);
}

TEST(Rmse, EmptyIsZero)
{
    EXPECT_EQ(rmse({}, {}), 0.0);
}

TEST(Rmse, ThrowsOnLengthMismatchInEveryBuild)
{
    const std::vector<double> actual{1.0, 2.0, 3.0};
    const std::vector<double> shorter{1.0, 2.0};
    EXPECT_THROW(rmse(actual, shorter), std::invalid_argument);
    EXPECT_THROW(rmse(shorter, actual), std::invalid_argument);
    EXPECT_THROW(rmse({}, actual), std::invalid_argument);
}

TEST(Errors, ThrowOnLengthMismatchInEveryBuild)
{
    const std::vector<double> actual{1.0, 2.0, 3.0};
    const std::vector<double> shorter{1.0, 2.0};
    EXPECT_THROW(meanAbsoluteError(actual, shorter),
                 std::invalid_argument);
    EXPECT_THROW(meanAbsoluteError(shorter, actual),
                 std::invalid_argument);
    EXPECT_THROW(meanSignedError(actual, shorter),
                 std::invalid_argument);
    EXPECT_THROW(meanSignedError(shorter, actual),
                 std::invalid_argument);
}

TEST(Errors, SignedAndAbsolute)
{
    std::vector<double> actual{1.0, 2.0, 3.0};
    std::vector<double> pred{2.0, 2.0, 1.0};
    EXPECT_NEAR(meanAbsoluteError(actual, pred), 1.0, 1e-12);
    EXPECT_NEAR(meanSignedError(actual, pred), -1.0 / 3.0, 1e-12);
}

TEST(Median, OddAndEven)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({42.0}), 42.0);
}

/** Property sweep: quantile() agrees with a naive sorted lookup. */
class QuantileProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(QuantileProperty, MatchesNaiveImplementation)
{
    Rng rng(100 + GetParam());
    Percentiles p;
    std::vector<double> raw;
    const int n = 10 + GetParam() * 37;
    for (int i = 0; i < n; ++i) {
        const double v = rng.uniform(0.0, 1000.0);
        p.add(v);
        raw.push_back(v);
    }
    std::sort(raw.begin(), raw.end());
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
        const double rank = q * (n - 1);
        const auto lo = static_cast<std::size_t>(rank);
        const auto hi = std::min<std::size_t>(lo + 1, n - 1);
        const double frac = rank - static_cast<double>(lo);
        const double expect = raw[lo] * (1 - frac) + raw[hi] * frac;
        EXPECT_NEAR(p.quantile(q), expect, 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuantileProperty,
                         ::testing::Range(0, 8));

namespace
{

/** Quantile @p q of an already sorted @p v, closest-rank
 *  interpolation written out independently of stats.cc. */
double
sortedQuantile(const std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    const double rank = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

/** Positions where @p a and @p b differ in bit pattern (or length). */
std::size_t
bitMismatches(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return std::max(a.size(), b.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        bad += std::bit_cast<std::uint64_t>(a[i]) !=
            std::bit_cast<std::uint64_t>(b[i]);
    return bad;
}

/** @p n samples: lognormal latencies mixed with exact duplicates,
 *  negatives, subnormals, huge magnitudes and both infinities; with
 *  @p zeros, also -0.0 and +0.0. */
std::vector<double>
awkwardSamples(std::size_t n, std::uint64_t seed, bool zeros)
{
    Rng rng(seed);
    const double inf = std::numeric_limits<double>::infinity();
    const double tiny = std::numeric_limits<double>::denorm_min();
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.uniform();
        double v = rng.lognormal(1.0, 1.5);
        if (u < 0.15 && !out.empty())
            v = out[static_cast<std::size_t>(rng.uniform() *
                                             static_cast<double>(
                                                 out.size()))];
        else if (u < 0.30)
            v = -v;
        else if (u < 0.36)
            v = tiny * std::floor(rng.uniform(-1e6, 1e6));
        else if (u < 0.38)
            v = rng.uniform(-1.0, 1.0) * 1e300;
        else if (u < 0.39)
            v = rng.uniform() < 0.5 ? inf : -inf;
        else if (u < 0.41 && zeros)
            v = rng.uniform() < 0.5 ? 0.0 : -0.0;
        out.push_back(v);
    }
    return out;
}

/** The bit patterns of @p v, sorted: equal for two permutations. */
std::vector<std::uint64_t>
sortedBits(const std::vector<double> &v)
{
    std::vector<std::uint64_t> bits;
    for (const double x : v)
        bits.push_back(std::bit_cast<std::uint64_t>(x));
    std::sort(bits.begin(), bits.end());
    return bits;
}

} // namespace

TEST(Percentiles, SortMatchesStdSortAcrossSizes)
{
    // Sizes run from one sample to ~300k; the data include every
    // awkward class the order keys must handle.
    const std::size_t sizes[] = {1,   2,    3,     97,     255,
                                 256, 257,  384,   1000,   4096,
                                 65537, 300000};
    for (const std::size_t n : sizes) {
        for (const bool zeros : {false, true}) {
            const auto data = awkwardSamples(n, 1000 + n, zeros);
            Percentiles p;
            for (const double v : data)
                p.add(v);
            (void)p.p50(); // sort
            std::vector<double> ref = data;
            std::sort(ref.begin(), ref.end());
            const auto &got = p.samples();
            ASSERT_EQ(got.size(), ref.size());
            // The same doubles as std::sort (== treats -0 and +0
            // as equal; std::sort leaves their order open).
            std::size_t unequal = 0;
            for (std::size_t i = 0; i < got.size(); ++i)
                unequal += !(got[i] == ref[i]);
            EXPECT_EQ(unequal, 0u) << "n=" << n << " zeros=" << zeros;
            // Without signed zeros, the same bits; with them, still a
            // permutation of the input.
            if (!zeros) {
                EXPECT_EQ(bitMismatches(got, ref), 0u) << "n=" << n;
            }
            EXPECT_TRUE(sortedBits(got) == sortedBits(data))
                << "n=" << n << " zeros=" << zeros;
        }
    }
}

TEST(Percentiles, SortHandlesConstantAndSharedDigits)
{
    // Every key equal (every digit pass skipped), keys that differ
    // only in the low bits, and integers (low mantissa digits all
    // zero): each must come out sorted.
    std::vector<std::vector<double>> cases;
    cases.emplace_back(5000, 3.25);
    Rng rng(44);
    std::vector<double> low_bits, integers;
    for (int i = 0; i < 5000; ++i) {
        low_bits.push_back(std::bit_cast<double>(
            std::bit_cast<std::uint64_t>(1.0) +
            static_cast<std::uint64_t>(rng.uniform() * 1500.0)));
        integers.push_back(std::floor(rng.uniform(-1e4, 1e4)));
    }
    cases.push_back(low_bits);
    cases.push_back(integers);
    for (const auto &data : cases) {
        Percentiles p;
        for (const double v : data)
            p.add(v);
        (void)p.p99();
        std::vector<double> ref = data;
        std::sort(ref.begin(), ref.end());
        EXPECT_EQ(bitMismatches(p.samples(), ref), 0u);
    }
}

TEST(Percentiles, MergeSequencesMatchSortedCopyReference)
{
    // Random interleavings of add, range add of a batch or of another
    // reservoir, and queries
    // across four reservoirs; every reservoir then answers each
    // quantile, and its mean (taken after the sort), bit for bit as
    // a sorted copy of everything it was fed.
    Rng rng(2024);
    for (int round = 0; round < 20; ++round) {
        Percentiles res[4];
        std::vector<double> fed[4];
        for (int op = 0; op < 60; ++op) {
            const auto k = static_cast<std::size_t>(rng.uniform() * 4.0);
            const double u = rng.uniform();
            if (u < 0.4) {
                const int n = 1 + static_cast<int>(rng.uniform() * 600.0);
                for (int i = 0; i < n; ++i) {
                    const double v = rng.lognormal(2.0, 1.0);
                    res[k].add(v);
                    fed[k].push_back(v);
                }
            } else if (u < 0.6) {
                std::vector<double> batch(
                    static_cast<std::size_t>(rng.uniform() * 300.0));
                for (double &v : batch)
                    v = rng.lognormal(2.0, 1.0);
                res[k].add(batch.data(), batch.data() + batch.size());
                fed[k].insert(fed[k].end(), batch.begin(), batch.end());
            } else if (u < 0.85) {
                const std::size_t from = (k + 1 + static_cast<std::size_t>(
                                              rng.uniform() * 3.0)) %
                    4;
                if (fed[k].size() + fed[from].size() > 50000)
                    continue; // repeated appends grow geometrically
                addAll(res[k], res[from]);
                fed[k].insert(fed[k].end(), fed[from].begin(),
                              fed[from].end());
            } else {
                (void)res[k].quantile(rng.uniform());
            }
        }
        for (int k = 0; k < 4; ++k) {
            std::vector<double> ref = fed[k];
            std::sort(ref.begin(), ref.end());
            ASSERT_EQ(res[k].count(), ref.size());
            for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99,
                                   0.999, 1.0}) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(res[k].quantile(q)),
                          std::bit_cast<std::uint64_t>(
                              sortedQuantile(ref, q)))
                    << "round " << round << " reservoir " << k
                    << " q=" << q;
            }
            const double ref_mean = ref.empty()
                ? 0.0
                : std::accumulate(ref.begin(), ref.end(), 0.0) /
                    static_cast<double>(ref.size());
            EXPECT_EQ(std::bit_cast<std::uint64_t>(res[k].mean()),
                      std::bit_cast<std::uint64_t>(ref_mean));
        }
    }
}

TEST(QuantileInPlace, MatchesPercentilesQuantile)
{
    Rng rng(77);
    for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                                std::size_t{7}, std::size_t{100},
                                std::size_t{255}, std::size_t{1001},
                                std::size_t{20000}}) {
        std::vector<double> data(n);
        for (double &v : data)
            v = rng.uniform() < 0.2 && n > 1 ? data[0]
                                             : rng.lognormal(1.0, 1.0);
        Percentiles p;
        for (const double v : data)
            p.add(v);
        for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0,
                               rng.uniform(), rng.uniform()}) {
            std::vector<double> scratch = data;
            const double got = quantileInPlace(
                scratch.data(), scratch.data() + scratch.size(), q);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(p.quantile(q)))
                << "n=" << n << " q=" << q;
        }
    }
    EXPECT_EQ(quantileInPlace(nullptr, nullptr, 0.99), 0.0);
}
