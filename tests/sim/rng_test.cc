/** @file Statistical sanity tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"

using soc::sim::Rng;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a() == b())
            ++equal;
    EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(8);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRange)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.uniformInt(2, 9);
        ASSERT_GE(v, 2);
        ASSERT_LE(v, 9);
        saw_lo |= v == 2;
        saw_hi |= v == 9;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(10);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(3.0, 2.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 3.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.exponential(4.0);
        ASSERT_GE(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, LognormalMeanMatches)
{
    // mean of lognormal = exp(mu + sigma^2/2)
    Rng rng(12);
    const double mu = 0.5, sigma = 0.6;
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.lognormal(mu, sigma);
    EXPECT_NEAR(sum / n, std::exp(mu + sigma * sigma / 2.0), 0.05);
}

TEST(Rng, PoissonMeanMatchesSmallAndLarge)
{
    Rng rng(13);
    for (double mean : {0.5, 3.0, 12.0, 80.0}) {
        double sum = 0.0;
        const int n = 20000;
        for (int i = 0; i < n; ++i)
            sum += static_cast<double>(rng.poisson(mean));
        EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05)
            << "mean=" << mean;
    }
}

TEST(Rng, PoissonOfNonPositiveMeanIsZero)
{
    Rng rng(14);
    EXPECT_EQ(rng.poisson(0.0), 0);
    EXPECT_EQ(rng.poisson(-1.0), 0);
}

TEST(Rng, ChanceFrequencyMatches)
{
    Rng rng(15);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(16);
    Rng child = parent.split();
    // Child and parent should not produce identical sequences.
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (parent() == child())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, SplitIsDeterministic)
{
    Rng a(17), b(17);
    Rng ca = a.split();
    Rng cb = b.split();
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(ca(), cb());
}

TEST(Rng, DeriveSeedIsDeterministic)
{
    EXPECT_EQ(soc::sim::deriveSeed(1, 0), soc::sim::deriveSeed(1, 0));
    EXPECT_EQ(soc::sim::deriveSeed(99, 7), soc::sim::deriveSeed(99, 7));
}

TEST(Rng, DeriveSeedSeparatesStreamsAndSeeds)
{
    EXPECT_NE(soc::sim::deriveSeed(1, 0), soc::sim::deriveSeed(1, 1));
    EXPECT_NE(soc::sim::deriveSeed(1, 0), soc::sim::deriveSeed(2, 0));
    // Generators seeded from adjacent streams diverge immediately.
    Rng a(soc::sim::deriveSeed(42, 0));
    Rng b(soc::sim::deriveSeed(42, 1));
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b())
            ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, DeriveSeedAdjacentRackStreamsAreIndependent)
{
    // The simulators hand rack i the stream deriveSeed(seed, i); a
    // weak mix (e.g. seed + i) would make rack i under seed s
    // identical to rack i+1 under seed s-1, and correlated draws
    // would couple the racks' fault plans.  Check both statistically
    // across many adjacent pairs.
    for (std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
        for (std::uint64_t rack = 0; rack < 8; ++rack) {
            const auto lo = soc::sim::deriveSeed(seed, rack);
            const auto hi = soc::sim::deriveSeed(seed, rack + 1);
            EXPECT_NE(lo, hi);
            // Not a shifted copy of the neighbouring seed's stream.
            EXPECT_NE(hi, soc::sim::deriveSeed(seed + 1, rack));

            Rng a(lo), b(hi);
            int equal = 0;
            double corr = 0.0;
            for (int i = 0; i < 256; ++i) {
                const double ua = a.uniform(), ub = b.uniform();
                equal += ua == ub;
                corr += (ua - 0.5) * (ub - 0.5);
            }
            EXPECT_LT(equal, 2) << "seed " << seed << " rack "
                                << rack;
            // Sample covariance of independent U(0,1) draws is
            // near zero (sigma ~ 1/(12 sqrt(n)) ~ 0.005).
            EXPECT_LT(std::abs(corr / 256.0), 0.03)
                << "seed " << seed << " rack " << rack;
        }
    }
}

/*
 * Batch-fill stream equivalence: normalFill/uniformFill must consume
 * the generator exactly like repeated scalar calls, including the
 * polar method's cached spare normal carried across batch
 * boundaries.  The trace generator switches between the two shapes
 * freely (scalar day-amplitude draws between batched noise fills),
 * so any divergence would silently re-seed every trace.
 */

TEST(Rng, NormalFillMatchesScalarStream)
{
    // Batch sizes chosen to hit every boundary case: empty, one
    // (odd tail caches a spare), even, odd-after-spare, a full
    // trace-generator day, and sizes around the pair loop's internal
    // chunk (one short, exact, one over, two chunks and a tail) up
    // to a week of slots.  The list runs twice, once entered with a
    // live spare, so each size meets both prologues.
    constexpr std::size_t chunk = Rng::kNormalChunk;
    const std::size_t batches[] = {0,         1,         2,
                                   3,         7,         288,
                                   5,         0,         97,
                                   chunk - 1, chunk,     chunk + 1,
                                   chunk,     2 * chunk + 1,
                                   2016,      chunk - 1, 4};
    Rng scalar(2024), batch(2024);
    for (int pass = 0; pass < 2; ++pass) {
        if (pass == 1) {
            ASSERT_EQ(scalar.normal(), batch.normal());
        }
        for (const std::size_t n : batches) {
            std::vector<double> got(n, 0.0);
            batch.normalFill(got.data(), n);
            for (std::size_t i = 0; i < n; ++i) {
                const double want = scalar.normal();
                ASSERT_EQ(want, got[i])
                    << "pass " << pass << " batch " << n << " i "
                    << i;
            }
            // After every batch both generators sit at the same
            // raw-stream position with the same cached spare: a
            // fill that drew past its last needed pair, or one
            // short of it, diverges here and not only at the end.
            Rng scalar_next = scalar;
            Rng batch_next = batch;
            ASSERT_EQ(scalar_next.normal(), batch_next.normal())
                << "pass " << pass << " batch " << n;
            for (int i = 0; i < 4; ++i)
                ASSERT_EQ(scalar_next(), batch_next())
                    << "pass " << pass << " batch " << n;
        }
    }
}

TEST(Rng, NormalFillCarriesLiveSpareAcrossBoundary)
{
    Rng scalar(7), batch(7);
    // Leave a live spare in both generators...
    ASSERT_EQ(scalar.normal(), batch.normal());
    // ...then fill: the spare must come out as the first sample.
    double got[5];
    batch.normalFill(got, 5);
    for (double g : got)
        ASSERT_EQ(scalar.normal(), g);
    // The odd tail cached a fresh spare; the next scalar draws on
    // both generators must still agree.
    EXPECT_EQ(scalar.normal(), batch.normal());
    EXPECT_EQ(scalar.normal(), batch.normal());
}

TEST(Rng, UniformFillMatchesScalarStream)
{
    Rng scalar(11), batch(11);
    double got[64];
    batch.uniformFill(got, 64);
    for (double g : got)
        ASSERT_EQ(scalar.uniform(), g);
    EXPECT_EQ(scalar(), batch());
}
