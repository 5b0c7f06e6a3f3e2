/** @file Unit tests for the FIFO ring buffer. */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <stdexcept>

#include "sim/ring.hh"
#include "sim/rng.hh"

using soc::sim::Ring;

TEST(Ring, FifoAcrossGrowthAndWrap)
{
    Ring<int> ring;
    EXPECT_TRUE(ring.empty());
    int next_in = 0;
    int next_out = 0;
    // Keep the ring partly full while it wraps and doubles.
    for (int round = 0; round < 200; ++round) {
        for (int k = 0; k < 3; ++k)
            ring.push(next_in++);
        EXPECT_EQ(ring.pop(), next_out++);
        ASSERT_EQ(ring.size(),
                  static_cast<std::size_t>(next_in - next_out));
        EXPECT_EQ(ring[0], next_out);
        EXPECT_EQ(ring[ring.size() - 1], next_in - 1);
    }
    while (!ring.empty())
        EXPECT_EQ(ring.pop(), next_out++);
    EXPECT_EQ(next_out, next_in);
}

TEST(Ring, FullAtItsLimitThrowsUnchanged)
{
    Ring<int> ring(20);
    for (int k = 0; k < 20; ++k)
        ring.push(k);
    EXPECT_THROW(ring.push(20), std::length_error);
    ASSERT_EQ(ring.size(), 20u);
    for (int k = 0; k < 20; ++k)
        EXPECT_EQ(ring[static_cast<std::size_t>(k)], k);
    // Room again once an entry leaves.
    EXPECT_EQ(ring.pop(), 0);
    ring.push(20);
    EXPECT_EQ(ring[19], 20);
}

TEST(Ring, MatchesDequeOnRandomSequences)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        soc::sim::Rng rng(seed);
        const auto limit = static_cast<std::size_t>(
            rng.uniformInt(1, 300));
        Ring<std::int64_t> ring(limit);
        Ring<std::int64_t> other;
        std::deque<std::int64_t> ref;
        std::deque<std::int64_t> other_ref;
        for (int op = 0; op < 3000; ++op) {
            const double r = rng.uniform();
            if (r < 0.5) {
                const std::int64_t v = rng.uniformInt(0, 1 << 30);
                if (ref.size() < limit) {
                    ring.push(v);
                    ref.push_back(v);
                } else {
                    EXPECT_THROW(ring.push(v), std::length_error);
                }
            } else if (r < 0.75) {
                if (!ref.empty()) {
                    ASSERT_EQ(ring.pop(), ref.front());
                    ref.pop_front();
                }
            } else if (r < 0.93) {
                if (!ref.empty()) {
                    const auto last =
                        static_cast<std::int64_t>(ref.size()) - 1;
                    const auto i = static_cast<std::size_t>(
                        rng.uniformInt(0, last));
                    ring.erase(i);
                    ref.erase(ref.begin() +
                              static_cast<std::ptrdiff_t>(i));
                }
            } else if (r < 0.98) {
                // swap() trades contents and limits.
                ring.swap(other);
                ref.swap(other_ref);
                ring.swap(other);
                ref.swap(other_ref);
            } else {
                ring.clear();
                ref.clear();
            }
            ASSERT_EQ(ring.size(), ref.size());
            ASSERT_EQ(ring.empty(), ref.empty());
            for (std::size_t i = 0; i < ref.size(); ++i)
                ASSERT_EQ(ring[i], ref[i])
                    << "seed " << seed << " op " << op;
        }
    }
}

TEST(Ring, SwapTradesContentsAndLimits)
{
    Ring<int> a(4);
    Ring<int> b;
    a.push(1);
    b.push(2);
    b.push(3);
    a.swap(b);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0], 2);
    EXPECT_EQ(a[1], 3);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b[0], 1);
    for (int k = 0; k < 3; ++k)
        b.push(k);
    EXPECT_THROW(b.push(9), std::length_error);
    for (int k = 0; k < 100; ++k)
        a.push(k); // no limit
    EXPECT_EQ(a.size(), 102u);
}
