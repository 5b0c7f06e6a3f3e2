/**
 * @file
 * SlotAggregator correctness: the incremental aggregator must be a
 * bit-identical replacement for the batch ProfileTemplate::build on
 * the same sample stream, for every strategy, under any history
 * shape (random, mid-week start, sub-day, empty) and under window
 * eviction.
 */

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/profile_template.hh"
#include "core/slot_aggregator.hh"
#include "telemetry/time_series.hh"

using namespace soc;
using namespace soc::core;
using telemetry::TimeSeries;
using sim::kSlot;
using sim::kDay;
using sim::kWeek;

namespace
{

constexpr TemplateStrategy kAllStrategies[] = {
    TemplateStrategy::FlatMed,  TemplateStrategy::FlatMax,
    TemplateStrategy::Weekly,   TemplateStrategy::DailyMed,
    TemplateStrategy::DailyMax,
};

/** Random-walk history of @p slots samples starting at @p start. */
TimeSeries
randomHistory(std::uint64_t seed, sim::Tick start, int slots)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> step(-8.0, 8.0);
    TimeSeries s(start, kSlot);
    double level = 200.0;
    for (int i = 0; i < slots; ++i) {
        level += step(rng);
        s.append(level);
    }
    return s;
}

/** Feed @p history into a fresh aggregator sample by sample. */
SlotAggregator
aggregate(const TimeSeries &history, sim::Tick window = kWeek)
{
    SlotAggregator agg(window);
    for (std::size_t i = 0; i < history.size(); ++i)
        agg.add(history.timeOf(i), history.at(i));
    return agg;
}

void
expectMatchesBatch(const SlotAggregator &agg,
                   const TimeSeries &history)
{
    for (auto strategy : kAllStrategies) {
        EXPECT_TRUE(agg.build(strategy) ==
                    ProfileTemplate::build(strategy, history))
            << "strategy " << strategyName(strategy) << " at "
            << history.size() << " samples from tick "
            << history.start();
    }
}

} // namespace

TEST(SlotAggregator, EmptyMatchesBatch)
{
    const SlotAggregator agg(kWeek);
    EXPECT_TRUE(agg.empty());
    expectMatchesBatch(agg, TimeSeries(0, kSlot));
}

TEST(SlotAggregator, SingleSampleMatchesBatch)
{
    const TimeSeries history(0, kSlot, {123.5});
    expectMatchesBatch(aggregate(history), history);
}

TEST(SlotAggregator, SubDayHistoryLeavesBucketsEmpty)
{
    // Half a day of weekday samples: most weekday buckets and every
    // weekend bucket are empty, exercising both fallbacks.
    const auto history = randomHistory(11, 0, sim::kSlotsPerDay / 2);
    expectMatchesBatch(aggregate(history), history);
}

TEST(SlotAggregator, WeekendOnlyHistory)
{
    // Tick 0 is Monday, so 5*kDay starts Saturday: weekday buckets
    // all empty, the weekend fallback chain must still match.
    const auto history =
        randomHistory(12, 5 * kDay, sim::kSlotsPerDay);
    expectMatchesBatch(aggregate(history), history);
}

TEST(SlotAggregator, MidWeekStartCrossingWeekend)
{
    // Saturday start, 1.5 days: weekend samples then Monday
    // morning.
    const auto history =
        randomHistory(13, 5 * kDay + 7 * kSlot,
                      sim::kSlotsPerDay + sim::kSlotsPerDay / 2);
    expectMatchesBatch(aggregate(history), history);
}

TEST(SlotAggregator, RandomHistoriesBitIdenticalAtEveryPrefix)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const auto history =
            randomHistory(seed, 0, 2 * sim::kSlotsPerWeek + 3);
        // A window longer than the history: nothing is evicted.
        SlotAggregator agg(3 * kWeek);
        TimeSeries prefix(0, kSlot);
        for (std::size_t i = 0; i < history.size(); ++i) {
            agg.add(history.timeOf(i), history.at(i));
            prefix.append(history.at(i));
            // Checking all 5 strategies at every slot is O(weeks^2);
            // a stride plus the exact end keeps the test fast while
            // still crossing day and week boundaries mid-stream.
            if (i % 97 == 0 || i + 1 == history.size())
                expectMatchesBatch(agg, prefix);
        }
    }
}

TEST(SlotAggregator, VersionAndCacheBehavior)
{
    const auto history = randomHistory(21, 0, 3 * sim::kSlotsPerDay);
    auto agg = aggregate(history);
    const auto v = agg.version();

    EXPECT_EQ(agg.rebuildCount(), 0u);
    (void)agg.build(TemplateStrategy::DailyMed);
    EXPECT_EQ(agg.rebuildCount(), 1u);

    // Same strategy, no new samples: cached, no rebuild.
    (void)agg.build(TemplateStrategy::DailyMed);
    (void)agg.build(TemplateStrategy::DailyMed);
    EXPECT_EQ(agg.rebuildCount(), 1u);
    EXPECT_EQ(agg.version(), v);

    // A different strategy has its own cache slot.
    (void)agg.build(TemplateStrategy::FlatMax);
    EXPECT_EQ(agg.rebuildCount(), 2u);
    (void)agg.build(TemplateStrategy::FlatMax);
    (void)agg.build(TemplateStrategy::DailyMed);
    EXPECT_EQ(agg.rebuildCount(), 2u);

    // New sample bumps the version and invalidates both.
    agg.add(history.end(), 250.0);
    EXPECT_GT(agg.version(), v);
    (void)agg.build(TemplateStrategy::DailyMed);
    (void)agg.build(TemplateStrategy::FlatMax);
    EXPECT_EQ(agg.rebuildCount(), 4u);
}

TEST(SlotAggregator, WindowEvictionMatchesSlicedBatch)
{
    for (sim::Tick window : {kDay, kWeek}) {
        const auto history =
            randomHistory(31, 0, 3 * sim::kSlotsPerWeek);
        SlotAggregator agg(window);
        TimeSeries prefix(0, kSlot);
        for (std::size_t i = 0; i < history.size(); ++i) {
            agg.add(history.timeOf(i), history.at(i));
            prefix.append(history.at(i));
            if (i % 131 != 0 && i + 1 != history.size())
                continue;
            const auto windowed =
                prefix.slice(prefix.end() - window, prefix.end());
            expectMatchesBatch(agg, windowed);
            EXPECT_EQ(agg.sampleCount(), windowed.size());
        }
    }
}

TEST(SlotAggregator, ClearResetsToEmpty)
{
    auto agg = aggregate(randomHistory(41, 0, 100));
    (void)agg.build(TemplateStrategy::Weekly);
    agg.clear();
    EXPECT_TRUE(agg.empty());
    EXPECT_EQ(agg.sampleCount(), 0u);
    expectMatchesBatch(agg, TimeSeries(0, kSlot));
    // Refilling after clear behaves like a fresh aggregator.
    const auto history = randomHistory(42, 0, sim::kSlotsPerDay);
    for (std::size_t i = 0; i < history.size(); ++i)
        agg.add(history.timeOf(i), history.at(i));
    expectMatchesBatch(agg, history);
}

TEST(SlotAggregator, RejectsNonFiniteSamplesAtIngestion)
{
    // A NaN breaks the ordering comparisons every median and max
    // relies on and silently corrupts them; the aggregator must
    // refuse it up front and stay untouched.
    const auto history = randomHistory(77, 0, 64);
    auto agg = aggregate(history);
    const std::uint64_t version = agg.version();
    const sim::Tick next = history.end();

    const double bad[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::signaling_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    for (double v : bad)
        EXPECT_THROW(agg.add(next, v), std::invalid_argument);

    // No partial mutation: same version, same sample count, and
    // every template still matches the batch builder over the
    // samples that were actually accepted.
    EXPECT_EQ(agg.version(), version);
    EXPECT_EQ(agg.sampleCount(), history.size());
    expectMatchesBatch(agg, history);

    // The rejected tick was never recorded, so the slot is still
    // free for a finite retry.
    agg.add(next, 250.0);
    EXPECT_EQ(agg.sampleCount(), history.size() + 1);
}

TEST(SlotAggregator, RingAssemblyMatchesSlicedBatchAcrossWindows)
{
    // Assembly at every window shape, from starts on either side
    // of the weekend.  Between them these reach each
    // case where assembly reads the window median: an empty
    // weekday bucket (sub-day windows, weekend-only windows after
    // the Saturday start), an unfilled Weekly slot (any window
    // under a week), and neither (one- and two-week windows once
    // full).
    const sim::Tick windows[] = {kSlot, 7 * kSlot,
                                 kDay + 5 * kSlot, kWeek, 2 * kWeek};
    const sim::Tick starts[] = {
        0,                                    // Monday 00:00
        4 * kDay + 23 * sim::kHour,           // Friday 23:00
        5 * kDay + 5 * sim::kMinute,          // Saturday 00:05
        2 * kDay + 12 * sim::kHour,           // Wednesday 12:00
    };
    const int slots = 2 * sim::kSlotsPerWeek + sim::kSlotsPerDay + 7;
    for (sim::Tick window : windows) {
        for (sim::Tick start : starts) {
            const auto history = randomHistory(
                static_cast<std::uint64_t>(window + start), start,
                slots);
            SlotAggregator agg(window);
            TimeSeries prefix(start, kSlot);
            for (std::size_t i = 0; i < history.size(); ++i) {
                agg.add(history.timeOf(i), history.at(i));
                prefix.append(history.at(i));
                if (i % 89 != 0 && i + 1 != history.size())
                    continue;
                const auto windowed =
                    prefix.slice(prefix.end() - window, prefix.end());
                SCOPED_TRACE("window " + std::to_string(window) +
                             " start " + std::to_string(start));
                expectMatchesBatch(agg, windowed);
                EXPECT_EQ(agg.sampleCount(), windowed.size());
            }
        }
    }
}

TEST(SlotAggregator, RejectsInvalidWindows)
{
    // Checked in every build type, not by assert: an SoaConfig
    // built directly never passes through a simulator's validate().
    // A 0 window would evict every sample, the one latest() returns
    // for gap-fill included.
    for (sim::Tick window : {sim::Tick{0}, -kSlot, sim::Tick{-1},
                             kSlot + 1, kSlot / 2, kDay - 1}) {
        EXPECT_THROW(SlotAggregator{window}, std::invalid_argument)
            << "window " << window;
    }
    for (sim::Tick window : {kSlot, kWeek})
        EXPECT_NO_THROW(SlotAggregator{window});
}

TEST(SlotAggregator, RejectsOutOfSequenceTicksLeavingStateUnchanged)
{
    SlotAggregator fresh(kWeek);
    // The first tick may be any non-negative slot start.
    for (sim::Tick t : {-kSlot, sim::Tick{-1}, kSlot + 1, kDay - 7})
        EXPECT_THROW(fresh.add(t, 1.0), std::invalid_argument)
            << "first tick " << t;
    EXPECT_TRUE(fresh.empty());

    // Every later one must be the next slot: positions stand in for
    // ticks, so a gap, a repeat or a step back would misfile every
    // sample after it.
    const auto history = randomHistory(78, 3 * kDay, 100);
    auto agg = aggregate(history, kDay);
    for (auto strategy : kAllStrategies)
        (void)agg.build(strategy);
    const std::uint64_t version = agg.version();
    const std::uint64_t rebuilds = agg.rebuildCount();
    const sim::Tick next = history.end();
    const sim::Tick bad[] = {-kSlot,       next + 1,
                             next - 1,     next + kSlot,
                             next - kSlot, history.start(),
                             0};
    for (sim::Tick t : bad) {
        EXPECT_THROW(agg.add(t, 250.0), std::invalid_argument)
            << "tick " << t;
    }
    EXPECT_EQ(agg.version(), version);
    EXPECT_EQ(agg.sampleCount(), history.size());
    // Templates are unchanged and still cached.
    expectMatchesBatch(agg, history);
    EXPECT_EQ(agg.rebuildCount(), rebuilds);

    agg.add(next, 250.0);
    EXPECT_EQ(agg.sampleCount(), history.size() + 1);

    // clear() forgets the sequence: any slot start may begin anew.
    agg.clear();
    agg.add(kSlot, 1.0);
    agg.add(2 * kSlot, 2.0);
    EXPECT_EQ(agg.sampleCount(), 2u);
}

TEST(SlotAggregator, LatestIsTheNewestSampleInEveryMode)
{
    // The sOA's gap-fill repeats latest(), so it must track the
    // newest sample through window evictions, down to a one-slot
    // window that evicts on every add after the first.
    const auto history =
        randomHistory(91, 2 * kDay, sim::kSlotsPerWeek + 50);
    for (sim::Tick window : {kSlot, kDay, kWeek}) {
        SlotAggregator agg(window);
        EXPECT_THROW((void)agg.latest(), std::logic_error);
        for (std::size_t i = 0; i < history.size(); ++i) {
            agg.add(history.timeOf(i), history.at(i));
            ASSERT_EQ(agg.latest(), history.at(i))
                << "window " << window << " sample " << i;
        }
        agg.clear();
        EXPECT_THROW((void)agg.latest(), std::logic_error);
    }
}

TEST(ProfileTemplateEquality, DetectsEveryFieldDifference)
{
    const auto history = randomHistory(51, 0, sim::kSlotsPerDay * 9);
    for (auto strategy : kAllStrategies) {
        const auto a = ProfileTemplate::build(strategy, history);
        const auto b = ProfileTemplate::build(strategy, history);
        EXPECT_TRUE(a == b);
    }
    const auto med =
        ProfileTemplate::build(TemplateStrategy::FlatMed, history);
    const auto max =
        ProfileTemplate::build(TemplateStrategy::FlatMax, history);
    EXPECT_TRUE(med != max);
    EXPECT_TRUE(ProfileTemplate::flat(1.0) !=
                ProfileTemplate::flat(2.0));
}
