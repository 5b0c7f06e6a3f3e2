/** @file Unit and property tests for profile templates (Fig. 15). */

#include <gtest/gtest.h>

#include "core/profile_template.hh"
#include "workload/trace_generator.hh"

using namespace soc;
using namespace soc::core;
using telemetry::TimeSeries;
using sim::kSlot;
using sim::kDay;
using sim::kWeek;

namespace
{

/** Two weeks of telemetry: weekdays at `hi` 9am-5pm else `lo`;
 *  weekends flat at `weekend`. */
TimeSeries
syntheticHistory(double lo, double hi, double weekend)
{
    TimeSeries s(0, kSlot);
    for (sim::Tick t = 0; t < 2 * kWeek; t += kSlot) {
        if (sim::isWeekend(t)) {
            s.append(weekend);
        } else {
            const double h = sim::hourOfDay(t);
            s.append(h >= 9.0 && h < 17.0 ? hi : lo);
        }
    }
    return s;
}

} // namespace

TEST(ProfileTemplate, FlatMedPredictsMedian)
{
    TimeSeries s(0, kSlot, {1.0, 2.0, 3.0, 4.0, 100.0});
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::FlatMed, s);
    EXPECT_EQ(tmpl.predict(0), 3.0);
    EXPECT_EQ(tmpl.predict(5 * kWeek), 3.0);
}

TEST(ProfileTemplate, FlatMaxPredictsMax)
{
    TimeSeries s(0, kSlot, {1.0, 2.0, 100.0, 4.0});
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::FlatMax, s);
    EXPECT_EQ(tmpl.predict(12345678), 100.0);
}

TEST(ProfileTemplate, DailyMedCapturesTimeOfDayStructure)
{
    const auto history = syntheticHistory(100.0, 300.0, 50.0);
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::DailyMed, history);
    // Weekday predictions in week 3 (outside history).
    const sim::Tick monday = 2 * kWeek;
    EXPECT_NEAR(tmpl.predict(monday + 12 * sim::kHour), 300.0, 1e-9);
    EXPECT_NEAR(tmpl.predict(monday + 3 * sim::kHour), 100.0, 1e-9);
    // Weekend predictions use the weekend template.
    EXPECT_NEAR(tmpl.predict(monday + 5 * kDay + 12 * sim::kHour),
                50.0, 1e-9);
}

TEST(ProfileTemplate, DailyMedRobustToSingleOutlierDay)
{
    auto history = syntheticHistory(100.0, 300.0, 50.0);
    // Corrupt one whole weekday (say Wednesday of week 1) with a
    // holiday-like collapse.
    for (sim::Tick t = 2 * kDay; t < 3 * kDay; t += kSlot)
        history.set(history.indexOf(t), 10.0);
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::DailyMed, history);
    // Median across 10 weekdays ignores the single bad day.
    EXPECT_NEAR(tmpl.predict(2 * kWeek + 12 * sim::kHour), 300.0,
                1e-9);
}

TEST(ProfileTemplate, DailyMaxIsConservative)
{
    const auto history = syntheticHistory(100.0, 300.0, 50.0);
    const auto med = ProfileTemplate::build(
        TemplateStrategy::DailyMed, history);
    const auto max = ProfileTemplate::build(
        TemplateStrategy::DailyMax, history);
    for (sim::Tick t = 0; t < kDay; t += sim::kHour) {
        EXPECT_GE(max.predict(t), med.predict(t));
    }
}

TEST(ProfileTemplate, WeeklyReplaysLastWeek)
{
    TimeSeries history(0, kSlot);
    // Week 1: constant 100.  Week 2: constant 200.
    for (sim::Tick t = 0; t < kWeek; t += kSlot)
        history.append(100.0);
    for (sim::Tick t = 0; t < kWeek; t += kSlot)
        history.append(200.0);
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::Weekly, history);
    // The most recent week's value wins for every slot.
    EXPECT_EQ(tmpl.predict(2 * kWeek + 3 * kDay), 200.0);
}

TEST(ProfileTemplate, EmptyHistoryPredictsZero)
{
    TimeSeries empty(0, kSlot);
    for (auto strategy :
         {TemplateStrategy::FlatMed, TemplateStrategy::FlatMax,
          TemplateStrategy::Weekly, TemplateStrategy::DailyMed,
          TemplateStrategy::DailyMax}) {
        const auto tmpl = ProfileTemplate::build(strategy, empty);
        EXPECT_EQ(tmpl.predict(kDay), 0.0);
    }
}

TEST(ProfileTemplate, FlatAndFromWeeklyConstructors)
{
    const auto flat = ProfileTemplate::flat(42.0);
    EXPECT_EQ(flat.predict(0), 42.0);
    EXPECT_EQ(flat.predict(9 * kWeek), 42.0);

    std::vector<double> weekly(sim::kSlotsPerWeek, 1.0);
    weekly[10] = 99.0;
    const auto tmpl = ProfileTemplate::fromWeekly(std::move(weekly));
    EXPECT_EQ(tmpl.predict(10 * kSlot), 99.0);
    EXPECT_EQ(tmpl.predict(kWeek + 10 * kSlot), 99.0);
    EXPECT_EQ(tmpl.predict(11 * kSlot), 1.0);
}

TEST(ProfileTemplate, WeeklyConstructorsRejectWrongLength)
{
    // Checked in every build: fillWeek copies the whole vector into
    // a week-sized buffer and predict indexes it by slot-of-week.
    std::vector<double> week(sim::kSlotsPerWeek, 7.0);
    week[3] = 11.0;
    for (std::size_t n : {std::size_t{0},
                          std::size_t{sim::kSlotsPerWeek - 1},
                          std::size_t{sim::kSlotsPerWeek + 1}}) {
        const std::vector<double> values(n, 5.0);
        EXPECT_THROW(ProfileTemplate::fromWeekly(values),
                     std::invalid_argument)
            << n << " values";
        for (auto tmpl : {ProfileTemplate::flat(3.0),
                          ProfileTemplate::fromWeekly(week)}) {
            const ProfileTemplate before = tmpl;
            EXPECT_THROW(tmpl.assignWeekly(values),
                         std::invalid_argument)
                << n << " values";
            EXPECT_TRUE(tmpl == before) << n << " values";
        }
    }
}

TEST(ProfileTemplate, PeakReflectsLargestPrediction)
{
    const auto history = syntheticHistory(100.0, 300.0, 50.0);
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::DailyMed, history);
    EXPECT_NEAR(tmpl.peak(), 300.0, 1e-9);
}

TEST(ProfileTemplate, RmseZeroForPerfectlyPeriodicSignal)
{
    const auto history = syntheticHistory(100.0, 300.0, 50.0);
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::DailyMed, history);
    EXPECT_NEAR(tmpl.rmseAgainst(history), 0.0, 1e-9);
}

TEST(ProfileTemplate, BiasSignConventions)
{
    TimeSeries actual(0, kSlot, std::vector<double>(288, 100.0));
    const auto over = ProfileTemplate::flat(150.0);
    const auto under = ProfileTemplate::flat(60.0);
    EXPECT_GT(over.biasAgainst(actual), 0.0);
    EXPECT_LT(under.biasAgainst(actual), 0.0);
}

/**
 * Property (Fig. 15's headline): on realistic traces, DailyMed beats
 * FlatMed, FlatMax and Weekly in RMSE on the following week.
 */
class StrategyAccuracy : public ::testing::TestWithParam<int>
{
};

TEST_P(StrategyAccuracy, DailyMedWins)
{
    workload::TraceConfig cfg;
    cfg.end = 3 * kWeek;
    workload::TraceGenerator gen(500 + GetParam(), cfg);
    const power::PowerModel model;
    const auto trace = gen.serverTrace(gen.randomVmMix(64), model);
    const auto history = trace.powerWatts.slice(0, 2 * kWeek);
    const auto future =
        trace.powerWatts.slice(2 * kWeek, 3 * kWeek);

    auto rmse_of = [&](TemplateStrategy strategy) {
        return ProfileTemplate::build(strategy, history)
            .rmseAgainst(future);
    };
    const double daily_med = rmse_of(TemplateStrategy::DailyMed);
    EXPECT_LT(daily_med, rmse_of(TemplateStrategy::FlatMed));
    EXPECT_LT(daily_med, rmse_of(TemplateStrategy::FlatMax));
    EXPECT_LT(daily_med,
              rmse_of(TemplateStrategy::Weekly) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyAccuracy,
                         ::testing::Range(0, 6));

TEST(ProfileTemplate, StrategyNames)
{
    EXPECT_EQ(strategyName(TemplateStrategy::DailyMed), "DailyMed");
    EXPECT_EQ(strategyName(TemplateStrategy::FlatMax), "FlatMax");
}
