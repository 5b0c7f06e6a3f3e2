/** @file Unit and calibration tests for the lifetime/aging module. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/lifetime.hh"

using namespace soc;
using namespace soc::core;
using sim::kDay;
using sim::kHour;
using sim::kWeek;
using sim::Tick;

namespace
{

const power::PowerModel &
model()
{
    static const power::PowerModel instance;
    return instance;
}

} // namespace

TEST(LifetimeModel, RatedAnchorAtFullTurboUtilization)
{
    const LifetimeModel lm(model());
    EXPECT_NEAR(lm.agingRate(1.0, power::kTurboMHz), 1.0, 1e-9);
}

TEST(LifetimeModel, UnderUtilizationAccruesCredits)
{
    // §III-Q2: conservative fleet usage ages ~2.5y over 5y, i.e.
    // the rate sits around 0.5 at moderate utilization.
    const LifetimeModel lm(model());
    const double fleet = lm.agingRate(0.55, power::kTurboMHz);
    EXPECT_GT(fleet, 0.3);
    EXPECT_LT(fleet, 0.7);
}

TEST(LifetimeModel, OverclockAcceleratesWearSuperlinearly)
{
    const LifetimeModel lm(model());
    const double turbo = lm.agingRate(0.5, power::kTurboMHz);
    const double oc = lm.agingRate(0.5, power::kOverclockMHz);
    EXPECT_GT(oc / turbo, 4.0); // exponential voltage acceleration
}

TEST(LifetimeModel, Fig7AlwaysOverclockAnchor)
{
    // Fig. 7: at diurnal utilization (~0.35 mean), always-overclock
    // ages the part by "over 10 days" in a 5-day window (>2x), while
    // the non-overclocked baseline ages "less than 2 days" (<0.4x).
    const LifetimeModel lm(model());
    const double base = lm.agingRate(0.35, power::kTurboMHz);
    const double oc = lm.agingRate(0.35, power::kOverclockMHz);
    EXPECT_LT(base, 0.4);
    EXPECT_GT(oc, 2.0);
}

TEST(LifetimeModel, AgingRateMonotoneInUtilAndFreq)
{
    const LifetimeModel lm(model());
    EXPECT_LT(lm.agingRate(0.2, power::kTurboMHz),
              lm.agingRate(0.9, power::kTurboMHz));
    EXPECT_LT(lm.agingRate(0.5, power::kTurboMHz),
              lm.agingRate(0.5, power::FreqMHz{3600}));
    EXPECT_LT(lm.agingRate(0.5, power::FreqMHz{3600}),
              lm.agingRate(0.5, power::kOverclockMHz));
}

TEST(LifetimeModel, IdleCoresStillAgeALittle)
{
    const LifetimeModel lm(model());
    EXPECT_GT(lm.agingRate(0.0, power::kTurboMHz), 0.0);
}

TEST(LifetimeModel, AgingOverIntegratesRate)
{
    const LifetimeModel lm(model());
    const double rate = lm.agingRate(0.5, power::kTurboMHz);
    EXPECT_NEAR(lm.agingOver(kDay, 0.5, power::kTurboMHz),
                rate * kDay, 1e-3);
}

TEST(LifetimeModel, MaxOverclockDutySolvesBudget)
{
    const LifetimeModel lm(model());
    const double util = 0.35;
    const double duty =
        lm.maxOverclockDuty(util, power::kOverclockMHz, 1.0);
    ASSERT_GT(duty, 0.0);
    ASSERT_LT(duty, 1.0);
    // Verify the blended rate actually meets the budget.
    const double base = lm.agingRate(util, power::kTurboMHz);
    const double oc = lm.agingRate(util, power::kOverclockMHz);
    EXPECT_NEAR(duty * oc + (1.0 - duty) * base, 1.0, 1e-9);
    // Fig. 7's overclock-aware policy lands around 25% duty.
    EXPECT_GT(duty, 0.10);
    EXPECT_LT(duty, 0.45);
}

TEST(LifetimeModel, DutyIsOneWhenBoostIsFree)
{
    const LifetimeModel lm(model());
    // Overclocking to turbo itself costs nothing extra.
    EXPECT_EQ(lm.maxOverclockDuty(0.5, power::kTurboMHz, 10.0), 1.0);
}

TEST(OverclockBudget, AllowanceComputation)
{
    OverclockBudget budget(kWeek, 0.10, 64);
    EXPECT_EQ(budget.allowancePerEpoch(),
              static_cast<Tick>(0.10 * kWeek) * 64);
    EXPECT_EQ(budget.remaining(0), budget.allowancePerEpoch());
}

TEST(OverclockBudget, RejectsInvalidInputsInEveryBuild)
{
    // A zero epoch used to divide by zero at the first roll, and a
    // fraction above 1 granted more time than an epoch has.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(OverclockBudget(0, 0.10, 64), std::invalid_argument);
    EXPECT_THROW(OverclockBudget(-kWeek, 0.10, 64),
                 std::invalid_argument);
    EXPECT_THROW(OverclockBudget(kWeek, 1.5, 64), std::invalid_argument);
    EXPECT_THROW(OverclockBudget(kWeek, -0.1, 64),
                 std::invalid_argument);
    EXPECT_THROW(OverclockBudget(kWeek, nan, 64), std::invalid_argument);
    EXPECT_THROW(OverclockBudget(kWeek, 0.10, 0), std::invalid_argument);
    // The closed interval's ends are valid.
    EXPECT_EQ(OverclockBudget(kWeek, 0.0, 1).allowancePerEpoch(), 0);
    EXPECT_EQ(OverclockBudget(kWeek, 1.0, 1).allowancePerEpoch(), kWeek);
}

TEST(OverclockBudget, ConsumeReducesRemaining)
{
    OverclockBudget budget(kWeek, 0.10, 64);
    const Tick before = budget.remaining(0);
    budget.consume(1000 * sim::kSecond, 0);
    EXPECT_EQ(budget.remaining(0), before - 1000 * sim::kSecond);
    EXPECT_EQ(budget.totalConsumed(), 1000 * sim::kSecond);
}

TEST(OverclockBudget, ClampsAtZeroAndTracksOverdraft)
{
    OverclockBudget budget(kDay, 0.01, 1);
    budget.consume(kDay, 0); // way beyond the 1% allowance
    EXPECT_EQ(budget.remaining(0), 0);
    EXPECT_GT(budget.overdraft(), 0);
}

TEST(OverclockBudget, ReservationBlocksAndReleases)
{
    OverclockBudget budget(kWeek, 0.10, 4);
    const Tick all = budget.remaining(0);
    EXPECT_TRUE(budget.tryReserve(all, 0));
    EXPECT_EQ(budget.remaining(0), 0);
    EXPECT_FALSE(budget.tryReserve(1, 0));
    budget.release(all / 2, 0);
    EXPECT_EQ(budget.remaining(0), all / 2);
}

TEST(OverclockBudget, EpochRollRestoresAllowance)
{
    OverclockBudget budget(kDay, 0.10, 1, /*carryover_cap=*/0.0);
    budget.consume(budget.remaining(0), 0);
    EXPECT_EQ(budget.remaining(0), 0);
    EXPECT_EQ(budget.remaining(kDay + 1), budget.allowancePerEpoch());
}

TEST(OverclockBudget, UnusedBudgetCarriesOverCapped)
{
    OverclockBudget budget(kDay, 0.10, 1, /*carryover_cap=*/1.0);
    // Consume nothing in epoch 0; epoch 1 gets allowance + carry.
    EXPECT_EQ(budget.remaining(kDay + 1),
              2 * budget.allowancePerEpoch());
    // Carry is capped: epoch 2 cannot triple.
    EXPECT_EQ(budget.remaining(2 * kDay + 1),
              2 * budget.allowancePerEpoch());
}

TEST(OverclockBudget, ReservationsDoNotSurviveEpochs)
{
    OverclockBudget budget(kDay, 0.10, 1, 0.0);
    ASSERT_TRUE(budget.tryReserve(budget.remaining(0), 0));
    EXPECT_EQ(budget.reserved(kDay + 1), 0);
}

TEST(OverclockBudget, TimeToExhaustion)
{
    OverclockBudget budget(kWeek, 0.10, 10);
    const Tick remaining = budget.remaining(0);
    EXPECT_EQ(budget.timeToExhaustion(0, 10.0), remaining / 10);
    EXPECT_GT(budget.timeToExhaustion(0, 0.0),
              Tick{1} << 60); // effectively never
}

TEST(WearJournal, RejectsInvalidInputsInEveryBuild)
{
    EXPECT_THROW(WearJournal(0, kWeek), std::invalid_argument);
    EXPECT_THROW(WearJournal(-1, kWeek), std::invalid_argument);
    // Core indices are 16-bit.
    EXPECT_THROW(WearJournal(65537, kWeek), std::invalid_argument);
    EXPECT_THROW(WearJournal(64, 0), std::invalid_argument);
    EXPECT_NO_THROW(WearJournal(65536, kWeek));
}

TEST(WearJournal, CoreSetEntryMatchesPerCoreEntries)
{
    // One entry for a whole core set replays exactly like one entry
    // per core.
    const Tick epoch = 1000;
    WearJournal per_core(4, epoch);
    WearJournal per_set(4, epoch);
    const std::vector<std::uint16_t> set = {3, 0, 2};
    for (const Tick at : {Tick{10}, Tick{700}, Tick{1500}}) {
        for (const std::uint16_t core : set)
            per_core.append(core, 25, at);
        per_set.append(set, 25, at);
    }
    per_set.append(std::vector<std::uint16_t>{}, 25, 1600);
    per_set.append(set, 0, 1600);
    EXPECT_EQ(per_set.appends(), 3u);
    EXPECT_EQ(per_core.appends(), 9u);
    EXPECT_EQ(per_set.totalCoreTime(), per_core.totalCoreTime());
    for (const Tick now : {Tick{1700}, Tick{2500}}) {
        OverclockBudget a(epoch, 0.5, 4);
        OverclockBudget b(epoch, 0.5, 4);
        std::vector<Tick> used_a(4, 0);
        std::vector<Tick> used_b(4, 0);
        per_core.replay(a, used_a, now);
        per_set.replay(b, used_b, now);
        EXPECT_EQ(a.remaining(now), b.remaining(now));
        EXPECT_EQ(used_a, used_b);
    }
}

/** Property sweep: duty solution is monotone in the budget rate. */
class DutyProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(DutyProperty, MonotoneInBudget)
{
    const LifetimeModel lm(model());
    const double util = GetParam();
    double prev = -1.0;
    for (double budget = 0.2; budget <= 2.0; budget += 0.3) {
        const double duty = lm.maxOverclockDuty(
            util, power::kOverclockMHz, budget);
        EXPECT_GE(duty, prev);
        prev = duty;
    }
}

INSTANTIATE_TEST_SUITE_P(Utils, DutyProperty,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));
