/** @file Unit and property tests for the power/voltage/thermal model. */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "power/power_model.hh"

using namespace soc::power;

TEST(PowerModel, CalibratedToTdpAtTurbo)
{
    const PowerModel model;
    const auto &p = model.params();
    EXPECT_NEAR(model.serverPower(1.0, kTurboMHz).count(),
                p.tdpWatts.count(), 1e-6);
}

TEST(PowerModel, IdleServerDrawsIdlePower)
{
    const PowerModel model;
    EXPECT_NEAR(model.serverPower(0.0, kTurboMHz, 0).count(),
                model.params().idleWatts.count(), 1e-9);
}

TEST(PowerModel, VoltageMonotoneInFrequency)
{
    const PowerModel model;
    double prev = 0.0;
    for (FreqMHz f = kMinMHz; f <= kOverclockMHz; f += kStepMHz) {
        const double v = model.voltage(f);
        EXPECT_GE(v, prev) << "f=" << f;
        prev = v;
    }
}

TEST(PowerModel, VoltageAnchors)
{
    const PowerModel model;
    EXPECT_NEAR(model.voltage(kTurboMHz), 1.10, 1e-9);
    EXPECT_NEAR(model.voltage(kBaseMHz), 0.95, 1e-9);
    // 700 MHz beyond turbo at 0.5 V/GHz = +0.35 V.
    EXPECT_NEAR(model.voltage(kOverclockMHz), 1.45, 1e-9);
}

TEST(PowerModel, VoltageSteeperBeyondTurbo)
{
    const PowerModel model;
    const double below = model.voltage(kTurboMHz) -
        model.voltage(kTurboMHz - FreqMHz{500});
    const double above = model.voltage(kTurboMHz + FreqMHz{500}) -
        model.voltage(kTurboMHz);
    EXPECT_GT(above, below);
}

TEST(PowerModel, CorePowerMonotoneInUtilAndFreq)
{
    const PowerModel model;
    EXPECT_LT(model.corePower(0.2, kTurboMHz),
              model.corePower(0.8, kTurboMHz));
    EXPECT_LT(model.corePower(0.5, kTurboMHz),
              model.corePower(0.5, kOverclockMHz));
}

TEST(PowerModel, ActivityFloorMakesSpreadingCostly)
{
    // Two cores at 50% must draw more than one core at 100% plus one
    // at 0% would *if power were linear*; with the activity floor
    // they draw more than one fully-busy core alone.
    const PowerModel model;
    const Watts spread = 2.0 * model.corePower(0.5, kTurboMHz);
    const Watts packed = model.corePower(1.0, kTurboMHz) +
        model.corePower(0.0, kTurboMHz);
    EXPECT_NEAR(spread.count(), packed.count(),
                1e-9); // linear in util per core...
    // ...but a fully idle core still draws the floor:
    EXPECT_GT(model.corePower(0.0, kTurboMHz), Watts{0.0});
}

TEST(PowerModel, OverclockExtraPowerPositiveAndScalesWithCores)
{
    const PowerModel model;
    const Watts one = model.overclockExtraPower(0.8, kOverclockMHz,
                                                1);
    EXPECT_GT(one, Watts{0.0});
    EXPECT_NEAR(
        model.overclockExtraPower(0.8, kOverclockMHz, 5).count(),
        (5.0 * one).count(), 1e-9);
}

TEST(PowerModel, NoExtraPowerAtOrBelowTurbo)
{
    const PowerModel model;
    EXPECT_EQ(model.overclockExtraPower(0.9, kTurboMHz, 8),
              Watts{0.0});
    EXPECT_EQ(model.overclockExtraPower(0.9, kBaseMHz, 8),
              Watts{0.0});
}

TEST(PowerModel, OverclockExtraPowerPerCoreIsMeaningful)
{
    // §IV-C's example implies a handful of watts per overclocked
    // core; verify the calibration is in that ballpark (2-12 W).
    const PowerModel model;
    const Watts extra =
        model.overclockExtraPower(0.9, kOverclockMHz, 1);
    EXPECT_GT(extra, Watts{2.0});
    EXPECT_LT(extra, Watts{12.0});
}

TEST(PowerModel, TemperatureRisesWithActivity)
{
    const PowerModel model;
    const Celsius idle = model.temperature(0.0, kTurboMHz);
    const Celsius busy = model.temperature(1.0, kTurboMHz);
    const Celsius oc = model.temperature(1.0, kOverclockMHz);
    EXPECT_LT(idle, busy);
    EXPECT_LT(busy, oc);
    EXPECT_NEAR(busy.count(),
                (model.params().ambientCelsius +
                 model.params().thermalRangeCelsius).count(),
                1e-9);
}

TEST(PowerModel, MaxFrequencyWithinBudget)
{
    const PowerModel model;
    const FrequencyLadder ladder;
    // A huge budget allows the ceiling.
    EXPECT_EQ(model.maxFrequencyWithin(0.5, 64, Watts{1e6}, ladder),
              kOverclockMHz);
    // A tiny budget pins at the floor.
    EXPECT_EQ(model.maxFrequencyWithin(1.0, 64, Watts{1.0}, ladder),
              kMinMHz);
    // Budgets in between give something in between and the result
    // actually fits.
    const FreqMHz f = model.maxFrequencyWithin(0.8, 64, Watts{380.0},
                                               ladder);
    EXPECT_GT(f, kMinMHz);
    EXPECT_LT(f, kOverclockMHz);
    EXPECT_LE(model.serverPower(0.8, f, 64), Watts{380.0});
}

TEST(FrequencyLadder, StepAndClamp)
{
    FrequencyLadder ladder;
    EXPECT_EQ(ladder.up(kTurboMHz), kTurboMHz + kStepMHz);
    EXPECT_EQ(ladder.up(kOverclockMHz), kOverclockMHz);
    EXPECT_EQ(ladder.down(kMinMHz), kMinMHz);
    EXPECT_EQ(ladder.clamp(FreqMHz{99999}), kOverclockMHz);
    EXPECT_EQ(ladder.clamp(FreqMHz{1}), kMinMHz);
    EXPECT_TRUE(
        FrequencyLadder::isOverclocked(kTurboMHz + kStepMHz));
    EXPECT_FALSE(FrequencyLadder::isOverclocked(kTurboMHz));
}

/** Property: server power is monotone in utilization for any freq. */
class PowerMonotoneProperty
    : public ::testing::TestWithParam<int>
{
};

TEST_P(PowerMonotoneProperty, MonotoneInUtil)
{
    const PowerModel model;
    const FreqMHz f{GetParam()};
    Watts prev{-1.0};
    for (double u = 0.0; u <= 1.0; u += 0.1) {
        const Watts p = model.serverPower(u, f);
        EXPECT_GT(p, prev);
        prev = p;
    }
}

INSTANTIATE_TEST_SUITE_P(Ladder, PowerMonotoneProperty,
                         ::testing::Values(1600, 2400, 3000, 3300,
                                           3600, 4000));

TEST(PowerModel, RejectsNoCoresAndTdpNotAboveIdle)
{
    PowerModelParams p;
    p.cores = 0;
    EXPECT_THROW(PowerModel{p}, std::invalid_argument);
    p.cores = -4;
    EXPECT_THROW(PowerModel{p}, std::invalid_argument);
    p = PowerModelParams{};
    p.tdpWatts = p.idleWatts;
    EXPECT_THROW(PowerModel{p}, std::invalid_argument);
    p.tdpWatts = Watts{std::nan("")};
    EXPECT_THROW(PowerModel{p}, std::invalid_argument);
    p = PowerModelParams{};
    p.idleWatts = Watts{std::nan("")};
    EXPECT_THROW(PowerModel{p}, std::invalid_argument);
    EXPECT_NO_THROW(PowerModel{PowerModelParams{}});
}
