/** @file Unit tests for prediction-based admission control (§IV-B). */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/admission.hh"

using namespace soc;
using namespace soc::core;
using sim::kMinute;
using sim::kHour;

namespace
{

const power::PowerModel &
model()
{
    static const power::PowerModel instance;
    return instance;
}

OverclockRequest
request(int cores = 8, TriggerKind trigger = TriggerKind::Metrics)
{
    OverclockRequest r;
    r.groupId = 1;
    r.cores = cores;
    r.desiredMHz = power::kOverclockMHz;
    r.trigger = trigger;
    r.duration = 30 * kMinute;
    return r;
}

} // namespace

TEST(Admission, GrantsWithAmpleBudget)
{
    AdmissionController admission(model());
    OverclockBudget lifetime(sim::kWeek, 0.5, 64);
    ProfileTemplate budget = ProfileTemplate::flat(500.0);
    AdmissionInputs in;
    in.now = 0;
    in.measuredWatts = power::Watts{250.0};
    in.budget = &budget;
    in.lifetime = &lifetime;
    const auto decision = admission.decide(request(), in);
    EXPECT_TRUE(decision.granted);
    EXPECT_EQ(decision.grantedUntil, 30 * kMinute);
    EXPECT_EQ(decision.reason, AdmissionReason::Ok);
}

TEST(Admission, RejectsWhenPowerBudgetTight)
{
    AdmissionController admission(model());
    OverclockBudget lifetime(sim::kWeek, 0.5, 64);
    ProfileTemplate budget = ProfileTemplate::flat(300.0);
    AdmissionInputs in;
    in.now = 0;
    in.measuredWatts = power::Watts{298.0}; // surcharge cannot fit
    in.budget = &budget;
    in.lifetime = &lifetime;
    const auto decision = admission.decide(request(), in);
    EXPECT_FALSE(decision.granted);
    EXPECT_EQ(decision.reason,
              AdmissionReason::PowerBudgetInsufficient);
}

TEST(Admission, ExplorationBonusUnblocksPower)
{
    AdmissionController admission(model());
    OverclockBudget lifetime(sim::kWeek, 0.5, 64);
    ProfileTemplate budget = ProfileTemplate::flat(300.0);
    AdmissionInputs in;
    in.now = 0;
    in.measuredWatts = power::Watts{298.0};
    in.budget = &budget;
    in.lifetime = &lifetime;
    in.bonusWatts = power::Watts{60.0};
    EXPECT_TRUE(admission.decide(request(), in).granted);
}

TEST(Admission, PowerCheckDisabledGrantsAnyway)
{
    AdmissionConfig cfg;
    cfg.checkPower = false;
    AdmissionController admission(model(), cfg);
    OverclockBudget lifetime(sim::kWeek, 0.5, 64);
    ProfileTemplate budget = ProfileTemplate::flat(10.0);
    AdmissionInputs in;
    in.now = 0;
    in.measuredWatts = power::Watts{1000.0};
    in.budget = &budget;
    in.lifetime = &lifetime;
    EXPECT_TRUE(admission.decide(request(), in).granted);
}

TEST(Admission, ScheduleRequestReservesLifetime)
{
    AdmissionController admission(model());
    OverclockBudget lifetime(sim::kWeek, 0.5, 64);
    ProfileTemplate budget = ProfileTemplate::flat(1000.0);
    AdmissionInputs in;
    in.now = 0;
    in.measuredWatts = power::Watts{200.0};
    in.budget = &budget;
    in.lifetime = &lifetime;
    const auto req = request(8, TriggerKind::Schedule);
    const auto before = lifetime.remaining(0);
    ASSERT_TRUE(admission.decide(req, in).granted);
    EXPECT_EQ(lifetime.remaining(0),
              before - req.duration * req.cores);
}

TEST(Admission, ScheduleRejectedWhenLifetimeShort)
{
    AdmissionController admission(model());
    OverclockBudget lifetime(sim::kWeek, 0.0001, 64);
    ProfileTemplate budget = ProfileTemplate::flat(1000.0);
    AdmissionInputs in;
    in.now = 0;
    in.measuredWatts = power::Watts{200.0};
    in.budget = &budget;
    in.lifetime = &lifetime;
    const auto decision =
        admission.decide(request(32, TriggerKind::Schedule), in);
    EXPECT_FALSE(decision.granted);
    EXPECT_EQ(decision.reason,
              AdmissionReason::OverclockBudgetInsufficient);
}

TEST(Admission, MetricsGrantTruncatedByLifetime)
{
    AdmissionController admission(model());
    // Tiny budget: 0.1% of a week for 64 cores.
    OverclockBudget lifetime(sim::kWeek, 0.001, 64);
    ProfileTemplate budget = ProfileTemplate::flat(1000.0);
    AdmissionInputs in;
    in.now = 0;
    in.measuredWatts = power::Watts{200.0};
    in.budget = &budget;
    in.lifetime = &lifetime;
    auto req = request(8);
    req.duration = 10 * kHour;
    const auto decision = admission.decide(req, in);
    ASSERT_TRUE(decision.granted);
    const sim::Tick sustain = lifetime.remaining(0) / 8;
    EXPECT_EQ(decision.grantedUntil, sustain);
    EXPECT_LT(decision.grantedUntil, req.duration);
}

TEST(Admission, MetricsRejectedWhenLifetimeExhausted)
{
    AdmissionController admission(model());
    OverclockBudget lifetime(sim::kWeek, 0.5, 64);
    lifetime.consume(lifetime.remaining(0), 0);
    ProfileTemplate budget = ProfileTemplate::flat(1000.0);
    AdmissionInputs in;
    in.now = 0;
    in.measuredWatts = power::Watts{200.0};
    in.budget = &budget;
    in.lifetime = &lifetime;
    const auto decision = admission.decide(request(), in);
    EXPECT_FALSE(decision.granted);
    EXPECT_EQ(decision.reason,
              AdmissionReason::OverclockBudgetExhausted);
}

TEST(Admission, LookAheadCutsGrantAtPredictedViolation)
{
    AdmissionController admission(model());
    OverclockBudget lifetime(sim::kWeek, 0.5, 64);
    // Budget 500 W flat; the server's own power template shows a
    // jump to 480 W one hour from now.
    ProfileTemplate budget = ProfileTemplate::flat(500.0);
    std::vector<double> own(sim::kSlotsPerWeek, 250.0);
    const int jump_slot = static_cast<int>(kHour / sim::kSlot);
    for (int s = jump_slot; s < sim::kSlotsPerWeek; ++s)
        own[s] = 480.0;
    ProfileTemplate own_power = ProfileTemplate::fromWeekly(own);

    AdmissionInputs in;
    in.now = 0;
    in.measuredWatts = power::Watts{250.0};
    in.budget = &budget;
    in.serverPower = &own_power;
    in.lifetime = &lifetime;
    auto req = request(8);
    req.duration = 5 * kHour;
    const auto decision = admission.decide(req, in);
    ASSERT_TRUE(decision.granted);
    EXPECT_LE(decision.grantedUntil, kHour);
    EXPECT_GT(decision.grantedUntil, 0);
}

TEST(Admission, SurchargeUsesWorstCaseUtil)
{
    AdmissionConfig cfg;
    cfg.worstCaseUtil = 0.75;
    AdmissionController admission(model(), cfg);
    const auto req = request(8);
    EXPECT_NEAR(admission.surchargeWatts(req).count(),
                model().overclockExtraPower(0.75,
                                            power::kOverclockMHz, 8)
                    .count(),
                1e-9);
}

TEST(Admission, NullBudgetSkipsPowerCheck)
{
    AdmissionController admission(model());
    OverclockBudget lifetime(sim::kWeek, 0.5, 64);
    AdmissionInputs in;
    in.now = 0;
    in.measuredWatts = power::Watts{1e9};
    in.budget = nullptr; // bootstrap: no assignment yet
    in.lifetime = &lifetime;
    EXPECT_TRUE(admission.decide(request(), in).granted);
}

TEST(Admission, ReasonNamesAreDistinct)
{
    // Logs print reasons by name: every reason has its own.
    std::set<std::string> names;
    for (int r = 0;
         r <= static_cast<int>(AdmissionReason::OracleFits); ++r)
        names.insert(
            admissionReasonName(static_cast<AdmissionReason>(r)));
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(AdmissionReason::OracleFits) + 1);
    EXPECT_EQ(names.count("unknown"), 0u);
    EXPECT_STREQ(
        admissionReasonName(AdmissionReason::PowerBudgetInsufficient),
        "power budget insufficient");
}
