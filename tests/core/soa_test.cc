/** @file Behavioural tests for the Server Overclocking Agent. */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "core/soa.hh"
#include "telemetry/time_series.hh"

using namespace soc;
using namespace soc::core;
using sim::kMinute;
using sim::kSecond;
using sim::Tick;

namespace
{

const power::PowerModel &
model()
{
    static const power::PowerModel instance;
    return instance;
}

struct Fixture {
    power::Rack rack{0, power::Watts{2000.0}};
    power::Server *server;
    std::unique_ptr<ServerOverclockingAgent> soa;
    power::GroupId vm;

    explicit Fixture(SoaConfig cfg = {}, double util = 0.6)
    {
        server = &rack.addServer(&model());
        vm = server->addGroup(8, util, power::kTurboMHz, 1);
        soa = std::make_unique<ServerOverclockingAgent>(
            *server, cfg, &rack);
    }

    OverclockRequest
    makeRequest(Tick duration = 20 * kMinute) const
    {
        OverclockRequest r;
        r.groupId = vm;
        r.cores = 8;
        r.desiredMHz = power::kOverclockMHz;
        r.trigger = TriggerKind::Metrics;
        r.duration = duration;
        r.priority = 1;
        return r;
    }

    /** Run control ticks from `from` to `to`. */
    void
    run(Tick from, Tick to, Tick step = 5 * kSecond)
    {
        for (Tick t = from; t <= to; t += step)
            soa->tick(t);
    }
};

} // namespace

TEST(Soa, GrantsAndRampsToDesiredFrequency)
{
    Fixture fx;
    fx.soa->assignBudget(ProfileTemplate::flat(600.0));
    const auto decision =
        fx.soa->requestOverclock(fx.makeRequest(), 0);
    ASSERT_TRUE(decision.granted);
    EXPECT_TRUE(fx.soa->isOverclockActive(fx.vm));

    fx.run(0, 2 * kMinute);
    EXPECT_EQ(fx.server->group(fx.vm)->effectiveMHz(),
              power::kOverclockMHz);
}

TEST(Soa, FeedbackHoldsWithinBudget)
{
    SoaConfig no_explore;
    no_explore.exploreEnabled = false; // isolate the feedback loop
    Fixture fx(no_explore, /*util=*/0.9);
    // Budget admits the worst-case surcharge (so the request is
    // granted) but the actual ramp at util=0.9 draws more than the
    // 0.75-util estimate, so the feedback loop must stop short of
    // both the budget and the full 4.0 GHz target.
    const power::Watts draw = fx.server->powerWatts();
    const power::Watts surcharge = model().overclockExtraPower(
        0.75, power::kOverclockMHz, 8);
    const power::Watts budget = draw + surcharge + power::Watts{1.0};
    fx.soa->assignBudget(ProfileTemplate::flat(budget.count()));
    ASSERT_TRUE(fx.soa->requestOverclock(fx.makeRequest(), 0)
                    .granted);
    fx.run(0, 2 * kMinute);
    EXPECT_LE(fx.server->powerWatts(),
              budget + power::Watts{1e-9});
    const auto eff = fx.server->group(fx.vm)->effectiveMHz();
    EXPECT_LT(eff, power::kOverclockMHz);
    EXPECT_GT(eff, power::kTurboMHz);
}

TEST(Soa, StopRestoresTurbo)
{
    Fixture fx;
    fx.soa->assignBudget(ProfileTemplate::flat(800.0));
    fx.soa->requestOverclock(fx.makeRequest(), 0);
    fx.run(0, kMinute);
    fx.soa->stopOverclock(fx.vm, kMinute);
    EXPECT_FALSE(fx.soa->isOverclockActive(fx.vm));
    EXPECT_EQ(fx.server->group(fx.vm)->targetMHz, power::kTurboMHz);
}

TEST(Soa, RejectsWhenBudgetTooSmall)
{
    Fixture fx(SoaConfig{}, 0.9);
    fx.soa->assignBudget(ProfileTemplate::flat(
        fx.server->powerWatts().count() + 1.0));
    const auto decision =
        fx.soa->requestOverclock(fx.makeRequest(), 0);
    EXPECT_FALSE(decision.granted);
    EXPECT_EQ(fx.soa->stats().rejects, 1u);
}

TEST(Soa, ReRequestExtendsGrant)
{
    Fixture fx;
    fx.soa->assignBudget(ProfileTemplate::flat(800.0));
    const auto first =
        fx.soa->requestOverclock(fx.makeRequest(10 * kMinute), 0);
    const auto second = fx.soa->requestOverclock(
        fx.makeRequest(30 * kMinute), 5 * kMinute);
    EXPECT_TRUE(second.granted);
    EXPECT_EQ(second.reason, AdmissionReason::Extended);
    EXPECT_GT(second.grantedUntil, first.grantedUntil);
}

TEST(Soa, GrantExpiresNaturally)
{
    Fixture fx;
    fx.soa->assignBudget(ProfileTemplate::flat(800.0));
    fx.soa->requestOverclock(fx.makeRequest(2 * kMinute), 0);
    fx.run(0, 3 * kMinute);
    EXPECT_FALSE(fx.soa->isOverclockActive(fx.vm));
}

TEST(Soa, ExplorationRaisesBonusWhenDeniedForPower)
{
    SoaConfig cfg;
    cfg.warningWindow = 10 * kSecond;
    Fixture fx(cfg, 0.9);
    const double draw = fx.server->powerWatts().count();
    fx.soa->assignBudget(ProfileTemplate::flat(draw + 1.0));
    ASSERT_FALSE(
        fx.soa->requestOverclock(fx.makeRequest(), 0).granted);
    fx.run(0, kMinute);
    EXPECT_GT(fx.soa->explorationBonus(), power::Watts{0.0});
    EXPECT_GT(fx.soa->stats().explorationsStarted, 0u);
    // With the bonus grown, a retry is eventually admitted.
    Tick t = kMinute;
    bool granted = false;
    while (t < 20 * kMinute && !granted) {
        granted =
            fx.soa->requestOverclock(fx.makeRequest(), t).granted;
        fx.soa->tick(t);
        t += 5 * kSecond;
    }
    EXPECT_TRUE(granted);
}

TEST(Soa, WarningWhileExploringBacksOff)
{
    SoaConfig cfg;
    cfg.warningWindow = 10 * kSecond;
    Fixture fx(cfg, 0.9);
    const double draw = fx.server->powerWatts().count();
    fx.soa->assignBudget(ProfileTemplate::flat(draw + 1.0));
    // A 32-core ask needs ~120 W of bonus: the agent is still mid-
    // exploration (bonus ~80 W) when the warning arrives at t=35s.
    auto req = fx.makeRequest();
    req.cores = 32;
    for (Tick t = 0; t <= 35 * kSecond; t += 5 * kSecond) {
        if (!fx.soa->isOverclockActive(fx.vm))
            fx.soa->requestOverclock(req, t);
        fx.soa->tick(t);
    }
    ASSERT_GT(fx.soa->explorationBonus(), power::Watts{0.0});
    const power::Watts bonus = fx.soa->explorationBonus();
    fx.soa->onWarning(35 * kSecond);
    EXPECT_LT(fx.soa->explorationBonus(), bonus);
    EXPECT_EQ(fx.soa->stats().warningsHeeded, 1u);
}

TEST(Soa, NoWarningPolicyIgnoresWarnings)
{
    SoaConfig cfg = SoaConfig::forPolicy(PolicyKind::NoWarning);
    cfg.warningWindow = 10 * kSecond;
    Fixture fx(cfg, 0.9);
    const double draw = fx.server->powerWatts().count();
    fx.soa->assignBudget(ProfileTemplate::flat(draw + 1.0));
    fx.soa->requestOverclock(fx.makeRequest(), 0);
    fx.run(0, 30 * kSecond);
    const power::Watts bonus = fx.soa->explorationBonus();
    ASSERT_GT(bonus, power::Watts{0.0});
    fx.soa->onWarning(30 * kSecond);
    EXPECT_EQ(fx.soa->explorationBonus(), bonus);
    EXPECT_EQ(fx.soa->stats().warningsHeeded, 0u);
}

TEST(Soa, CapEventResetsBonus)
{
    SoaConfig cfg;
    cfg.warningWindow = 10 * kSecond;
    Fixture fx(cfg, 0.9);
    const double draw = fx.server->powerWatts().count();
    fx.soa->assignBudget(ProfileTemplate::flat(draw + 1.0));
    fx.soa->requestOverclock(fx.makeRequest(), 0);
    fx.run(0, kMinute);
    ASSERT_GT(fx.soa->explorationBonus(), power::Watts{0.0});
    fx.soa->onCapEvent(kMinute);
    EXPECT_EQ(fx.soa->explorationBonus(), power::Watts{0.0});
    EXPECT_EQ(fx.soa->stats().capResets, 1u);
}

TEST(Soa, NoFeedbackPolicyNeverExplores)
{
    SoaConfig cfg = SoaConfig::forPolicy(PolicyKind::NoFeedback);
    Fixture fx(cfg, 0.9);
    const double draw = fx.server->powerWatts().count();
    fx.soa->assignBudget(ProfileTemplate::flat(draw + 1.0));
    fx.soa->requestOverclock(fx.makeRequest(), 0);
    fx.run(0, 5 * kMinute);
    EXPECT_EQ(fx.soa->explorationBonus(), power::Watts{0.0});
    EXPECT_EQ(fx.soa->stats().explorationsStarted, 0u);
}

TEST(Soa, NaivePolicyGrantsEverythingInstantly)
{
    SoaConfig cfg = SoaConfig::forPolicy(PolicyKind::NaiveOClock);
    Fixture fx(cfg, 0.95);
    fx.soa->assignBudget(ProfileTemplate::flat(1.0)); // irrelevant
    const auto decision =
        fx.soa->requestOverclock(fx.makeRequest(), 0);
    EXPECT_TRUE(decision.granted);
    EXPECT_EQ(fx.server->group(fx.vm)->targetMHz,
              power::kOverclockMHz);
}

TEST(Soa, CentralOracleChecksRackDraw)
{
    SoaConfig cfg = SoaConfig::forPolicy(PolicyKind::Central);
    Fixture fx(cfg, 0.9);
    // Rack limit just above current draw: the surcharge cannot fit.
    fx.rack.setLimitWatts(fx.rack.powerWatts() + power::Watts{1.0});
    const auto denied =
        fx.soa->requestOverclock(fx.makeRequest(), 0);
    EXPECT_FALSE(denied.granted);
    fx.rack.setLimitWatts(fx.rack.powerWatts() +
                          power::Watts{500.0});
    EXPECT_TRUE(fx.soa->requestOverclock(fx.makeRequest(), 0)
                    .granted);
}

TEST(Soa, LifetimeBudgetConsumedWhileOverclocked)
{
    SoaConfig cfg;
    cfg.budgetEpoch = sim::kDay;
    cfg.overclockFraction = 0.5;
    Fixture fx(cfg);
    fx.soa->assignBudget(ProfileTemplate::flat(900.0));
    const Tick before = fx.soa->lifetimeRemaining(0);
    fx.soa->requestOverclock(fx.makeRequest(), 0);
    fx.run(0, 10 * kMinute);
    const Tick after = fx.soa->lifetimeRemaining(10 * kMinute);
    EXPECT_LT(after, before);
    EXPECT_GT(fx.soa->stats().overclockedCoreTime, 0);
}

TEST(Soa, RevokesWhenLifetimeBudgetExhausted)
{
    SoaConfig cfg;
    cfg.budgetEpoch = sim::kDay;
    // ~2.4 minutes of whole-server budget: with one 8-core VM the
    // per-core allowance runs out quickly and no fresh cores remain
    // forever.
    cfg.overclockFraction = 0.0017;
    Fixture fx(cfg);
    fx.soa->assignBudget(ProfileTemplate::flat(900.0));
    fx.soa->requestOverclock(fx.makeRequest(8 * sim::kHour), 0);
    fx.run(0, 2 * sim::kHour, 30 * kSecond);
    EXPECT_FALSE(fx.soa->isOverclockActive(fx.vm));
    EXPECT_GT(fx.soa->stats().revocations, 0u);
}

TEST(Soa, CoreReschedulingUsesFreshCores)
{
    SoaConfig cfg;
    cfg.budgetEpoch = sim::kDay;
    cfg.overclockFraction = 0.01; // ~14 min per core per day
    Fixture fx(cfg);
    fx.soa->assignBudget(ProfileTemplate::flat(900.0));
    fx.soa->requestOverclock(fx.makeRequest(8 * sim::kHour), 0);
    // After the first core set exhausts (~14 min), the sOA should
    // reschedule to the server's other cores at least once.
    fx.run(0, sim::kHour, 30 * kSecond);
    EXPECT_GT(fx.soa->stats().coreReschedules, 0u);
}

TEST(Soa, ExhaustionSignalEmittedAheadOfBudgetEnd)
{
    SoaConfig cfg;
    cfg.budgetEpoch = sim::kDay;
    cfg.overclockFraction = 0.01;
    cfg.exhaustionWindow = 15 * kMinute;
    Fixture fx(cfg);
    fx.soa->assignBudget(ProfileTemplate::flat(900.0));
    std::vector<ExhaustionSignal> signals;
    fx.soa->setExhaustionCallback(
        [&](const ExhaustionSignal &s) { signals.push_back(s); });
    fx.soa->requestOverclock(fx.makeRequest(8 * sim::kHour), 0);
    fx.run(0, 2 * sim::kHour, 30 * kSecond);
    ASSERT_FALSE(signals.empty());
    EXPECT_EQ(signals.front().kind,
              ExhaustionKind::OverclockBudget);
    EXPECT_EQ(signals.front().groupId, fx.vm);
}

TEST(Soa, TelemetryHistoriesFillPerSlot)
{
    Fixture fx;
    fx.soa->assignBudget(ProfileTemplate::flat(800.0));
    fx.soa->requestOverclock(fx.makeRequest(sim::kHour), 0);
    // A distinct utilization per slot makes every closed slot's
    // sample recognizable in the Weekly template, which keeps one
    // value per slot of the week.
    std::vector<double> util;
    for (Tick t = 0; t <= 31 * kMinute; t += 15 * kSecond) {
        if (t % sim::kSlot == 0) {
            fx.server->setUtil(fx.vm, 0.3 + 0.1 * (t / sim::kSlot));
            util.push_back(fx.server->utilization());
        }
        fx.soa->tick(t);
    }
    ServerProfile profile;
    fx.soa->readProfile(profile, TemplateStrategy::Weekly);
    // Slots 0-5 closed; slot 6 is still accumulating, so it is
    // unfilled and takes the median of the six closed samples.
    for (int s = 0; s < 6; ++s) {
        EXPECT_NEAR(profile.utilization.predict(s * sim::kSlot),
                    util[s], 1e-12)
            << "slot " << s;
    }
    EXPECT_NEAR(profile.utilization.predict(6 * sim::kSlot),
                0.5 * (util[2] + util[3]), 1e-12);
    // Granted-core telemetry reflects the 8 overclocked cores.
    EXPECT_NEAR(profile.overclockedCores.predict(5 * sim::kSlot), 8.0,
                1.0);
}

TEST(Soa, BuildProfileUsesCollectedTelemetry)
{
    Fixture fx;
    fx.soa->assignBudget(ProfileTemplate::flat(800.0));
    fx.run(0, 2 * sim::kHour, kMinute);
    ServerProfile profile;
    fx.soa->readProfile(profile);
    EXPECT_GT(profile.power.predict(kMinute), 0.0);
    EXPECT_GE(profile.utilization.predict(kMinute), 0.0);
}

TEST(Soa, ProfileReadReusesStorageAcrossStrategies)
{
    // readProfile() copy-assigns into the caller's storage, which
    // the gOA reuses across pulls.  Switching strategies changes
    // which template vectors are filled, so a reused profile must
    // never keep an earlier strategy's values — before or after a
    // crash-restart empties the telemetry.
    SoaConfig cfg;
    cfg.templateWindow = sim::kDay;
    Fixture fx(cfg);
    fx.soa->assignBudget(ProfileTemplate::flat(800.0));
    fx.soa->requestOverclock(fx.makeRequest(3 * sim::kHour), 0);
    const TemplateStrategy sequence[] = {
        TemplateStrategy::DailyMed, TemplateStrategy::Weekly,
        TemplateStrategy::FlatMax, TemplateStrategy::DailyMed};
    ServerProfile reused;
    auto expect_reads_match = [&](const char *phase) {
        for (auto strategy : sequence) {
            fx.soa->readProfile(reused, strategy);
            ServerProfile fresh;
            fx.soa->readProfile(fresh, strategy);
            SCOPED_TRACE(std::string(phase) + " " +
                         strategyName(strategy));
            EXPECT_TRUE(reused.power == fresh.power);
            EXPECT_TRUE(reused.utilization == fresh.utilization);
            EXPECT_TRUE(reused.overclockedCores ==
                        fresh.overclockedCores);
            EXPECT_TRUE(reused.requestedCores == fresh.requestedCores);
        }
    };
    fx.run(0, 26 * sim::kHour, kMinute);
    expect_reads_match("before crash");
    const Tick crash = 26 * sim::kHour + kSecond;
    fx.soa->crashRestart(crash);
    expect_reads_match("right after crash");
    fx.run(crash + kMinute, crash + 2 * sim::kHour, kMinute);
    expect_reads_match("after crash");
}

TEST(Soa, PostCrashTelemetryKeepsWallClockSlots)
{
    // Templates bucket samples by time of day and day of week, so
    // telemetry collected after a crash-restart must land in the
    // wall-clock slots it was measured in: a Saturday 10:00 sample
    // is not a Monday-midnight one.
    SoaConfig cfg;
    cfg.controlPeriod = sim::kSlot; // one tick per slot
    Fixture fx(cfg);
    fx.soa->assignBudget(ProfileTemplate::flat(800.0));
    const Tick crash = 5 * sim::kDay + 10 * sim::kHour; // Sat 10:00
    fx.run(0, crash - sim::kSlot, sim::kSlot);
    fx.soa->crashRestart(crash);

    // A different utilization in every slot after the crash; each
    // slot's single tick makes its sample that utilization.
    std::vector<double> closed;
    const Tick end = crash + 2 * sim::kDay;
    for (Tick t = crash; t <= end; t += sim::kSlot) {
        const auto k = static_cast<int>((t - crash) / sim::kSlot);
        fx.server->setUtil(fx.vm, 0.1 + 0.8 * ((k * 37) % 101) / 100.0);
        fx.soa->tick(t);
        if (t < end) // the slot at `end` is still open
            closed.push_back(fx.server->utilization());
    }
    const telemetry::TimeSeries history(crash, sim::kSlot, closed);
    for (auto strategy :
         {TemplateStrategy::FlatMed, TemplateStrategy::FlatMax,
          TemplateStrategy::Weekly, TemplateStrategy::DailyMed,
          TemplateStrategy::DailyMax}) {
        ServerProfile profile;
        fx.soa->readProfile(profile, strategy);
        EXPECT_TRUE(profile.utilization ==
                    ProfileTemplate::build(strategy, history))
            << strategyName(strategy);
    }
}

TEST(Soa, BudgetWattsFallsBackToTdpBeforeAssignment)
{
    Fixture fx;
    EXPECT_NEAR(fx.soa->budgetWatts(0).count(),
                model().params().tdpWatts.count(), 1e-9);
    fx.soa->assignBudget(ProfileTemplate::flat(321.0));
    EXPECT_NEAR(fx.soa->budgetWatts(0).count(), 321.0, 1e-9);
}

TEST(Soa, ExtensionDoesNotDoubleCountRequestedCores)
{
    Fixture fx;
    fx.soa->assignBudget(ProfileTemplate::flat(800.0));
    ASSERT_TRUE(
        fx.soa->requestOverclock(fx.makeRequest(sim::kHour), 0)
            .granted);
    // Re-request every tick while the grant is live, as WI agents
    // do to keep a grant alive.  Every request from 15 s on takes
    // the "extended" path.
    for (Tick t = 0; t <= 10 * kMinute; t += 15 * kSecond) {
        if (t > 0) {
            const auto d =
                fx.soa->requestOverclock(fx.makeRequest(sim::kHour),
                                         t);
            ASSERT_EQ(d.reason, AdmissionReason::Extended);
        }
        fx.soa->tick(t);
    }
    // The second 5-minute telemetry slot saw only extensions, so
    // requested demand must equal the granted cores — extensions
    // must not be counted on top of the grant they extend.  (Were
    // that slot still open, the Weekly template would fill it with
    // the median of slot 0 alone, whose initial request made 8.4.)
    ServerProfile profile;
    fx.soa->readProfile(profile, TemplateStrategy::Weekly);
    EXPECT_DOUBLE_EQ(profile.requestedCores.predict(sim::kSlot), 8.0);
    EXPECT_DOUBLE_EQ(profile.overclockedCores.predict(sim::kSlot),
                     8.0);
}

TEST(Soa, WearChargedThroughGrantExpiry)
{
    SoaConfig cfg;
    cfg.budgetEpoch = sim::kDay;
    cfg.overclockFraction = 0.5;
    cfg.exploreEnabled = false;
    Fixture fx(cfg);
    fx.soa->assignBudget(ProfileTemplate::flat(900.0));
    // The grant expires at 7.5 min, between the accounting ticks at
    // 5 and 10 min; the final partial interval [5 min, 7.5 min)
    // must still be charged.
    ASSERT_TRUE(fx.soa
                    ->requestOverclock(
                        fx.makeRequest(7 * kMinute + 30 * kSecond),
                        0)
                    .granted);
    fx.run(0, 10 * kMinute, 5 * kMinute);
    EXPECT_FALSE(fx.soa->isOverclockActive(fx.vm));
    EXPECT_EQ(fx.soa->stats().overclockedCoreTime,
              8 * (7 * kMinute + 30 * kSecond));
}

TEST(Soa, WearChargedOnStopBetweenTicks)
{
    SoaConfig cfg;
    cfg.budgetEpoch = sim::kDay;
    cfg.overclockFraction = 0.5;
    cfg.exploreEnabled = false;
    Fixture fx(cfg);
    fx.soa->assignBudget(ProfileTemplate::flat(900.0));
    ASSERT_TRUE(
        fx.soa->requestOverclock(fx.makeRequest(sim::kHour), 0)
            .granted);
    fx.soa->tick(0);
    fx.soa->tick(5 * kMinute); // charges [0, 5 min)
    const Tick before = fx.soa->stats().overclockedCoreTime;
    EXPECT_EQ(before, 8 * (5 * kMinute));
    // Stopping between ticks must charge the partial interval
    // [5 min, 7 min) before the grant record disappears.
    fx.soa->stopOverclock(fx.vm, 7 * kMinute);
    EXPECT_EQ(fx.soa->stats().overclockedCoreTime,
              8 * (7 * kMinute));
    // The next tick has nothing left to charge for this group.
    fx.soa->tick(10 * kMinute);
    EXPECT_EQ(fx.soa->stats().overclockedCoreTime,
              8 * (7 * kMinute));
}

TEST(Soa, RejectsInvalidLifetimeConfigInEveryBuild)
{
    power::Rack rack(0, power::Watts{2000.0});
    power::Server &server = rack.addServer(&model());
    SoaConfig zero_epoch;
    zero_epoch.budgetEpoch = 0; // the first tick divided by zero
    EXPECT_THROW(ServerOverclockingAgent(server, zero_epoch),
                 std::invalid_argument);
    SoaConfig over_full;
    over_full.overclockFraction = 1.5;
    EXPECT_THROW(ServerOverclockingAgent(server, over_full),
                 std::invalid_argument);
}

TEST(Soa, BudgetRejectNamesAreDistinct)
{
    std::set<std::string> names;
    for (int r = 0;
         r <= static_cast<int>(BudgetReject::LeaseBeforeIssue); ++r)
        names.insert(budgetRejectName(static_cast<BudgetReject>(r)));
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(BudgetReject::LeaseBeforeIssue) +
                  1);
    EXPECT_EQ(names.count("unknown"), 0u);
    EXPECT_STREQ(budgetRejectName(BudgetReject::AboveRackLimit),
                 "budget exceeds rack limit");
}
