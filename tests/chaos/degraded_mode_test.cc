/**
 * @file
 * Degraded-mode agent behavior: budget-assignment validation,
 * lease decay toward the safe floor, crash-restart with wear
 * recovery from the journal, gOA registration preconditions, and
 * the gOA's telemetry-retry / delivery-fault paths.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/goa.hh"
#include "core/soa.hh"

using namespace soc;
using namespace soc::core;
using sim::kHour;
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

    void
    run(Tick from, Tick to, Tick step = 5 * kSecond)
    {
        for (Tick t = from; t <= to; t += step)
            soa->tick(t);
    }
};

BudgetAssignment
assignment(double watts, Tick issued = 0, Tick lease = 0,
           double rack_limit = 2000.0)
{
    BudgetAssignment out;
    out.budget = ProfileTemplate::flat(watts);
    out.issuedAt = issued;
    out.leaseUntil = lease;
    out.rackLimitWatts = power::Watts{rack_limit};
    return out;
}

} // namespace

TEST(BudgetValidation, AcceptsFiniteInRangeBudget)
{
    Fixture fx;
    EXPECT_TRUE(fx.soa->assignBudget(assignment(300.0), 10));
    EXPECT_EQ(fx.soa->stats().budgetAssignments, 1u);
    EXPECT_EQ(fx.soa->stats().budgetRejects, 0u);
    EXPECT_EQ(fx.soa->lastBudgetReject(), BudgetReject::None);
    EXPECT_EQ(fx.soa->lastAssignmentAt(), 10);
    EXPECT_DOUBLE_EQ(fx.soa->budgetWatts(10).count(), 300.0);
}

TEST(BudgetValidation, RejectsNaNKeepingPreviousBudget)
{
    Fixture fx;
    ASSERT_TRUE(fx.soa->assignBudget(assignment(300.0), 0));
    EXPECT_FALSE(fx.soa->assignBudget(
        assignment(std::numeric_limits<double>::quiet_NaN()), 5));
    EXPECT_EQ(fx.soa->stats().budgetRejects, 1u);
    EXPECT_EQ(fx.soa->lastBudgetReject(), BudgetReject::NotFinite);
    // The poisoned payload did not displace the previous budget.
    EXPECT_DOUBLE_EQ(fx.soa->budgetWatts(5).count(), 300.0);
    EXPECT_EQ(fx.soa->lastAssignmentAt(), 0);
}

TEST(BudgetValidation, RejectsNegative)
{
    Fixture fx;
    EXPECT_FALSE(fx.soa->assignBudget(assignment(-50.0), 0));
    EXPECT_EQ(fx.soa->lastBudgetReject(), BudgetReject::Negative);
    EXPECT_EQ(fx.soa->stats().budgetRejects, 1u);
}

TEST(BudgetValidation, RejectsBudgetAboveRackLimit)
{
    Fixture fx;
    EXPECT_FALSE(fx.soa->assignBudget(assignment(4000.0), 0));
    EXPECT_EQ(fx.soa->lastBudgetReject(),
              BudgetReject::AboveRackLimit);
    // A sender that does not declare its limit cannot be checked
    // against it; the assignment passes the remaining checks.
    EXPECT_TRUE(fx.soa->assignBudget(
        assignment(4000.0, 0, 0, /*rack_limit=*/0.0), 0));
}

TEST(BudgetValidation, RejectsLeaseExpiringBeforeIssue)
{
    Fixture fx;
    EXPECT_FALSE(fx.soa->assignBudget(
        assignment(300.0, /*issued=*/kHour, /*lease=*/kMinute), kHour));
    EXPECT_EQ(fx.soa->lastBudgetReject(),
              BudgetReject::LeaseBeforeIssue);
}

TEST(Lease, LeaselessAssignmentsNeverGoStale)
{
    Fixture fx;
    fx.soa->assignBudget(ProfileTemplate::flat(400.0));
    EXPECT_FALSE(fx.soa->leaseStale(100 * sim::kWeek));
    ASSERT_TRUE(fx.soa->assignBudget(assignment(400.0), 0));
    EXPECT_FALSE(fx.soa->leaseStale(100 * sim::kWeek));
}

TEST(Lease, StaleBudgetDecaysLinearlyToSafeFloor)
{
    SoaConfig cfg;
    cfg.staleDecayTime = 10 * kMinute;
    Fixture fx(cfg);
    fx.soa->setSafeBudgetWatts(power::Watts{100.0});
    const Tick lease = kHour;
    ASSERT_TRUE(fx.soa->assignBudget(
        assignment(400.0, 0, lease), 0));

    EXPECT_FALSE(fx.soa->leaseStale(lease));
    EXPECT_DOUBLE_EQ(fx.soa->budgetWatts(lease).count(), 400.0);

    EXPECT_TRUE(fx.soa->leaseStale(lease + 1));
    EXPECT_DOUBLE_EQ(
        fx.soa->budgetWatts(lease + 5 * kMinute).count(), 250.0);
    EXPECT_DOUBLE_EQ(
        fx.soa->budgetWatts(lease + 10 * kMinute).count(), 100.0);
    // Fully decayed: it never dips below the safe floor.
    EXPECT_DOUBLE_EQ(fx.soa->budgetWatts(lease + kHour).count(),
                     100.0);
}

TEST(Lease, DecayNeverRaisesABudgetBelowTheFloor)
{
    SoaConfig cfg;
    cfg.staleDecayTime = 10 * kMinute;
    Fixture fx(cfg);
    fx.soa->setSafeBudgetWatts(power::Watts{300.0});
    // Assigned budget already below the safe floor: decaying
    // "toward the floor" must not grant power the gOA never gave.
    ASSERT_TRUE(fx.soa->assignBudget(
        assignment(200.0, 0, kHour), 0));
    EXPECT_DOUBLE_EQ(
        fx.soa->budgetWatts(kHour + 5 * kMinute).count(), 200.0);
    EXPECT_DOUBLE_EQ(fx.soa->budgetWatts(kHour + kHour).count(),
                     200.0);
}

TEST(Lease, StaleLeaseFreezesExplorationAndCountsTicks)
{
    SoaConfig cfg;
    cfg.warningWindow = 10 * kSecond;
    Fixture fx(cfg, 0.9);
    fx.soa->setSafeBudgetWatts(power::Watts{100.0});
    const double draw = fx.server->powerWatts().count();
    const Tick lease = 5 * kMinute;
    ASSERT_TRUE(fx.soa->assignBudget(
        assignment(draw + 1.0, 0, lease), 0));

    // Denied for power -> the agent explores and grows a bonus.
    ASSERT_FALSE(
        fx.soa->requestOverclock(fx.makeRequest(), 0).granted);
    fx.run(0, kMinute);
    ASSERT_GT(fx.soa->explorationBonus(), power::Watts{0.0});

    // Once the lease goes stale the bonus is surrendered and no new
    // exploration starts while degraded.
    fx.run(lease + 5 * kSecond, lease + 2 * kMinute);
    EXPECT_DOUBLE_EQ(fx.soa->explorationBonus().count(), 0.0);
    EXPECT_GT(fx.soa->stats().staleLeaseTicks, 0u);
}

TEST(CrashRestart, RevokesGrantsAndResetsVolatileState)
{
    Fixture fx;
    fx.soa->setSafeBudgetWatts(power::Watts{150.0});
    fx.soa->assignBudget(ProfileTemplate::flat(500.0));
    ASSERT_TRUE(
        fx.soa->requestOverclock(fx.makeRequest(), 0).granted);
    fx.run(0, 10 * kMinute);
    ASSERT_EQ(fx.soa->activeOverclocks(), 1u);

    fx.soa->crashRestart(10 * kMinute + kSecond);

    EXPECT_EQ(fx.soa->activeOverclocks(), 0u);
    EXPECT_DOUBLE_EQ(fx.soa->explorationBonus().count(), 0.0);
    EXPECT_EQ(fx.soa->stats().crashRestarts, 1u);
    EXPECT_EQ(fx.soa->lastAssignmentAt(), -1);
    // The in-memory assignment is gone: the agent runs on the safe
    // floor until the gOA pushes again.
    EXPECT_DOUBLE_EQ(
        fx.soa->budgetWatts(10 * kMinute + kSecond).count(), 150.0);
    // The watchdog dropped the group back to turbo.
    const auto *group = fx.server->group(fx.vm);
    ASSERT_NE(group, nullptr);
    EXPECT_EQ(group->targetMHz, power::kTurboMHz);
}

TEST(CrashRestart, WearSurvivesViaJournal)
{
    Fixture fx;
    fx.soa->assignBudget(ProfileTemplate::flat(500.0));
    ASSERT_TRUE(
        fx.soa->requestOverclock(fx.makeRequest(), 0).granted);
    fx.run(0, 10 * kMinute);

    const Tick crash_at = 10 * kMinute + kSecond;
    fx.soa->crashRestart(crash_at);

    const Tick journaled = fx.soa->wearJournal().totalCoreTime();
    EXPECT_GT(journaled, 0);
    // The rebuilt budget charges everything the journal recorded —
    // a crash cannot launder consumed lifetime.
    EXPECT_EQ(fx.soa->lifetimeBudget().totalConsumed(), journaled);
    EXPECT_EQ(fx.soa->lifetimeRemaining(crash_at),
              fx.soa->lifetimeBudget().allowancePerEpoch() -
                  journaled);
}

TEST(CrashRestart, RepeatedCrashesKeepAccumulatingWear)
{
    Fixture fx;
    fx.soa->assignBudget(ProfileTemplate::flat(500.0));
    ASSERT_TRUE(
        fx.soa->requestOverclock(fx.makeRequest(), 0).granted);
    fx.run(0, 5 * kMinute);
    fx.soa->crashRestart(5 * kMinute + kSecond);
    const Tick after_first = fx.soa->wearJournal().totalCoreTime();
    ASSERT_GT(after_first, 0);

    fx.soa->assignBudget(ProfileTemplate::flat(500.0));
    ASSERT_TRUE(fx.soa
                    ->requestOverclock(fx.makeRequest(),
                                       6 * kMinute)
                    .granted);
    fx.run(6 * kMinute, 11 * kMinute);
    fx.soa->crashRestart(11 * kMinute + kSecond);

    const Tick after_second = fx.soa->wearJournal().totalCoreTime();
    EXPECT_GT(after_second, after_first);
    EXPECT_EQ(fx.soa->lifetimeBudget().totalConsumed(),
              after_second);
    EXPECT_EQ(fx.soa->stats().crashRestarts, 2u);
}

TEST(WearJournal, ReplayReproducesCarryOverTrajectory)
{
    const Tick epoch = 1000;
    OverclockBudget live(epoch, 0.5, 2, 1.0);
    WearJournal journal(2, epoch);

    auto spend = [&](int core, Tick amount, Tick at) {
        live.consume(amount, at);
        journal.append(core, amount, at);
    };
    spend(0, 300, 100);
    spend(1, 400, 500);
    spend(0, 900, 1100);  // epoch 1, after carry-over
    spend(1, 100, 3200);  // epoch 3, two rolls in between

    OverclockBudget rebuilt(epoch, 0.5, 2, 1.0);
    std::vector<Tick> used(2, 0);
    journal.replay(rebuilt, used, 3200);

    EXPECT_EQ(rebuilt.remaining(3200), live.remaining(3200));
    EXPECT_EQ(rebuilt.totalConsumed(), live.totalConsumed());
    EXPECT_EQ(rebuilt.overdraft(), live.overdraft());
    // Per-core usage of the epoch containing `now` survives...
    EXPECT_EQ(used[0], 0);
    EXPECT_EQ(used[1], 100);

    // ...and reads as zero when the crash happens in a later epoch
    // than the last journaled activity.
    OverclockBudget rebuilt2(epoch, 0.5, 2, 1.0);
    std::vector<Tick> used2(2, 7);
    journal.replay(rebuilt2, used2, 5500);
    EXPECT_EQ(used2[0], 0);
    EXPECT_EQ(used2[1], 0);
}

TEST(GoaRegistration, RejectsNullAndOutOfOrderAgents)
{
    power::Rack rack(0, power::Watts{1000.0});
    power::Server &s0 = rack.addServer(&model());
    power::Server &s1 = rack.addServer(&model());
    SoaConfig cfg;
    ServerOverclockingAgent a0(s0, cfg, &rack);
    ServerOverclockingAgent a1(s1, cfg, &rack);
    GlobalOverclockingAgent goa(rack, model());

    EXPECT_THROW(goa.addAgent(nullptr), std::invalid_argument);
    // a1 first would pair profile 0 with server 1.
    EXPECT_THROW(goa.addAgent(&a1), std::invalid_argument);
    goa.addAgent(&a0);
    EXPECT_THROW(goa.addAgent(&a0), std::invalid_argument);
    goa.addAgent(&a1);
    // The rack is full; a third agent cannot belong to it.
    ServerOverclockingAgent extra(s0, cfg, &rack);
    EXPECT_THROW(goa.addAgent(&extra), std::invalid_argument);
    EXPECT_EQ(goa.agentCount(), 2u);
}

TEST(GoaRegistration, SeedsSafeBudgetAtEvenSplit)
{
    power::Rack rack(0, power::Watts{1000.0});
    power::Server &s0 = rack.addServer(&model());
    power::Server &s1 = rack.addServer(&model());
    SoaConfig cfg;
    ServerOverclockingAgent a0(s0, cfg, &rack);
    ServerOverclockingAgent a1(s1, cfg, &rack);
    GlobalOverclockingAgent goa(rack, model());
    goa.addAgent(&a0);
    goa.addAgent(&a1);
    EXPECT_DOUBLE_EQ(a0.safeBudgetWatts().count(), 500.0);
    EXPECT_DOUBLE_EQ(a1.safeBudgetWatts().count(), 500.0);
}

namespace
{

/** Rack of two managed sOAs wired to a gOA. */
struct GoaFixture {
    power::Rack rack{0, power::Watts{1000.0}};
    SoaConfig cfg;
    std::unique_ptr<ServerOverclockingAgent> a0;
    std::unique_ptr<ServerOverclockingAgent> a1;
    std::unique_ptr<GlobalOverclockingAgent> goa;

    explicit GoaFixture(GoaConfig goa_cfg = {})
    {
        power::Server &s0 = rack.addServer(&model());
        power::Server &s1 = rack.addServer(&model());
        s0.addGroup(8, 0.5, power::kTurboMHz, 1);
        s1.addGroup(8, 0.7, power::kTurboMHz, 1);
        a0 = std::make_unique<ServerOverclockingAgent>(s0, cfg,
                                                       &rack);
        a1 = std::make_unique<ServerOverclockingAgent>(s1, cfg,
                                                       &rack);
        goa = std::make_unique<GlobalOverclockingAgent>(
            rack, model(), goa_cfg);
        goa->addAgent(a0.get());
        goa->addAgent(a1.get());
        goa->assignEvenSplit();
    }
};

/** A constant row of @p goa's usable watts: the budget a gOA
 *  splits when it splits its own rack's limit. */
std::vector<double>
ownRow(const GlobalOverclockingAgent &goa)
{
    return std::vector<double>(
        static_cast<std::size_t>(sim::kSlotsPerWeek),
        goa.usableWatts().count());
}

/** Perfect-network recompute over the rack's own limit. */
void
recomputeOwnRow(GlobalOverclockingAgent &goa, Tick now)
{
    goa.pullProfiles();
    goa.recomputeWithBudget(now, ownRow(goa));
}

/** Fault-aware recompute over the rack's own limit; the pushes
 *  wait in the gOA's queue for deliverDue. */
void
recomputeOwnRow(GlobalOverclockingAgent &goa, Tick now,
                const RecomputeFaults &faults)
{
    goa.pullProfiles(faults);
    goa.recomputeWithBudget(now, ownRow(goa), faults);
}

} // namespace

TEST(GoaFaults, TelemetryRetriesThenFallsBackToCache)
{
    GoaFixture fx;
    const auto tick_both = [&](Tick from, Tick to) {
        for (Tick t = from; t < to; t += sim::kSlot) {
            fx.a0->tick(t);
            fx.a1->tick(t);
        }
    };
    // Prime the profile cache with one clean recompute over an hour
    // of telemetry; no tick in between, so this read is exactly
    // server 0's pulled profile.
    tick_both(0, kHour + sim::kSlot);
    recomputeOwnRow(*fx.goa, kHour);
    ASSERT_EQ(fx.goa->stats().telemetryDrops, 0u);
    ServerProfile stale0;
    fx.a0->readProfile(stale0, fx.goa->config().strategy);

    // Both servers' load changes before the next pull, so a fresh
    // profile differs from the cached one.
    for (auto [server, util] : {std::pair{0, 0.9}, std::pair{1, 0.2}}) {
        power::Server &s = fx.rack.server(server);
        s.setUtil(s.groups().front().id, util);
    }
    tick_both(kHour + sim::kSlot, 3 * kHour + sim::kSlot);

    RecomputeFaults rf;
    rf.telemetryAttempts = 3;
    rf.telemetryLost = [](int server, int) { return server == 0; };
    recomputeOwnRow(*fx.goa, 3 * kHour, rf);
    fx.goa->deliverDue(3 * kHour);

    // Server 0 failed all three pulls; its budget was computed from
    // the cached profile, and it still receives an assignment.
    EXPECT_EQ(fx.goa->stats().telemetryRetries, 3u);
    EXPECT_EQ(fx.goa->stats().telemetryDrops, 1u);
    EXPECT_EQ(fx.a0->lastAssignmentAt(), 3 * kHour);
    EXPECT_EQ(fx.a1->lastAssignmentAt(), 3 * kHour);
    EXPECT_EQ(fx.goa->stats().budgetRejects, 0u);

    // The split saw server 0's profile from the first pull, never
    // overwritten by the failed one, next to server 1's fresh one.
    ServerProfile fresh0;
    fx.a0->readProfile(fresh0, fx.goa->config().strategy);
    ASSERT_FALSE(fresh0.power == stale0.power);
    std::vector<ServerProfile> expected_inputs(2);
    expected_inputs[0] = stale0;
    fx.a1->readProfile(expected_inputs[1], fx.goa->config().strategy);
    const auto expected =
        BudgetAllocator(model(), fx.goa->config().budget)
            .split(fx.rack.limitWatts(), expected_inputs);
    ASSERT_EQ(fx.goa->lastBudgets().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_TRUE(fx.goa->lastBudgets()[i] == expected[i])
            << "server " << i;
}

TEST(GoaFaults, DropsAndDelaysBudgetPushes)
{
    GoaFixture fx;
    RecomputeFaults rf;
    rf.budgetLost = [](int server) { return server == 0; };
    rf.budgetDelay = [](int server) {
        return server == 1 ? kMinute : Tick{0};
    };
    recomputeOwnRow(*fx.goa, 0, rf);
    EXPECT_EQ(fx.goa->stats().budgetDrops, 1u);
    EXPECT_EQ(fx.goa->stats().budgetDelays, 1u);

    // Server 1's push is a minute in flight; server 0's never lands.
    fx.goa->deliverDue(0);
    fx.goa->deliverDue(kMinute - 1);
    EXPECT_EQ(fx.a1->lastAssignmentAt(), -1);
    fx.goa->deliverDue(kMinute);
    EXPECT_EQ(fx.a1->lastAssignmentAt(), kMinute);
    fx.goa->deliverDue(kHour);
    EXPECT_EQ(fx.a0->lastAssignmentAt(), -1);
    EXPECT_EQ(fx.a0->stats().budgetAssignments, 0u);
}

TEST(GoaFaults, PushesArrivingTogetherLandInIssueOrder)
{
    GoaConfig goa_cfg;
    goa_cfg.leaseTtl = kHour;
    GoaFixture fx(goa_cfg);
    // The pushes issued at 0 spend a minute in flight and arrive on
    // the tick the next recompute's on-time pushes land.
    RecomputeFaults delayed;
    delayed.budgetDelay = [](int) { return kMinute; };
    recomputeOwnRow(*fx.goa, 0, delayed);
    fx.goa->deliverDue(0);
    recomputeOwnRow(*fx.goa, kMinute, RecomputeFaults{});
    fx.goa->deliverDue(kMinute);

    // Both landed, the earlier one first: the later lease survives.
    EXPECT_EQ(fx.a0->stats().budgetAssignments, 2u);
    EXPECT_EQ(fx.a0->lastAssignmentAt(), kMinute);
    EXPECT_FALSE(fx.a0->leaseStale(kHour + 1));
    EXPECT_TRUE(fx.a0->leaseStale(kHour + kMinute + 1));
}

TEST(GoaFaults, CorruptedPushIsRejectedByTheSoa)
{
    GoaFixture fx;
    for (int kind = 0; kind < 3; ++kind) {
        RecomputeFaults rf;
        rf.budgetCorrupt = [kind](int) { return kind; };
        recomputeOwnRow(*fx.goa, kind * kHour, rf);
        fx.goa->deliverDue(kind * kHour);
    }
    // Both sOAs received and rejected every push.
    EXPECT_EQ(fx.goa->stats().budgetRejects, 6u);
    EXPECT_EQ(fx.a0->stats().budgetRejects, 3u);
    EXPECT_EQ(fx.a0->lastAssignmentAt(), -1);
    EXPECT_EQ(fx.a1->lastAssignmentAt(), -1);
    // Rejections never displaced the even-split bootstrap budget.
    EXPECT_DOUBLE_EQ(fx.a0->budgetWatts(0).count(), 500.0);
}

TEST(GoaFaults, LeaseTtlStampsDeliveredAssignments)
{
    GoaConfig goa_cfg;
    goa_cfg.leaseTtl = kHour;
    GoaFixture fx(goa_cfg);
    recomputeOwnRow(*fx.goa, 0);
    EXPECT_FALSE(fx.a0->leaseStale(kHour));
    EXPECT_TRUE(fx.a0->leaseStale(kHour + 1));
    // A later recompute renews the lease.
    recomputeOwnRow(*fx.goa, kHour);
    EXPECT_FALSE(fx.a0->leaseStale(kHour + 1));
    EXPECT_TRUE(fx.a0->leaseStale(2 * kHour + 1));
}

TEST(Sensor, DistortedReadingsFeedAdmission)
{
    Fixture honest;
    honest.soa->assignBudget(ProfileTemplate::flat(
        honest.server->powerWatts().count() + 200.0));
    ASSERT_TRUE(
        honest.soa->requestOverclock(honest.makeRequest(), 0)
            .granted);

    Fixture fooled;
    fooled.soa->setPowerSensor(
        [](power::Watts watts, Tick) { return watts * 10.0; });
    fooled.soa->assignBudget(ProfileTemplate::flat(
        fooled.server->powerWatts().count() + 200.0));
    // The same request under the same budget is denied because the
    // sensor reports ten times the draw.
    EXPECT_FALSE(
        fooled.soa->requestOverclock(fooled.makeRequest(), 0)
            .granted);
}
