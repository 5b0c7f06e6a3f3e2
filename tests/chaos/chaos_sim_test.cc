/**
 * @file
 * End-to-end chaos tests: the cluster simulators under fault
 * injection.  The headline acceptance checks live here — a run with
 * mid-evaluation gOA outages completes with the sOAs enforcing
 * stale-then-decayed budgets, and fault-injected outcomes stay
 * bit-identical across thread counts and repeated runs.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cluster/service_sim.hh"
#include "cluster/trace_sim.hh"

using namespace soc;
using namespace soc::cluster;

namespace
{

/**
 * A one-rack run whose fault load guarantees degraded-mode coverage
 * inside warmup + one evaluation day: the gOA recomputes every three
 * hours (lease = 6 h), while outages arrive often and last 12 h on
 * average, so several recomputes are skipped and leases expire while
 * the trace is still running.
 */
TraceSimConfig
chaosConfig()
{
    TraceSimConfig cfg;
    cfg.policy = core::PolicyKind::SmartOClock;
    cfg.racks = 1;
    cfg.serversPerRack = 8;
    cfg.warmup = sim::kWeek;
    cfg.duration = sim::kDay;
    cfg.controlStep = 60 * sim::kSecond;
    cfg.limitFactor = 1.1;
    cfg.seed = 101;
    cfg.recomputePeriod = 3 * sim::kHour;
    cfg.faults = sim::FaultConfig::standardChaos();
    cfg.faults.goaOutagesPerWeek = 14.0;
    cfg.faults.goaOutageMeanDuration = 12 * sim::kHour;
    cfg.faults.soaCrashesPerServerWeek = 2.0;
    return cfg;
}

void
expectIdentical(const TraceSimResult &a, const TraceSimResult &b)
{
    EXPECT_EQ(a.capEvents, b.capEvents);
    EXPECT_EQ(a.cappedTicks, b.cappedTicks);
    EXPECT_EQ(a.warnings, b.warnings);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.wantSteps, b.wantSteps);
    EXPECT_EQ(a.successSteps, b.successSteps);
    EXPECT_DOUBLE_EQ(a.successRate, b.successRate);
    EXPECT_DOUBLE_EQ(a.cappingPenalty, b.cappingPenalty);
    EXPECT_DOUBLE_EQ(a.normPerformance, b.normPerformance);
    EXPECT_DOUBLE_EQ(a.meanRackUtil, b.meanRackUtil);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.faults.goaOutages, b.faults.goaOutages);
    EXPECT_EQ(a.faults.recomputesSkipped,
              b.faults.recomputesSkipped);
    EXPECT_EQ(a.faults.soaCrashes, b.faults.soaCrashes);
    EXPECT_EQ(a.faults.telemetryDrops, b.faults.telemetryDrops);
    EXPECT_EQ(a.faults.telemetryRetries, b.faults.telemetryRetries);
    EXPECT_EQ(a.faults.budgetDrops, b.faults.budgetDrops);
    EXPECT_EQ(a.faults.budgetDelays, b.faults.budgetDelays);
    EXPECT_EQ(a.faults.budgetRejects, b.faults.budgetRejects);
    EXPECT_EQ(a.capEventsFaultAttributed,
              b.capEventsFaultAttributed);
    EXPECT_EQ(a.staleLeaseTicks, b.staleLeaseTicks);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_DOUBLE_EQ(a.meanRecoveryS, b.meanRecoveryS);
}

} // namespace

TEST(ChaosTraceSim, SurvivesMidEvaluationGoaOutage)
{
    const auto result = runTraceSim(chaosConfig());

    // The fault plan actually fired...
    EXPECT_GT(result.faults.goaOutages, 0u);
    EXPECT_GT(result.faults.recomputesSkipped, 0u);
    EXPECT_GT(result.faults.soaCrashes, 0u);
    // ...and the degraded paths were exercised: sOAs spent time on
    // stale leases (decayed budgets) instead of crashing or
    // overclocking unboundedly.
    EXPECT_GT(result.staleLeaseTicks, 0u);
    EXPECT_GT(result.recoveries, 0u);
    EXPECT_GT(result.meanRecoveryS, 0.0);

    // The run itself stays sane: activity happened, rates are
    // rates, and the rack limit was still enforced.
    EXPECT_GT(result.requests, 0u);
    EXPECT_GT(result.wantSteps, 0u);
    EXPECT_GE(result.successRate, 0.0);
    EXPECT_LE(result.successRate, 1.0);
    EXPECT_GT(result.meanRackUtil, 0.0);
    EXPECT_LT(result.meanRackUtil, 1.05);
    EXPECT_LE(result.capEventsFaultAttributed, result.capEvents);
}

TEST(ChaosTraceSim, MessageFaultCountersTrack)
{
    auto cfg = chaosConfig();
    const auto result = runTraceSim(cfg);
    // standardChaos loses/delays/corrupts messages at rates that a
    // week of three-hourly recomputes cannot miss.
    EXPECT_GT(result.faults.telemetryRetries, 0u);
    EXPECT_GT(result.faults.budgetDrops, 0u);
    EXPECT_GT(result.faults.budgetDelays, 0u);
    EXPECT_GT(result.faults.budgetRejects, 0u);
}

TEST(ChaosTraceSim, BitIdenticalAcrossThreadCountsAndReruns)
{
    auto cfg = chaosConfig();
    cfg.racks = 3;
    cfg.serversPerRack = 4;
    const auto run_with = [&cfg](int threads) {
        auto c = cfg;
        c.threads = threads;
        return runTraceSim(c);
    };
    const auto serial = run_with(1);
    const auto parallel = run_with(4);
    const auto again = run_with(1);
    expectIdentical(serial, parallel);
    expectIdentical(serial, again);
    // Sanity: this sweep injected faults, so the equality above
    // compared real fault traffic and not a disabled harness.
    EXPECT_GT(serial.faults.total(), 0u);
    EXPECT_GT(serial.staleLeaseTicks, 0u);
}

TEST(ChaosTraceSim, EquivalenceAliasRunsFaultsLikePerRack)
{
    // HierarchyEquivalence runs exactly as PerRack, so it accepts
    // faults and reproduces PerRack's run, fault counters included.
    auto per_rack = chaosConfig();
    per_rack.budgetPath = BudgetPath::PerRack;
    auto alias = chaosConfig();
    alias.budgetPath = BudgetPath::HierarchyEquivalence;
    const auto a = runTraceSim(per_rack);
    const auto b = runTraceSim(alias);
    EXPECT_GT(a.faults.total(), 0u);
    expectIdentical(a, b);
}

TEST(ChaosTraceSim, FaultFreeRunsReportZeroChaosMetrics)
{
    auto cfg = chaosConfig();
    cfg.faults = sim::FaultConfig{};
    const auto result = runTraceSim(cfg);
    EXPECT_EQ(result.faults.total(), 0u);
    EXPECT_EQ(result.faults.recomputesSkipped, 0u);
    EXPECT_EQ(result.capEventsFaultAttributed, 0u);
    EXPECT_EQ(result.staleLeaseTicks, 0u);
    EXPECT_EQ(result.recoveries, 0u);
    EXPECT_DOUBLE_EQ(result.meanRecoveryS, 0.0);
}

TEST(ChaosServiceSim, SurvivesCrashRestartStorm)
{
    ServiceSimConfig cfg;
    cfg.socialNetServers = 4;
    cfg.mlServers = 2;
    cfg.spareServers = 2;
    cfg.duration = 10 * sim::kMinute;
    cfg.warmup = 2 * sim::kMinute;
    cfg.goaPeriod = 2 * sim::kMinute;
    cfg.faults = sim::FaultConfig::standardChaos();
    // A ten-minute run is ~1/1000 of a week; scale the crash rate so
    // several sOAs actually restart mid-run.
    cfg.faults.soaCrashesPerServerWeek = 1500.0;
    cfg.faults.goaOutagesPerWeek = 400.0;
    cfg.faults.goaOutageMeanDuration = 3 * sim::kMinute;

    const auto result = runServiceSim(cfg);
    EXPECT_GT(result.faults.soaCrashes, 0u);
    EXPECT_GT(result.faults.total(), 0u);
    // The cluster still serves traffic end to end.
    EXPECT_GT(result.byClass[0].completed, 0u);
    EXPECT_GT(result.totalEnergyJ, soc::power::Joules{0.0});
}

TEST(ChaosServiceSim, DeterministicUnderFaults)
{
    ServiceSimConfig cfg;
    cfg.socialNetServers = 3;
    cfg.mlServers = 1;
    cfg.spareServers = 1;
    cfg.duration = 8 * sim::kMinute;
    cfg.warmup = 2 * sim::kMinute;
    cfg.goaPeriod = 2 * sim::kMinute;
    cfg.faults = sim::FaultConfig::standardChaos();
    cfg.faults.soaCrashesPerServerWeek = 1000.0;

    const auto a = runServiceSim(cfg);
    const auto b = runServiceSim(cfg);
    EXPECT_EQ(a.capEvents, b.capEvents);
    EXPECT_EQ(a.scaleOuts, b.scaleOuts);
    EXPECT_EQ(a.overclockStarts, b.overclockStarts);
    EXPECT_EQ(a.totalEnergyJ, b.totalEnergyJ);
    EXPECT_EQ(a.faults.soaCrashes, b.faults.soaCrashes);
    EXPECT_EQ(a.faults.budgetDrops, b.faults.budgetDrops);
    EXPECT_EQ(a.faults.budgetRejects, b.faults.budgetRejects);
}

TEST(ChaosValidation, TraceSimConfigRejectsNonsense)
{
    const auto expect_throws = [](auto mutate) {
        TraceSimConfig cfg;
        mutate(cfg);
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    };
    expect_throws([](TraceSimConfig &c) { c.racks = 0; });
    expect_throws([](TraceSimConfig &c) { c.serversPerRack = 0; });
    expect_throws([](TraceSimConfig &c) { c.limitFactor = 0.0; });
    expect_throws([](TraceSimConfig &c) { c.limitFactor = -1.0; });
    expect_throws([](TraceSimConfig &c) { c.controlStep = 0; });
    expect_throws([](TraceSimConfig &c) { c.warmup = -1; });
    expect_throws([](TraceSimConfig &c) {
        c.warmup = 0;
        c.duration = 0;
    });
    expect_throws([](TraceSimConfig &c) { c.recomputePeriod = 0; });
    expect_throws([](TraceSimConfig &c) {
        c.faults.telemetryLossProb = 2.0;
    });
    EXPECT_NO_THROW(TraceSimConfig{}.validate());

    // The entry point itself refuses to run a bad config.
    TraceSimConfig bad;
    bad.racks = 0;
    EXPECT_THROW(runTraceSim(bad), std::invalid_argument);
}

TEST(ChaosValidation, TraceSimValidationMessagesName)
{
    TraceSimConfig cfg;
    cfg.racks = -3;
    try {
        cfg.validate();
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("TraceSimConfig"), std::string::npos)
            << what;
        EXPECT_NE(what.find("racks"), std::string::npos) << what;
    }
}

TEST(ChaosValidation, ServiceSimConfigRejectsNonsense)
{
    const auto expect_throws = [](auto mutate) {
        ServiceSimConfig cfg;
        mutate(cfg);
        EXPECT_THROW(cfg.validate(), std::invalid_argument);
    };
    expect_throws(
        [](ServiceSimConfig &c) { c.socialNetServers = 0; });
    expect_throws([](ServiceSimConfig &c) { c.mlServers = -1; });
    expect_throws([](ServiceSimConfig &c) { c.spareServers = -2; });
    expect_throws([](ServiceSimConfig &c) {
        c.warmup = c.duration; // nothing left to evaluate
    });
    expect_throws([](ServiceSimConfig &c) { c.controlPeriod = 0; });
    expect_throws([](ServiceSimConfig &c) { c.pollPeriod = 0; });
    expect_throws([](ServiceSimConfig &c) { c.goaPeriod = 0; });
    expect_throws(
        [](ServiceSimConfig &c) { c.rackLimitFactor = 0.0; });
    expect_throws([](ServiceSimConfig &c) { c.maxInstances = 0; });
    expect_throws([](ServiceSimConfig &c) {
        c.faults.budgetLossProb = -0.5;
    });
    expect_throws(
        [](ServiceSimConfig &c) { c.templateWindow = -sim::kWeek; });
    expect_throws(
        [](ServiceSimConfig &c) { c.templateWindow = sim::kSlot + 1; });
    expect_throws([](ServiceSimConfig &c) { c.templateWindow = 0; });
    EXPECT_NO_THROW(ServiceSimConfig{}.validate());

    ServiceSimConfig bad;
    bad.maxInstances = 0;
    EXPECT_THROW(runServiceSim(bad), std::invalid_argument);
}
