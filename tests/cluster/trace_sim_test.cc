/** @file End-to-end tests for the trace-driven policy simulator. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cluster/fleet_state.hh"
#include "cluster/trace_sim.hh"

using namespace soc;
using namespace soc::cluster;

namespace
{

TraceSimConfig
quickConfig(core::PolicyKind policy, double limit_factor)
{
    TraceSimConfig cfg;
    cfg.policy = policy;
    cfg.racks = 1;
    cfg.serversPerRack = 8;
    cfg.warmup = sim::kWeek;
    cfg.duration = sim::kDay;
    cfg.controlStep = 60 * sim::kSecond;
    cfg.limitFactor = limit_factor;
    cfg.seed = 101;
    return cfg;
}

} // namespace

TEST(TraceSim, ProducesActivityAndValidRates)
{
    const auto result = runTraceSim(
        quickConfig(core::PolicyKind::SmartOClock, 1.2));
    EXPECT_GT(result.requests, 0u);
    EXPECT_GT(result.wantSteps, 0u);
    EXPECT_GE(result.successRate, 0.0);
    EXPECT_LE(result.successRate, 1.0);
    EXPECT_GT(result.meanRackUtil, 0.2);
    EXPECT_LT(result.meanRackUtil, 1.05);
    EXPECT_GT(result.energyJoules, soc::power::Joules{0.0});
}

TEST(TraceSim, DeterministicForSameSeed)
{
    const auto cfg = quickConfig(core::PolicyKind::SmartOClock, 1.1);
    const auto a = runTraceSim(cfg);
    const auto b = runTraceSim(cfg);
    EXPECT_EQ(a.capEvents, b.capEvents);
    EXPECT_EQ(a.successSteps, b.successSteps);
    EXPECT_EQ(a.wantSteps, b.wantSteps);
    EXPECT_DOUBLE_EQ(a.normPerformance, b.normPerformance);
}

TEST(TraceSim, AmplePowerMeansNoCapsAndFullSuccess)
{
    const auto result = runTraceSim(
        quickConfig(core::PolicyKind::SmartOClock, 2.0));
    EXPECT_EQ(result.capEvents, 0u);
    EXPECT_GT(result.successRate, 0.97);
    EXPECT_GT(result.normPerformance, 1.15);
}

TEST(TraceSim, NaiveCausesManyMoreCapsThanSmart)
{
    const auto naive = runTraceSim(
        quickConfig(core::PolicyKind::NaiveOClock, 1.05));
    const auto smart = runTraceSim(
        quickConfig(core::PolicyKind::SmartOClock, 1.05));
    EXPECT_GT(naive.capEvents, 5 * std::max<std::uint64_t>(
                                       1, smart.capEvents));
}

TEST(TraceSim, NoFeedbackAvoidsCapsButLosesSuccess)
{
    const auto nofb = runTraceSim(
        quickConfig(core::PolicyKind::NoFeedback, 1.05));
    const auto smart = runTraceSim(
        quickConfig(core::PolicyKind::SmartOClock, 1.05));
    EXPECT_LE(nofb.capEvents, smart.capEvents + 2);
    EXPECT_GE(smart.successRate, nofb.successRate - 0.02);
}

TEST(TraceSim, CentralOracleHasBestSuccess)
{
    const auto central = runTraceSim(
        quickConfig(core::PolicyKind::Central, 1.05));
    for (auto policy :
         {core::PolicyKind::NaiveOClock, core::PolicyKind::NoFeedback,
          core::PolicyKind::SmartOClock}) {
        const auto other = runTraceSim(quickConfig(policy, 1.05));
        EXPECT_GE(central.successRate, other.successRate - 0.03)
            << core::policyName(policy);
    }
}

TEST(TraceSim, TierFactorsAreOrdered)
{
    EXPECT_LT(TraceSimConfig::tierLimitFactor(PowerTier::High),
              TraceSimConfig::tierLimitFactor(PowerTier::Medium));
    EXPECT_LT(TraceSimConfig::tierLimitFactor(PowerTier::Medium),
              TraceSimConfig::tierLimitFactor(PowerTier::Low));
}

TEST(TraceSim, PerformanceAboveTurboWhenOverclockingSucceeds)
{
    const auto result = runTraceSim(
        quickConfig(core::PolicyKind::SmartOClock, 1.5));
    EXPECT_GT(result.normPerformance, 1.0);
    EXPECT_LE(result.normPerformance,
              power::kOverclockMHz / power::kTurboMHz + 1e-9);
}

TEST(TraceSim, ThreadCountDoesNotChangeResults)
{
    // 5 racks across 1/2/8 workers exercises every chunked-dispatch
    // shape: serial, racks split unevenly over workers, and more
    // workers than racks (some stay idle).
    auto cfg = quickConfig(core::PolicyKind::SmartOClock, 1.1);
    cfg.racks = 5;
    cfg.serversPerRack = 3;
    const auto run_with = [&cfg](int threads) {
        auto c = cfg;
        c.threads = threads;
        return runTraceSim(c);
    };
    const auto serial = run_with(1);
    for (const int threads : {2, 8}) {
        const auto parallel = run_with(threads);
        // Bit-identical, not merely close: every rack owns its RNG
        // stream and accumulators, merged in rack order.
        EXPECT_EQ(serial.capEvents, parallel.capEvents);
        EXPECT_EQ(serial.cappedTicks, parallel.cappedTicks);
        EXPECT_EQ(serial.warnings, parallel.warnings);
        EXPECT_EQ(serial.requests, parallel.requests);
        EXPECT_EQ(serial.wantSteps, parallel.wantSteps);
        EXPECT_EQ(serial.successSteps, parallel.successSteps);
        EXPECT_EQ(serial.successRate, parallel.successRate);
        EXPECT_EQ(serial.cappingPenalty, parallel.cappingPenalty);
        EXPECT_EQ(serial.normPerformance, parallel.normPerformance);
        EXPECT_EQ(serial.meanRackUtil, parallel.meanRackUtil);
        EXPECT_EQ(serial.energyJoules, parallel.energyJoules);
    }
}

TEST(TraceSim, TemplateWindowBitIdenticalAcrossThreadCounts)
{
    // The paper-faithful prior-week window must preserve the
    // thread-count invariance: window eviction happens inside each
    // sOA's own aggregator, so rack independence is untouched.
    auto cfg = quickConfig(core::PolicyKind::SmartOClock, 1.1);
    cfg.racks = 4;
    cfg.serversPerRack = 3;
    cfg.templateWindow = sim::kWeek;
    const auto run_with = [&cfg](int threads) {
        auto c = cfg;
        c.threads = threads;
        return runTraceSim(c);
    };
    const auto serial = run_with(1);
    const auto parallel = run_with(4);
    EXPECT_EQ(serial.capEvents, parallel.capEvents);
    EXPECT_EQ(serial.cappedTicks, parallel.cappedTicks);
    EXPECT_EQ(serial.warnings, parallel.warnings);
    EXPECT_EQ(serial.requests, parallel.requests);
    EXPECT_EQ(serial.wantSteps, parallel.wantSteps);
    EXPECT_EQ(serial.successSteps, parallel.successSteps);
    EXPECT_EQ(serial.successRate, parallel.successRate);
    EXPECT_EQ(serial.cappingPenalty, parallel.cappingPenalty);
    EXPECT_EQ(serial.normPerformance, parallel.normPerformance);
    EXPECT_EQ(serial.meanRackUtil, parallel.meanRackUtil);
    EXPECT_EQ(serial.energyJoules, parallel.energyJoules);
}

TEST(TraceSim, RejectsMisalignedTemplateWindow)
{
    auto cfg = quickConfig(core::PolicyKind::SmartOClock, 1.1);
    cfg.templateWindow = sim::kSlot + 1;
    EXPECT_THROW(runTraceSim(cfg), std::invalid_argument);
    cfg.templateWindow = -sim::kWeek;
    EXPECT_THROW(runTraceSim(cfg), std::invalid_argument);
    // 0 would evict every sample, the gap-fill source included.
    cfg.templateWindow = 0;
    EXPECT_THROW(runTraceSim(cfg), std::invalid_argument);
    cfg.templateWindow = sim::kWeek;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(TraceSim, RejectsServersTheFleetMasksCannotHold)
{
    auto cfg = quickConfig(core::PolicyKind::SmartOClock, 1.1);
    for (const int cores : {0, -8}) {
        cfg.hardware.cores = cores;
        EXPECT_THROW(cfg.validate(), std::invalid_argument) << cores;
    }
    // 512 cores pack about 100 VMs onto one server, past the 64-bit
    // VM masks: the run must refuse instead of aliasing VM bits.
    cfg.hardware.cores = 512;
    cfg.serversPerRack = 1;
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_THROW(runTraceSim(cfg), std::invalid_argument);

    FleetState fleet(cfg.ocUtilThreshold);
    EXPECT_THROW(fleet.addServer(65, std::vector<bool>(65, false)),
                 std::invalid_argument);
    EXPECT_THROW(fleet.addServer(8, std::vector<bool>(7, false)),
                 std::invalid_argument);
    EXPECT_NO_THROW(fleet.addServer(64, std::vector<bool>(64, true)));
    EXPECT_EQ(fleet.totalVms(), 64u);
}

TEST(TraceSim, BatchMatchesIndividualRuns)
{
    std::vector<TraceSimConfig> configs;
    auto a = quickConfig(core::PolicyKind::SmartOClock, 1.1);
    a.racks = 2;
    a.serversPerRack = 3;
    configs.push_back(a);
    auto b = quickConfig(core::PolicyKind::NaiveOClock, 1.3);
    b.racks = 2;
    b.serversPerRack = 3;
    b.seed = 202;
    configs.push_back(b);

    const auto batch = runTraceSimBatch(configs, 2);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto direct = runTraceSim(configs[i]);
        EXPECT_EQ(batch[i].capEvents, direct.capEvents);
        EXPECT_EQ(batch[i].requests, direct.requests);
        EXPECT_EQ(batch[i].wantSteps, direct.wantSteps);
        EXPECT_EQ(batch[i].successSteps, direct.successSteps);
        EXPECT_EQ(batch[i].energyJoules, direct.energyJoules);
    }
}

namespace
{

/** Short two-recompute horizon for the budget-path tests. */
TraceSimConfig
hierarchyConfig()
{
    auto cfg = quickConfig(core::PolicyKind::SmartOClock, 1.1);
    cfg.racks = 4;
    cfg.serversPerRack = 3;
    cfg.warmup = 6 * sim::kHour;
    cfg.duration = 6 * sim::kHour;
    cfg.controlStep = 5 * sim::kMinute;
    cfg.recomputePeriod = 3 * sim::kHour;
    cfg.racksPerRow = 2;
    return cfg;
}

void
expectSameSimState(const TraceSimResult &a, const TraceSimResult &b)
{
    EXPECT_EQ(a.capEvents, b.capEvents);
    EXPECT_EQ(a.cappedTicks, b.cappedTicks);
    EXPECT_EQ(a.warnings, b.warnings);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.wantSteps, b.wantSteps);
    EXPECT_EQ(a.successSteps, b.successSteps);
    EXPECT_EQ(a.successRate, b.successRate);
    EXPECT_EQ(a.cappingPenalty, b.cappingPenalty);
    EXPECT_EQ(a.normPerformance, b.normPerformance);
    EXPECT_EQ(a.meanRackUtil, b.meanRackUtil);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
}

} // namespace

TEST(TraceSimHierarchy, EquivalenceModeMatchesPerRackBitIdentically)
{
    // HierarchyEquivalence is an alias of PerRack: every rack
    // splits a constant row of its own usable watts through the
    // same two-phase recompute, so the metrics agree bit for bit.
    auto flat = hierarchyConfig();
    flat.budgetPath = BudgetPath::PerRack;
    auto equiv = hierarchyConfig();
    equiv.budgetPath = BudgetPath::HierarchyEquivalence;
    const auto a = runTraceSim(flat);
    const auto b = runTraceSim(equiv);
    EXPECT_GT(a.requests, 0u);
    expectSameSimState(a, b);
}

TEST(TraceSimHierarchy, ZonePathProducesActivity)
{
    auto cfg = hierarchyConfig();
    cfg.budgetPath = BudgetPath::HierarchyZone;
    const auto result = runTraceSim(cfg);
    EXPECT_GT(result.requests, 0u);
    EXPECT_GT(result.wantSteps, 0u);
    EXPECT_GE(result.hierarchyRecomputes, 2u);
    EXPECT_EQ(result.hierarchyStats.splits,
              result.hierarchyRecomputes * (1 + 2));
    EXPECT_GE(result.successRate, 0.0);
    EXPECT_LE(result.successRate, 1.0);
    EXPECT_GT(result.meanRackUtil, 0.1);
}

TEST(TraceSimHierarchy, ZonePathBitIdenticalAcrossThreadCounts)
{
    // The lockstep orchestrator must preserve the determinism
    // contract: racks advance in parallel between boundaries, but
    // the hierarchy is only written by the serial exchange phase (in
    // rack order), so 1/2/8 workers agree bit for bit.
    auto cfg = hierarchyConfig();
    cfg.racks = 5;
    cfg.budgetPath = BudgetPath::HierarchyZone;
    const auto run_with = [&cfg](int threads) {
        auto c = cfg;
        c.threads = threads;
        return runTraceSim(c);
    };
    const auto serial = run_with(1);
    EXPECT_GT(serial.requests, 0u);
    for (const int threads : {2, 8}) {
        const auto parallel = run_with(threads);
        expectSameSimState(serial, parallel);
        EXPECT_EQ(serial.hierarchyRecomputes,
                  parallel.hierarchyRecomputes);
    }
}

TEST(TraceSimHierarchy, StreamWindowSizeDoesNotChangeResults)
{
    // Chunking the trace stream differently must not perturb replay:
    // the cursors produce the same samples however the windows land.
    auto cfg = hierarchyConfig();
    const auto run_with = [&cfg](sim::Tick window) {
        auto c = cfg;
        c.streamWindow = window;
        return runTraceSim(c);
    };
    const auto daily = run_with(sim::kDay);
    const auto odd = run_with(7 * sim::kSlot);
    const auto whole = run_with(0);
    expectSameSimState(daily, odd);
    expectSameSimState(daily, whole);
}

TEST(TraceSimHierarchy, RejectsFaultsAndBadWindows)
{
    auto cfg = hierarchyConfig();
    cfg.budgetPath = BudgetPath::HierarchyZone;
    cfg.faults.enabled = true;
    EXPECT_THROW(runTraceSim(cfg), std::invalid_argument);
    cfg.faults.enabled = false;
    cfg.streamWindow = sim::kSlot + 1;
    EXPECT_THROW(runTraceSim(cfg), std::invalid_argument);
    cfg.streamWindow = -sim::kDay;
    EXPECT_THROW(runTraceSim(cfg), std::invalid_argument);
    cfg.streamWindow = sim::kDay;
    cfg.racksPerRow = 0;
    EXPECT_THROW(runTraceSim(cfg), std::invalid_argument);
    cfg.racksPerRow = 8;
    EXPECT_NO_THROW(cfg.validate());
}
