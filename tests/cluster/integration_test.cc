/**
 * @file
 * Cross-module integration tests: full SmartOClock stack (WI + sOA +
 * gOA + rack manager) wired by hand on a small rack, exercising the
 * end-to-end flows of Fig. 10/11 without the cluster harness.
 */

#include <gtest/gtest.h>

#include "core/goa.hh"
#include "core/wi.hh"
#include "power/rack_manager.hh"

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

/** Two servers, one service with a VM on each, full agent stack. */
struct Stack {
    power::Rack rack{0, power::Watts{1100.0}};
    power::RackManager manager{rack};
    GlobalOverclockingAgent goa{rack, model()};
    std::vector<std::unique_ptr<ServerOverclockingAgent>> soas;
    std::vector<power::GroupId> vms;
    std::unique_ptr<GlobalWiAgent> wi;
    int scaleOuts = 0;

    Stack()
    {
        SoaConfig soa_cfg;
        soa_cfg.warningWindow = 10 * kSecond;
        for (int i = 0; i < 2; ++i) {
            power::Server &server = rack.addServer(&model());
            vms.push_back(server.addGroup(8, 0.6, power::kTurboMHz,
                                          1));
            soas.push_back(
                std::make_unique<ServerOverclockingAgent>(
                    server, soa_cfg, &rack));
            manager.addListener(soas.back().get());
            goa.addAgent(soas.back().get());
        }
        goa.assignEvenSplit();

        WiPolicyConfig wi_cfg;
        wi_cfg.sloMs = 100.0;
        wi_cfg.baselineP99Ms = 20.0;
        wi_cfg.scaleCooldown = 0;
        wi = std::make_unique<GlobalWiAgent>("svc", wi_cfg);
        for (int i = 0; i < 2; ++i) {
            wi->addVm(std::make_unique<LocalWiAgent>(
                i, soas[i].get(), vms[i], 8));
            soas[i]->setExhaustionCallback(
                [this](const ExhaustionSignal &signal) {
                wi->onExhaustion(0, signal);
            });
        }
        wi->setScaleOutHandler([this](int n) { scaleOuts += n; });
    }

    void
    run(Tick from, Tick to, Tick step = 5 * kSecond)
    {
        for (Tick t = from; t <= to; t += step) {
            for (auto &soa : soas)
                soa->tick(t);
            manager.tick(t);
        }
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

} // namespace

TEST(Integration, MetricsSpikesOverclockBothVms)
{
    Stack stack;
    VmMetrics slow;
    slow.p99LatencyMs = 85.0;
    slow.utilization = 0.7;
    stack.wi->onMetrics(0, slow);
    EXPECT_TRUE(stack.soas[0]->isOverclockActive(stack.vms[0]));
    EXPECT_TRUE(stack.soas[1]->isOverclockActive(stack.vms[1]));

    stack.run(0, 2 * kMinute);
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(stack.rack.server(i)
                      .group(stack.vms[i])
                      ->effectiveMHz(),
                  power::kOverclockMHz);
    }

    VmMetrics fast;
    fast.p99LatencyMs = 10.0;
    stack.wi->onMetrics(3 * kMinute, fast);
    EXPECT_FALSE(stack.soas[0]->isOverclockActive(stack.vms[0]));
}

TEST(Integration, RackPowerStaysUnderLimitWithSmartStack)
{
    Stack stack;
    // Overload: high util plus overclocking everywhere.
    for (int i = 0; i < 2; ++i)
        stack.rack.server(i).setUtil(stack.vms[i], 0.95);
    VmMetrics slow;
    slow.p99LatencyMs = 95.0;
    slow.utilization = 0.95;
    stack.wi->onMetrics(0, slow);
    stack.run(0, 5 * kMinute);
    EXPECT_LE(stack.rack.powerWatts(), stack.rack.limitWatts());
    // The safety valve may have engaged but the system settled.
    EXPECT_LE(stack.manager.stats().capEvents, 3u);
}

TEST(Integration, GoaRecomputeShiftsBudgetTowardDemand)
{
    Stack stack;
    // Only VM 0 overclocks for an hour of telemetry.
    OverclockRequest req;
    req.groupId = stack.vms[0];
    req.cores = 8;
    req.duration = 2 * sim::kHour;
    stack.soas[0]->requestOverclock(req, 0);
    stack.run(0, sim::kHour, 30 * kSecond);
    recomputeOwnRow(stack.goa, sim::kHour);
    EXPECT_GT(stack.soas[0]->budgetWatts(90 * kMinute),
              stack.soas[1]->budgetWatts(90 * kMinute));
}

TEST(Integration, WarningsThrottleExplorationAcrossAgents)
{
    Stack stack;
    // Tight budgets force both agents to explore; the rack manager's
    // warnings must keep the rack below its limit.
    stack.rack.setLimitWatts(stack.rack.powerWatts() +
                             power::Watts{60.0});
    stack.goa.assignEvenSplit();
    for (Tick t = 0; t <= 10 * kMinute; t += 5 * kSecond) {
        for (int i = 0; i < 2; ++i) {
            if (!stack.soas[i]->isOverclockActive(stack.vms[i])) {
                OverclockRequest req;
                req.groupId = stack.vms[i];
                req.cores = 8;
                req.duration = sim::kHour;
                stack.soas[i]->requestOverclock(req, t);
            }
            stack.soas[i]->tick(t);
        }
        stack.manager.tick(t);
    }
    EXPECT_GT(stack.manager.stats().warnings, 0u);
    EXPECT_LE(stack.rack.powerWatts(), stack.rack.limitWatts());
}

TEST(Integration, LifetimeExhaustionSignalsProactiveScaleOut)
{
    Stack stack;
    // Rebuild agents with a tiny lifetime budget so exhaustion is
    // predicted quickly.
    SoaConfig cfg;
    cfg.budgetEpoch = sim::kDay;
    cfg.overclockFraction = 0.003;
    cfg.exhaustionWindow = 15 * kMinute;
    auto soa = std::make_unique<ServerOverclockingAgent>(
        stack.rack.server(0), cfg, &stack.rack);
    soa->assignBudget(ProfileTemplate::flat(800.0));
    bool signalled = false;
    soa->setExhaustionCallback(
        [&](const ExhaustionSignal &) { signalled = true; });

    OverclockRequest req;
    req.groupId = stack.vms[0];
    req.cores = 8;
    req.duration = 4 * sim::kHour;
    ASSERT_TRUE(soa->requestOverclock(req, 0).granted);
    for (Tick t = 0; t < sim::kHour; t += 30 * kSecond)
        soa->tick(t);
    EXPECT_TRUE(signalled);
}
