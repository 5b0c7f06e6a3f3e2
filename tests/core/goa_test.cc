/** @file Behavioural tests for the Global Overclocking Agent. */

#include <gtest/gtest.h>

#include "core/goa.hh"

using namespace soc;
using namespace soc::core;
using sim::kMinute;
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
    power::Rack rack{0, power::Watts{1500.0}};
    std::vector<std::unique_ptr<ServerOverclockingAgent>> soas;
    std::vector<power::GroupId> vms;
    GlobalOverclockingAgent goa{rack, model()};

    explicit Fixture(int servers = 2)
    {
        for (int i = 0; i < servers; ++i) {
            power::Server &server = rack.addServer(&model());
            vms.push_back(
                server.addGroup(8, 0.3 + 0.2 * i, power::kTurboMHz,
                                1));
            soas.push_back(
                std::make_unique<ServerOverclockingAgent>(
                    server, SoaConfig{}, &rack));
            goa.addAgent(soas.back().get());
        }
    }
};

/** A usable-watts row of @p slots entries, under the rack limit. */
std::vector<double>
usableRow(std::size_t slots = sim::kSlotsPerWeek)
{
    return std::vector<double>(slots, 1400.0);
}

/** The budget state a rejected recompute must leave as it was. */
struct BudgetState {
    std::vector<ProfileTemplate> lastBudgets;
    std::uint64_t recomputes = 0;
    /** Every sOA's budget at each hour of the week. */
    std::vector<double> soaWatts;
};

BudgetState
budgetState(const Fixture &fx)
{
    BudgetState state{fx.goa.lastBudgets(), fx.goa.recomputeCount(),
                      {}};
    for (const auto &soa : fx.soas)
        for (Tick t = 0; t < sim::kWeek; t += sim::kHour)
            state.soaWatts.push_back(soa->budgetWatts(t).count());
    return state;
}

void
expectUnchanged(const BudgetState &before, const Fixture &fx)
{
    const BudgetState after = budgetState(fx);
    EXPECT_TRUE(after.lastBudgets == before.lastBudgets);
    EXPECT_EQ(after.recomputes, before.recomputes);
    EXPECT_EQ(after.soaWatts, before.soaWatts);
}

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

void
tickFor(Fixture &fx, Tick duration)
{
    for (Tick t = 0; t < duration; t += kMinute)
        for (auto &soa : fx.soas)
            soa->tick(t);
}

} // namespace

TEST(Goa, EvenSplitAssignsEqualBudgets)
{
    Fixture fx;
    fx.goa.assignEvenSplit();
    EXPECT_NEAR(fx.soas[0]->budgetWatts(0).count(), 750.0, 1e-9);
    EXPECT_NEAR(fx.soas[1]->budgetWatts(0).count(), 750.0, 1e-9);
    EXPECT_EQ(fx.goa.lastBudgets().size(), 2u);
}

TEST(Goa, RecomputeProducesHeterogeneousBudgets)
{
    Fixture fx;
    fx.goa.assignEvenSplit();

    // Collect telemetry: server 1 requests overclocking, server 0
    // does not; the recompute must favour server 1's demand.
    OverclockRequest req;
    req.cores = 8;
    req.groupId = fx.vms[1];
    req.duration = 4 * sim::kHour;
    fx.soas[1]->requestOverclock(req, 0);
    for (Tick t = 0; t < 2 * sim::kHour; t += kMinute) {
        fx.soas[0]->tick(t);
        fx.soas[1]->tick(t);
    }

    recomputeOwnRow(fx.goa, 2 * sim::kHour);
    EXPECT_EQ(fx.goa.recomputeCount(), 1u);
    // Server 1 draws more (util 0.5 vs 0.3, plus overclock) and has
    // all the demand: its budget must exceed server 0's.
    const Tick probe = sim::kHour;
    EXPECT_GT(fx.soas[1]->budgetWatts(probe),
              fx.soas[0]->budgetWatts(probe));
}

TEST(Goa, BudgetsRespectRackLimit)
{
    Fixture fx(3);
    fx.goa.assignEvenSplit();
    for (Tick t = 0; t < sim::kHour; t += kMinute)
        for (auto &soa : fx.soas)
            soa->tick(t);
    recomputeOwnRow(fx.goa, sim::kHour);
    for (Tick t = 0; t < sim::kWeek; t += 37 * kMinute) {
        double sum = 0.0;
        for (const auto &b : fx.goa.lastBudgets())
            sum += b.predict(t);
        EXPECT_LE(sum, fx.rack.limitWatts().count() + 1e-6);
    }
}

TEST(Goa, RecomputeRefreshesOwnTemplates)
{
    // After a recompute, sOAs can do look-ahead admission: verify
    // the profile-based budget responds to the collected history
    // rather than staying at the bootstrap even split.
    Fixture fx;
    fx.goa.assignEvenSplit();
    const power::Watts even = fx.soas[0]->budgetWatts(0);
    for (Tick t = 0; t < sim::kHour; t += kMinute)
        for (auto &soa : fx.soas)
            soa->tick(t);
    recomputeOwnRow(fx.goa, sim::kHour);
    EXPECT_NE(fx.soas[0]->budgetWatts(2 * sim::kHour), even);
}

TEST(Goa, OwnRowRecomputeMatchesAllocatorSplit)
{
    // usableWatts() applies the allocator's safety margin, so a
    // constant row of it splits exactly as BudgetAllocator::split
    // does over the rack limit.
    Fixture fx(3);
    fx.goa.assignEvenSplit();
    OverclockRequest req;
    req.cores = 8;
    req.groupId = fx.vms[2];
    req.duration = 4 * sim::kHour;
    fx.soas[2]->requestOverclock(req, 0);
    tickFor(fx, 2 * sim::kHour);

    const std::vector<ServerProfile> profiles =
        fx.goa.pullProfiles();
    fx.goa.recomputeWithBudget(2 * sim::kHour, ownRow(fx.goa));
    const auto expected =
        BudgetAllocator(model(), fx.goa.config().budget)
            .split(fx.rack.limitWatts(), profiles);
    ASSERT_EQ(fx.goa.lastBudgets().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_TRUE(fx.goa.lastBudgets()[i] == expected[i])
            << "server " << i;
}

TEST(Goa, RecomputeWithBudgetRejectsWrongLengthRow)
{
    // Checked in every build type: the split reads a full week of
    // slots from the row, past the end of a short one.
    Fixture fx;
    fx.goa.assignEvenSplit();
    tickFor(fx, sim::kHour);
    fx.goa.pullProfiles();
    const BudgetState before = budgetState(fx);
    for (std::size_t slots :
         {std::size_t{0}, std::size_t{sim::kSlotsPerWeek - 1},
          std::size_t{sim::kSlotsPerWeek + 1}}) {
        EXPECT_THROW(
            fx.goa.recomputeWithBudget(sim::kHour, usableRow(slots)),
            std::invalid_argument)
            << slots << " slots";
        expectUnchanged(before, fx);
    }
    // The pull survives the rejections: a full row goes through.
    fx.goa.recomputeWithBudget(sim::kHour, usableRow());
    EXPECT_EQ(fx.goa.recomputeCount(), before.recomputes + 1);
}

TEST(Goa, RecomputeWithBudgetBeforeAnyPullThrows)
{
    // No profile pulled: a split over zero profiles would leave
    // lastBudgets() empty and push budgets read past its end.
    Fixture fx;
    fx.goa.assignEvenSplit();
    tickFor(fx, sim::kHour);
    const BudgetState before = budgetState(fx);
    EXPECT_THROW(fx.goa.recomputeWithBudget(sim::kHour, usableRow()),
                 std::logic_error);
    expectUnchanged(before, fx);
}

TEST(Goa, RecomputeWithBudgetAfterReleaseThrows)
{
    Fixture fx;
    fx.goa.assignEvenSplit();
    tickFor(fx, sim::kHour);
    fx.goa.pullProfiles();
    fx.goa.recomputeWithBudget(sim::kHour, usableRow());
    fx.goa.releaseProfiles();
    const BudgetState before = budgetState(fx);
    EXPECT_THROW(fx.goa.recomputeWithBudget(sim::kHour, usableRow()),
                 std::logic_error);
    expectUnchanged(before, fx);
}
