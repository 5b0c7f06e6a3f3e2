/** @file Unit tests for the rack -> row -> zone budget tier. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/budget_hierarchy.hh"

using namespace soc;
using namespace soc::core;

namespace
{

const power::PowerModel &
model()
{
    static const power::PowerModel instance;
    return instance;
}

ServerProfile
flatProfile(double watts, double util, double oc_cores,
            double req_cores)
{
    ServerProfile profile;
    profile.power = ProfileTemplate::flat(watts);
    profile.utilization = ProfileTemplate::flat(util);
    profile.overclockedCores = ProfileTemplate::flat(oc_cores);
    profile.requestedCores = ProfileTemplate::flat(req_cores);
    return profile;
}

/** A small synthetic fleet: @p racks racks of @p servers servers,
 *  with per-rack variation so the splits are non-trivial. */
std::vector<std::vector<ServerProfile>>
fleetProfiles(int racks, int servers)
{
    std::vector<std::vector<ServerProfile>> fleet;
    for (int r = 0; r < racks; ++r) {
        std::vector<ServerProfile> rack;
        for (int s = 0; s < servers; ++s) {
            rack.push_back(flatProfile(300.0 + 10.0 * (r % 5),
                                       0.4 + 0.05 * (s % 4),
                                       static_cast<double>(s % 3),
                                       4.0 + (r + s) % 6));
        }
        fleet.push_back(std::move(rack));
    }
    return fleet;
}

/** Register @p rack's servers as one aggregated rack (the way the
 *  trace sim's gOAs hand their racks to the hierarchy). */
int
addAggregatedRack(BudgetHierarchy &hierarchy,
                  const std::vector<ServerProfile> &rack)
{
    ProfileAggregator aggregator;
    ServerProfile aggregate;
    aggregator.aggregate(rack.data(), rack.size(), aggregate);
    return hierarchy.addRackAggregate(std::move(aggregate));
}

} // namespace

TEST(BudgetHierarchy, RackBudgetsConserveZoneLimit)
{
    HierarchyConfig cfg;
    cfg.racksPerRow = 4;
    cfg.budget.safetyFraction = 0.0;
    BudgetHierarchy hierarchy(model(), cfg);
    for (const auto &rack : fleetProfiles(12, 6))
        addAggregatedRack(hierarchy, rack);
    const double zone = 12 * 6 * 450.0;
    hierarchy.recompute(power::Watts{zone});

    ASSERT_EQ(hierarchy.racks(), 12u);
    EXPECT_EQ(hierarchy.rows(), 3u);
    double total = 0.0;
    for (int r = 0; r < 12; ++r)
        total += hierarchy.rackBudget(r).predict(0);
    // Both split levels conserve exactly when headroom is positive.
    EXPECT_NEAR(total, zone, zone * 1e-9);
}

TEST(BudgetHierarchy, HigherDemandRackGetsMoreBudget)
{
    HierarchyConfig cfg;
    cfg.racksPerRow = 2;
    BudgetHierarchy hierarchy(model(), cfg);
    // Two racks in one row: identical regular power, demand 2 vs 12
    // requested cores per server.
    addAggregatedRack(hierarchy, {flatProfile(300.0, 0.5, 0.0, 2.0),
                                  flatProfile(300.0, 0.5, 0.0, 2.0)});
    addAggregatedRack(hierarchy,
                      {flatProfile(300.0, 0.5, 0.0, 12.0),
                       flatProfile(300.0, 0.5, 0.0, 12.0)});
    hierarchy.recompute(power::Watts{2000.0});
    EXPECT_GT(hierarchy.rackBudget(1).predict(0),
              hierarchy.rackBudget(0).predict(0));
}

TEST(BudgetHierarchy, SingleRackReceivesWholeUsableLimit)
{
    HierarchyConfig cfg;
    cfg.budget.safetyFraction = 0.01;
    BudgetHierarchy hierarchy(model(), cfg);
    addAggregatedRack(hierarchy, {flatProfile(350.0, 0.5, 1.0, 6.0),
                                  flatProfile(420.0, 0.6, 0.0, 3.0)});
    hierarchy.recompute(power::Watts{3000.0});
    // One rack in one row: every split is a 1-member split, so the
    // whole usable budget (margin applied exactly once) lands on it.
    EXPECT_NEAR(hierarchy.rackBudget(0).predict(0), 3000.0 * 0.99,
                1e-6);
}

TEST(BudgetHierarchy, IncrementalRecomputeMatchesFreshBuild)
{
    // 10 racks in rows of 4: the last row is partial.
    const auto fleet = fleetProfiles(10, 5);
    HierarchyConfig cfg;
    cfg.racksPerRow = 4;

    BudgetHierarchy incremental(model(), cfg);
    for (const auto &rack : fleet)
        addAggregatedRack(incremental, rack);
    incremental.recompute(power::Watts{20000.0});

    // Mutate one rack and recompute incrementally.
    auto changed = fleet;
    changed[7][2] = flatProfile(500.0, 0.9, 2.0, 10.0);
    const auto base_aggs = incremental.stats().rowAggregations;
    ProfileAggregator aggregator;
    ServerProfile slot;
    aggregator.aggregate(changed[7].data(), changed[7].size(), slot);
    incremental.exchangeRackAggregate(7, slot);
    incremental.recompute(power::Watts{20000.0});
    // Only the dirty rack's row was re-aggregated.
    EXPECT_EQ(incremental.stats().rowAggregations - base_aggs, 1u);

    // A hierarchy built fresh over the mutated fleet agrees
    // bit-identically on every rack budget.
    BudgetHierarchy fresh(model(), cfg);
    for (const auto &rack : changed)
        addAggregatedRack(fresh, rack);
    fresh.recompute(power::Watts{20000.0});
    for (int r = 0; r < 10; ++r)
        EXPECT_EQ(incremental.rackBudget(r), fresh.rackBudget(r))
            << "rack " << r;
}

TEST(BudgetHierarchy, CleanRecomputeSkipsAllAggregation)
{
    BudgetHierarchy hierarchy(model(), {});
    for (const auto &rack : fleetProfiles(6, 4))
        addAggregatedRack(hierarchy, rack);
    hierarchy.recompute(power::Watts{10000.0});
    const auto row_aggs = hierarchy.stats().rowAggregations;
    // Limit changes re-split but touch no aggregates.
    hierarchy.recompute(power::Watts{12000.0});
    EXPECT_EQ(hierarchy.stats().rowAggregations, row_aggs);
    // Racks arrive aggregated: the hierarchy never rebuilds one.
    EXPECT_EQ(hierarchy.stats().rackAggregations, 0u);
}

TEST(BudgetHierarchy, RejectsNonPositiveRacksPerRow)
{
    // Checked in every build: 0 would divide by zero at the second
    // registration, and a negative count would put every rack in
    // row 0.
    for (const int racks_per_row : {0, -3}) {
        HierarchyConfig cfg;
        cfg.racksPerRow = racks_per_row;
        EXPECT_THROW(BudgetHierarchy(model(), cfg),
                     std::invalid_argument)
            << "racksPerRow " << racks_per_row;
    }
}

TEST(BudgetAllocatorWeekly, ConstantRowMatchesScalarSplit)
{
    BudgetConfig cfg;
    BudgetAllocator allocator(model(), cfg);
    const std::vector<ServerProfile> profiles = {
        flatProfile(400.0, 0.5, 1.0, 4.0),
        flatProfile(350.0, 0.7, 0.0, 8.0),
    };
    const auto scalar =
        allocator.split(power::Watts{2000.0}, profiles);

    const double usable = 2000.0 * (1.0 - cfg.safetyFraction);
    std::vector<double> row(
        static_cast<std::size_t>(sim::kSlotsPerWeek), usable);
    std::vector<ProfileTemplate> weekly;
    allocator.splitWeeklyInto(row, profiles, weekly);

    ASSERT_EQ(scalar.size(), weekly.size());
    for (std::size_t i = 0; i < scalar.size(); ++i)
        EXPECT_EQ(scalar[i], weekly[i]);
}

TEST(BudgetHierarchy, ExchangePropagatesDirtinessToItsRowOnly)
{
    const auto fleet = fleetProfiles(8, 4);
    HierarchyConfig cfg;
    cfg.racksPerRow = 4;

    BudgetHierarchy hierarchy(model(), cfg);
    for (const auto &rack : fleet)
        addAggregatedRack(hierarchy, rack);
    hierarchy.recompute(power::Watts{16000.0});
    const auto row_aggs = hierarchy.stats().rowAggregations;

    // Swap a hotter aggregate into rack 6 (row 1); its old
    // aggregate comes back in the slot for reuse.
    std::vector<ServerProfile> hot(
        4, flatProfile(500.0, 0.9, 2.0, 10.0));
    ProfileAggregator aggregator;
    ServerProfile slot;
    aggregator.aggregate(hot.data(), hot.size(), slot);
    hierarchy.exchangeRackAggregate(6, slot);
    hierarchy.recompute(power::Watts{16000.0});
    // Only the touched row re-aggregated; budgets match a fresh
    // build over the same aggregates.
    EXPECT_EQ(hierarchy.stats().rowAggregations - row_aggs, 1u);

    BudgetHierarchy fresh(model(), cfg);
    for (int r = 0; r < 8; ++r)
        addAggregatedRack(fresh,
                          r == 6 ? hot
                                 : fleet[static_cast<std::size_t>(r)]);
    fresh.recompute(power::Watts{16000.0});
    for (int r = 0; r < 8; ++r)
        EXPECT_EQ(hierarchy.rackBudget(r), fresh.rackBudget(r))
            << "rack " << r;
}
