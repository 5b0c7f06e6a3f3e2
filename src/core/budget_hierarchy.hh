/**
 * @file
 * Hierarchical gOA budget tier: rack -> row -> zone.
 *
 * A flat BudgetAllocator split prices a zone at O(servers x slots)
 * per recompute.  At fleet scale (thousands of racks) the gOA
 * instead splits in two coarse stages over *aggregated* profiles:
 *
 *   zone limit --(split over row aggregates)--> row budgets
 *   row budget --(split over rack aggregates)--> rack budgets
 *
 * where a rack aggregate sums its servers' power / overclocked-core
 * / requested-core templates (utilization is averaged) and a row
 * aggregate does the same over its racks.  Racks arrive aggregated:
 * each per-rack gOA reduces its own servers' profiles with a
 * ProfileAggregator and hands the hierarchy one profile per rack.
 * Each gOA then splits its rack budget across its servers.
 *
 * Costs per recompute, with R racks grouped into rows of k racks:
 *
 *  - aggregation: O(k x slots) per row holding a rack whose
 *    aggregate was exchanged since the last recompute (dirty
 *    tracking per row — untouched rows reuse their aggregate);
 *  - splits: O((R/k + R) x slots), independent of the server count.
 *
 * The safety margin is applied once, at the zone level; the
 * intermediate splits use BudgetAllocator::splitWeeklyInto, which
 * consumes per-slot limits as-is.  Everything is a pure function of
 * the registered aggregates and the zone limit: recompute(), run
 * incrementally after any sequence of exchangeRackAggregate calls,
 * yields budgets bit-identical to a freshly built hierarchy over the
 * same inputs (enforced by tests/core/budget_hierarchy_test.cc).
 */

#ifndef SOC_CORE_BUDGET_HIERARCHY_HH
#define SOC_CORE_BUDGET_HIERARCHY_HH

#include <cstdint>
#include <vector>

#include "core/budget_allocator.hh"

namespace soc
{
namespace core
{

/** Shape and pricing knobs of the rack/row/zone tier. */
struct HierarchyConfig {
    /** Racks per row; the zone splits across ceil(racks / this). */
    int racksPerRow = 8;
    /** Allocator knobs; safetyFraction is applied once, zone-level. */
    BudgetConfig budget;
};

/**
 * Sums member profiles' predictions slot by slot into one weekly
 * aggregate profile: power and core counts add, utilization is the
 * members' mean.  The reduction both hierarchy tiers use, exposed so
 * a per-rack gOA can pre-aggregate its own servers where the
 * profiles live (trace sim hot path) and hand the hierarchy one
 * profile per rack instead of servers-per-rack of them.
 * Allocation-free after the first aggregate() (scratch retained).
 */
class ProfileAggregator
{
  public:
    /** Aggregate @p count member profiles into @p out (whose weekly
     *  templates are overwritten in place). */
    void aggregate(const ServerProfile *members, std::size_t count,
                   ServerProfile &out);

  private:
    std::vector<double> power_;
    std::vector<double> util_;
    std::vector<double> oc_;
    std::vector<double> req_;
    /** One template's week, reused across members (fillWeek). */
    std::vector<double> row_;
};

/**
 * Fleet-scale budget splitter over rack/row aggregates; see the
 * file comment.  Deterministic: no clocks, no RNG, iteration in
 * rack-id order.
 */
class BudgetHierarchy
{
  public:
    /** Recompute-cost counters, for tests and the bench driver. */
    struct Stats {
        /** Rack aggregates rebuilt by the hierarchy itself.  Always
         *  0: racks arrive pre-aggregated.  Kept because the
         *  benchmark digest reports it (hier_rack_aggregations). */
        std::uint64_t rackAggregations = 0;
        /** Row aggregates rebuilt. */
        std::uint64_t rowAggregations = 0;
        /** Allocator splits performed (zone + per-row). */
        std::uint64_t splits = 0;
    };

    /** Throws std::invalid_argument unless config.racksPerRow >= 1
     *  (checked in every build). */
    BudgetHierarchy(const power::PowerModel &model,
                    HierarchyConfig config = {});

    /**
     * Register a rack by its aggregate profile (one
     * ProfileAggregator reduction over its servers); returns the
     * rack id (sequential).  Racks fill rows in id order: rack r
     * belongs to row r / racksPerRow.  The per-rack gOAs own the
     * server profiles and push fresh aggregates each recompute tick
     * through exchangeRackAggregate, so the hierarchy never stores
     * per-server state.  A default-constructed aggregate is allowed
     * at registration (it reads as an idle rack until the first
     * exchange).
     */
    int addRackAggregate(ServerProfile aggregate);

    /**
     * Swap in @p aggregate as rack @p rack's current aggregate
     * profile (the previous one is swapped out into @p aggregate for
     * the caller to reuse — zero steady-state allocation) and mark
     * its row dirty.
     */
    void exchangeRackAggregate(int rack, ServerProfile &aggregate);

    /**
     * Rebuild dirty row aggregates and re-split @p zoneLimit down to
     * per-rack budgets.  Splits always rerun (the limit may have
     * changed); aggregation cost scales with the dirty rows only.
     */
    void recompute(power::Watts zoneLimit);

    /** Weekly budget template of @p rack (valid after recompute). */
    const ProfileTemplate &rackBudget(int rack) const
    {
        const auto r = static_cast<std::size_t>(rack);
        const auto k = static_cast<std::size_t>(config_.racksPerRow);
        return rackBudgets_[r / k][r % k];
    }

    std::size_t racks() const { return rackCount_; }
    std::size_t rows() const { return rowCount_; }
    const Stats &stats() const { return stats_; }

  private:
    const power::PowerModel &model_;
    HierarchyConfig config_;
    BudgetAllocator allocator_;

    std::size_t rackCount_ = 0;
    /** Rack-level aggregates, grouped by row (rack r sits at
     *  [r / racksPerRow][r % racksPerRow]) so each row's members
     *  feed the allocator contiguously, copy-free. */
    std::vector<std::vector<ServerProfile>> rackAggregates_;
    /** Row-level aggregates, by row id. */
    std::vector<ServerProfile> rowAggregates_;
    /** Rows whose aggregate is stale. */
    std::vector<bool> rowDirty_;
    std::size_t rowCount_ = 0;

    /** Outputs of the last recompute (rack budgets grouped like
     *  rackAggregates_). */
    std::vector<ProfileTemplate> rowBudgets_;
    std::vector<std::vector<ProfileTemplate>> rackBudgets_;

    /** Scratch reused across recomputes (allocation-free steady
     *  state; the splits keep theirs per thread). */
    ProfileAggregator aggregator_;
    std::vector<double> limitRow_;

    Stats stats_;
};

} // namespace core
} // namespace soc

#endif // SOC_CORE_BUDGET_HIERARCHY_HH
