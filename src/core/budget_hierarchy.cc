#include "core/budget_hierarchy.hh"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace soc
{
namespace core
{

BudgetHierarchy::BudgetHierarchy(const power::PowerModel &model,
                                 HierarchyConfig config)
    : model_(model), config_(config), allocator_(model, config.budget)
{
    // Checked in every build: rack ids map to rows by division.
    if (config_.racksPerRow < 1) {
        throw std::invalid_argument(
            "BudgetHierarchy: racksPerRow must be >= 1 (got " +
            std::to_string(config_.racksPerRow) + ")");
    }
}

void
ProfileAggregator::aggregate(const ServerProfile *members,
                             std::size_t count, ServerProfile &out)
{
    assert(count > 0);
    const auto slots = static_cast<std::size_t>(sim::kSlotsPerWeek);
    power_.assign(slots, 0.0);
    util_.assign(slots, 0.0);
    oc_.assign(slots, 0.0);
    req_.assign(slots, 0.0);
    // Member-outer with a bulk fillWeek per template: each slot
    // still accumulates members in index order, so the sums are
    // bit-identical to the per-tick predict loop this replaces —
    // without re-deriving slot-of-week 2016 times per template.
    row_.resize(slots);
    const auto accumulate = [&](const ProfileTemplate &tmpl,
                                std::vector<double> &acc) {
        tmpl.fillWeek(row_.data());
        for (std::size_t slot = 0; slot < slots; ++slot)
            acc[slot] += row_[slot];
    };
    for (std::size_t m = 0; m < count; ++m) {
        const ServerProfile &p = members[m];
        accumulate(p.power, power_);
        accumulate(p.utilization, util_);
        accumulate(p.overclockedCores, oc_);
        accumulate(p.requestedCores, req_);
    }
    // Power and core counts add; utilization is the members' mean
    // (it only feeds the allocator's per-core surcharge model, where
    // a representative utilization is what the flat split uses too).
    for (std::size_t slot = 0; slot < slots; ++slot)
        util_[slot] /= static_cast<double>(count);
    out.power.assignWeekly(power_);
    out.utilization.assignWeekly(util_);
    out.overclockedCores.assignWeekly(oc_);
    out.requestedCores.assignWeekly(req_);
}

int
BudgetHierarchy::addRackAggregate(ServerProfile aggregate)
{
    const int id = static_cast<int>(rackCount_);
    ++rackCount_;
    const auto row = static_cast<std::size_t>(id) /
        static_cast<std::size_t>(config_.racksPerRow);
    if (row >= rowCount_) {
        rowCount_ = row + 1;
        rackAggregates_.emplace_back();
        rackBudgets_.emplace_back();
        rowAggregates_.emplace_back();
        rowDirty_.push_back(true);
    }
    rackAggregates_[row].push_back(std::move(aggregate));
    rowDirty_[row] = true;
    return id;
}

void
BudgetHierarchy::exchangeRackAggregate(int rack,
                                       ServerProfile &aggregate)
{
    const auto r = static_cast<std::size_t>(rack);
    const auto k = static_cast<std::size_t>(config_.racksPerRow);
    std::swap(rackAggregates_[r / k][r % k], aggregate);
    rowDirty_[r / k] = true;
}

void
BudgetHierarchy::recompute(power::Watts zoneLimit)
{
    if (rackCount_ == 0)
        return;

    // 1. Rebuild stale row aggregates from their rack aggregates.
    for (std::size_t row = 0; row < rowCount_; ++row) {
        if (!rowDirty_[row])
            continue;
        aggregator_.aggregate(rackAggregates_[row].data(),
                              rackAggregates_[row].size(),
                              rowAggregates_[row]);
        rowDirty_[row] = false;
        ++stats_.rowAggregations;
    }

    // 2. Zone -> rows.  The safety margin is applied here, once.
    const auto slots = static_cast<std::size_t>(sim::kSlotsPerWeek);
    const power::Watts usable =
        zoneLimit * (1.0 - config_.budget.safetyFraction);
    limitRow_.assign(slots, usable.count());
    allocator_.splitWeeklyInto(limitRow_, rowAggregates_, scratch_,
                               rowBudgets_);
    ++stats_.splits;

    // 3. Row -> racks, per row, over the row's per-slot budget.
    for (std::size_t row = 0; row < rowCount_; ++row) {
        rowBudgets_[row].fillWeek(limitRow_.data());
        allocator_.splitWeeklyInto(limitRow_, rackAggregates_[row],
                                   scratch_, rackBudgets_[row]);
        ++stats_.splits;
    }
}

} // namespace core
} // namespace soc
