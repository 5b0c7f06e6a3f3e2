#include "core/budget_allocator.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace soc
{
namespace core
{

namespace
{

/**
 * Working memory of splitWeeklyInto, one instance per thread (like
 * SlotAggregator's assembly scratch): the buffers keep their
 * capacity between splits on the same thread, so a worker that
 * splits rack after rack allocates nothing in steady state, and no
 * rack or hierarchy keeps them resident between recomputes.
 */
struct SplitScratch {
    /** Materialized per-member weeks (n x kSlotsPerWeek,
     *  member-major): regular power and overclock demand, filled
     *  once per split instead of predicted per slot. */
    std::vector<double> regularRows;
    std::vector<double> demandRows;
    /** Per-slot sums of the two, members added in index order. */
    std::vector<double> regularSum;
    std::vector<double> demandSum;
    /** One member's template weeks (fillWeek scratch); perCoreRow
     *  holds the surcharge model mapped over the utilization week
     *  (fillWeekMapped), budgetRow the week handed to
     *  assignWeekly. */
    std::vector<double> powerRow;
    std::vector<double> perCoreRow;
    std::vector<double> ocRow;
    std::vector<double> reqRow;
    std::vector<double> budgetRow;
};

SplitScratch &
threadScratch()
{
    thread_local SplitScratch scratch;
    return scratch;
}

} // namespace

BudgetAllocator::BudgetAllocator(const power::PowerModel &model,
                                 BudgetConfig config)
    : model_(model), config_(config)
{
}

power::Watts
BudgetAllocator::regularPower(const ServerProfile &profile,
                              sim::Tick t) const
{
    const power::Watts total{profile.power.predict(t)};
    const double oc_cores = profile.overclockedCores.predict(t);
    const double util = profile.utilization.predict(t);
    const power::Watts surcharge = model_.overclockExtraPower(
        util, config_.demandFreq, 1) * std::max(0.0, oc_cores);
    return std::max(power::Watts{0.0}, total - surcharge);
}

power::Watts
BudgetAllocator::overclockDemand(const ServerProfile &profile,
                                 sim::Tick t) const
{
    const double requested = profile.requestedCores.predict(t);
    const double util = profile.utilization.predict(t);
    return model_.overclockExtraPower(util, config_.demandFreq, 1) *
        std::max(0.0, requested);
}

std::vector<ProfileTemplate>
BudgetAllocator::split(power::Watts limit,
                       const std::vector<ServerProfile> &profiles)
    const
{
    const power::Watts usable =
        limit * (1.0 - config_.safetyFraction);
    const std::vector<double> row(
        static_cast<std::size_t>(sim::kSlotsPerWeek), usable.count());
    std::vector<ProfileTemplate> out;
    splitWeeklyInto(row, profiles, out);
    return out;
}

void
BudgetAllocator::splitWeeklyInto(
    const std::vector<double> &usablePerSlot,
    const std::vector<ServerProfile> &profiles,
    std::vector<ProfileTemplate> &out) const
{
    // Checked in every build: the split reads a full week of slots
    // from the row.
    if (usablePerSlot.size() !=
        static_cast<std::size_t>(sim::kSlotsPerWeek)) {
        throw std::invalid_argument(
            "BudgetAllocator: usable row has " +
            std::to_string(usablePerSlot.size()) + " slots, expected " +
            std::to_string(sim::kSlotsPerWeek));
    }
    if (profiles.empty())
        throw std::invalid_argument("BudgetAllocator: no profiles");
    const std::size_t n = profiles.size();
    const auto slots = static_cast<std::size_t>(sim::kSlotsPerWeek);
    SplitScratch &scratch = threadScratch();

    // Phase 1: materialize each profile's regular-power and
    // overclock-demand weeks up front (profile-outer, bulk
    // fillWeek), instead of 5 predict() calls per (slot, server),
    // and add them into the per-slot sums in member order, so each
    // sum is the one a per-slot loop over the members computes.
    // The expressions mirror regularPower()/overclockDemand()
    // exactly — including computing the per-core surcharge once
    // from the same utilization both share — so every stored value
    // is bit-identical to the per-tick calls.  The surcharge model
    // is mapped over the utilization template with fillWeekMapped:
    // a pure function of the utilization value, so evaluating it
    // per distinct stored value (576 for DailyMed instead of 2016)
    // changes nothing, while the model evaluation per (server,
    // slot) dominated recompute cost.
    scratch.regularRows.resize(n * slots);
    scratch.demandRows.resize(n * slots);
    scratch.regularSum.assign(slots, 0.0);
    scratch.demandSum.assign(slots, 0.0);
    scratch.powerRow.resize(slots);
    scratch.perCoreRow.resize(slots);
    scratch.ocRow.resize(slots);
    scratch.reqRow.resize(slots);
    for (std::size_t i = 0; i < n; ++i) {
        profiles[i].power.fillWeek(scratch.powerRow.data());
        profiles[i].utilization.fillWeekMapped(
            scratch.perCoreRow.data(), [this](double util) {
                return model_
                    .overclockExtraPower(util, config_.demandFreq, 1)
                    .count();
            });
        profiles[i].overclockedCores.fillWeek(scratch.ocRow.data());
        profiles[i].requestedCores.fillWeek(scratch.reqRow.data());
        double *regular_row = &scratch.regularRows[i * slots];
        double *demand_row = &scratch.demandRows[i * slots];
        for (std::size_t slot = 0; slot < slots; ++slot) {
            const power::Watts per_core{scratch.perCoreRow[slot]};
            const power::Watts surcharge =
                per_core * std::max(0.0, scratch.ocRow[slot]);
            regular_row[slot] =
                std::max(power::Watts{0.0},
                         power::Watts{scratch.powerRow[slot]} -
                             surcharge)
                    .count();
            demand_row[slot] =
                (per_core * std::max(0.0, scratch.reqRow[slot]))
                    .count();
            scratch.regularSum[slot] += regular_row[slot];
            scratch.demandSum[slot] += demand_row[slot];
        }
    }

    // Phases 2 and 3, member-outer: each member's week goes
    // through one budgetRow into its output template, so no
    // members x week budget matrix is held.
    out.resize(n);
    scratch.budgetRow.resize(slots);
    for (std::size_t i = 0; i < n; ++i) {
        const double *regular_row = &scratch.regularRows[i * slots];
        const double *demand_row = &scratch.demandRows[i * slots];
        for (std::size_t slot = 0; slot < slots; ++slot) {
            const double usable = usablePerSlot[slot];
            const double regular_sum = scratch.regularSum[slot];
            const double demand_sum = scratch.demandSum[slot];

            // Phase 2: regular power is the initial budget.
            const double headroom = usable - regular_sum;
            if (headroom <= 0.0) {
                // Predicted overload even without overclocking:
                // scale regular budgets to fit so enforcement
                // remains safe.
                const double scale =
                    regular_sum > 0.0 ? usable / regular_sum : 0.0;
                scratch.budgetRow[slot] = regular_row[slot] * scale;
                continue;
            }

            // Phase 3: split headroom by overclock demand; with no
            // recorded demand anywhere, fall back to an even split
            // so fresh servers can still explore.
            const double share = demand_sum > 0.0
                ? headroom * (demand_row[slot] / demand_sum)
                : headroom / static_cast<double>(n);
            scratch.budgetRow[slot] = regular_row[slot] + share;
        }
        out[i].assignWeekly(scratch.budgetRow);
    }
}

} // namespace core
} // namespace soc
