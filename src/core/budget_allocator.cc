#include "core/budget_allocator.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace soc
{
namespace core
{

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
    SplitScratch scratch;
    std::vector<ProfileTemplate> out;
    splitInto(limit, profiles, scratch, out);
    return out;
}

void
BudgetAllocator::splitInto(power::Watts limit,
                           const std::vector<ServerProfile> &profiles,
                           SplitScratch &scratch,
                           std::vector<ProfileTemplate> &out) const
{
    // Scratch buffers feed ProfileTemplate::assignWeekly, which
    // stores raw doubles; the unit drops to a raw count only at
    // the splitImpl boundary below.
    const power::Watts usable =
        limit * (1.0 - config_.safetyFraction);
    splitImpl(nullptr, usable.count(), profiles, scratch, out);
}

void
BudgetAllocator::splitWeeklyInto(
    const std::vector<double> &usablePerSlot,
    const std::vector<ServerProfile> &profiles,
    SplitScratch &scratch,
    std::vector<ProfileTemplate> &out) const
{
    // Checked in every build: splitImpl reads a full week of slots
    // from the row.
    if (usablePerSlot.size() !=
        static_cast<std::size_t>(sim::kSlotsPerWeek)) {
        throw std::invalid_argument(
            "BudgetAllocator: usable row has " +
            std::to_string(usablePerSlot.size()) + " slots, expected " +
            std::to_string(sim::kSlotsPerWeek));
    }
    splitImpl(usablePerSlot.data(), 0.0, profiles, scratch, out);
}

void
BudgetAllocator::splitImpl(const double *usablePerSlot,
                           double usableFlat,
                           const std::vector<ServerProfile> &profiles,
                           SplitScratch &scratch,
                           std::vector<ProfileTemplate> &out) const
{
    assert(!profiles.empty());
    const std::size_t n = profiles.size();
    const auto slots = static_cast<std::size_t>(sim::kSlotsPerWeek);

    // Per-slot scratch hoisted out of the 2016-iteration loop, and
    // per-server weekly buffers reused call to call (assign keeps
    // capacity).
    scratch.regular.assign(n, 0.0);
    scratch.demand.assign(n, 0.0);
    scratch.budgets.resize(n);
    for (auto &weekly : scratch.budgets)
        weekly.assign(sim::kSlotsPerWeek, 0.0);

    // Phase 1: materialize each profile's regular-power and
    // overclock-demand weeks up front (profile-outer, bulk
    // fillWeek), instead of 5 predict() calls per (slot, server).
    // The expressions mirror regularPower()/overclockDemand()
    // exactly — including computing the per-core surcharge once
    // from the same utilization both share — so every stored value
    // is bit-identical to the per-tick calls this replaces.  The
    // surcharge model is mapped over the utilization template with
    // fillWeekMapped: a pure function of the utilization value, so
    // evaluating it per distinct stored value (576 for DailyMed
    // instead of 2016) changes nothing, while the model evaluation
    // per (server, slot) dominated recompute cost.
    scratch.regularRows.resize(n * slots);
    scratch.demandRows.resize(n * slots);
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
        }
    }

    for (int slot = 0; slot < sim::kSlotsPerWeek; ++slot) {
        const double usable = usablePerSlot != nullptr
            ? usablePerSlot[slot]
            : usableFlat;

        // Phase 2: regular power is the initial budget.
        double regular_sum = 0.0;
        double demand_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            scratch.regular[i] =
                scratch.regularRows[i * slots + slot];
            regular_sum += scratch.regular[i];
            scratch.demand[i] = scratch.demandRows[i * slots + slot];
            demand_sum += scratch.demand[i];
        }

        const double headroom = usable - regular_sum;
        if (headroom <= 0.0) {
            // Predicted overload even without overclocking: scale
            // regular budgets to fit so enforcement remains safe.
            const double scale =
                regular_sum > 0.0 ? usable / regular_sum : 0.0;
            for (std::size_t i = 0; i < n; ++i)
                scratch.budgets[i][slot] =
                    scratch.regular[i] * scale;
            continue;
        }

        // Phase 3: split headroom by overclock demand; with no
        // recorded demand anywhere, fall back to an even split so
        // fresh servers can still explore.
        for (std::size_t i = 0; i < n; ++i) {
            const double share = demand_sum > 0.0
                ? headroom * (scratch.demand[i] / demand_sum)
                : headroom / static_cast<double>(n);
            scratch.budgets[i][slot] = scratch.regular[i] + share;
        }
    }

    out.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i].assignWeekly(scratch.budgets[i]);
}

} // namespace core
} // namespace soc
