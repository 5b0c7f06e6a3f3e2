/**
 * @file
 * Heterogeneous power-budget computation (§IV-C).
 *
 * The gOA combines the power and overclock templates reported by
 * each sOA and splits the rack limit per telemetry slot in three
 * phases:
 *
 *  1. separate each server's draw into regular and overclock power
 *     (the overclock-template core counts discriminate the two);
 *  2. assign each server an initial budget equal to its regular
 *     draw;
 *  3. distribute the remaining headroom proportionally to each
 *     server's historical overclock power demand.
 *
 * Worked example from the paper (two servers, 1.3 kW limit, regular
 * 400 W / 300 W, overclock demand 50 W / 100 W):
 * budgets = 400 + 50/150 * 600 = 600 W and 300 + 100/150 * 600
 * = 700 W.
 */

#ifndef SOC_CORE_BUDGET_ALLOCATOR_HH
#define SOC_CORE_BUDGET_ALLOCATOR_HH

#include <vector>

#include "core/profile_template.hh"
#include "power/power_model.hh"

namespace soc
{
namespace core
{

/** Per-server inputs to the budget computation. */
struct ServerProfile {
    /** Predicted total power draw (includes past overclocking). */
    ProfileTemplate power;
    /** Predicted CPU utilization in [0, 1]. */
    ProfileTemplate utilization;
    /** Predicted number of cores granted overclocking. */
    ProfileTemplate overclockedCores;
    /** Predicted number of cores that *requested* overclocking. */
    ProfileTemplate requestedCores;
};

/** Configuration of the split. */
struct BudgetConfig {
    /** Fraction of the limit withheld as a safety margin. */
    double safetyFraction = 0.005;
    /**
     * Overclock frequency assumed when estimating a server's
     * overclock power demand from its requested-core template.
     */
    power::FreqMHz demandFreq = power::kOverclockMHz;
};

/**
 * The gOA's budget allocator.  Stateless; one call produces a full
 * week of per-slot budgets for every server.
 */
class BudgetAllocator
{
  public:
    BudgetAllocator(const power::PowerModel &model,
                    BudgetConfig config = {});

    /**
     * Split @p limit across servers for every slot of a week: the
     * convenience form of splitWeeklyInto over a constant row of
     * limit * (1 - safetyFraction), into a fresh output vector.
     *
     * @param limit    Rack power limit.
     * @param profiles One profile per server.
     * @return one weekly budget template per server, same order.
     */
    std::vector<ProfileTemplate>
    split(power::Watts limit,
          const std::vector<ServerProfile> &profiles) const;

    /**
     * Split a *per-slot* limit across members.  @p usablePerSlot
     * holds one usable-watts value per slot of the week
     * (sim::kSlotsPerWeek entries) and is consumed as-is — no
     * safety fraction is re-applied, so a hierarchy applying the
     * margin once at the top level can pass intermediate budgets
     * down unchanged (see core/budget_hierarchy.hh).  @p out is
     * resized to profiles.size(); its templates are overwritten in
     * place (assignWeekly), so repeated calls with the same output
     * vector perform no steady-state allocation.  The working
     * memory (two members x kSlotsPerWeek matrices plus a few week
     * rows) is thread-local, private to budget_allocator.cc, and
     * keeps its capacity between calls on the same thread, so no
     * caller carries it between recomputes.  A row of any other
     * length, or an empty @p profiles, throws std::invalid_argument
     * before @p out is touched.
     */
    void splitWeeklyInto(const std::vector<double> &usablePerSlot,
                         const std::vector<ServerProfile> &profiles,
                         std::vector<ProfileTemplate> &out) const;

    /**
     * Regular (non-overclock) power of a server at @p t: predicted
     * total draw minus the modelled overclock surcharge of the cores
     * that were overclocked.
     */
    power::Watts regularPower(const ServerProfile &profile,
                              sim::Tick t) const;

    /**
     * Overclock power demand of a server at @p t, from the
     * requested-core template (phase 3 weights).
     */
    power::Watts overclockDemand(const ServerProfile &profile,
                                 sim::Tick t) const;

  private:
    const power::PowerModel &model_;
    BudgetConfig config_;
};

} // namespace core
} // namespace soc

#endif // SOC_CORE_BUDGET_ALLOCATOR_HH
