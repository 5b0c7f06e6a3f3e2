/**
 * @file
 * Global Overclocking Agent (gOA) — the per-rack coordinator of
 * Fig. 10.  It periodically (weekly in production) collects each
 * sOA's power/overclock telemetry, rebuilds templates, splits the
 * rack's power limit heterogeneously (BudgetAllocator), and pushes
 * the resulting weekly budget templates back to the sOAs.  Budgets
 * are used locally until the next recompute, so a gOA outage only
 * freezes budget *updates* — decentralized enforcement continues
 * (§III-Q5).
 *
 * Every recompute runs in two phases.  pullProfiles() collects the
 * sOAs' profiles; recomputeWithBudget() splits a per-slot budget row
 * across them and pushes the results.  The row is either the rack's
 * own usableWatts() or the share a BudgetHierarchy handed down.
 *
 * Messages between the gOA and its sOAs traverse a real network.
 * Under fault injection (RecomputeFaults) pushes can be lost,
 * delayed or corrupted: the gOA queues each push with its arrival
 * time, and deliverDue() hands the arrivals to their sOAs once per
 * control step.  Telemetry pulls retry a bounded number of times and
 * fall back to the profile cached from the previous pull when a
 * server stays unreachable.  Every injected fault is counted in
 * stats().
 */

#ifndef SOC_CORE_GOA_HH
#define SOC_CORE_GOA_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/budget_allocator.hh"
#include "core/soa.hh"
#include "power/rack.hh"
#include "sim/fault_injector.hh"

namespace soc
{
namespace core
{

/** gOA knobs. */
struct GoaConfig {
    /** Template strategy (the paper ships DailyMed). */
    TemplateStrategy strategy = TemplateStrategy::DailyMed;
    /** How often budgets are recomputed. */
    sim::Tick recomputePeriod = sim::kWeek;
    /**
     * Lease attached to pushed budgets: an sOA that has not heard
     * from the gOA for leaseTtl decays toward its guaranteed-safe
     * floor instead of trusting an arbitrarily old prediction.
     * 0 disables leases (assignments never expire, the seed
     * behavior).  When enabled it should comfortably exceed
     * recomputePeriod so healthy operation never goes stale.
     */
    sim::Tick leaseTtl = 0;
    BudgetConfig budget;
};

/**
 * Fault hooks threaded through one recompute.  All hooks are
 * optional; a default-constructed instance is a perfect network.
 * Hooks must be pure functions of their arguments (the chaos
 * harness backs them with stateless hashes) so recomputes stay
 * deterministic under any thread interleaving.
 */
struct RecomputeFaults {
    /** Does the telemetry pull from @p server fail on @p attempt? */
    std::function<bool(int server, int attempt)> telemetryLost;
    /** Pull attempts before falling back to the cached profile. */
    int telemetryAttempts = 3;
    /** Is the budget push to @p server lost outright? */
    std::function<bool(int server)> budgetLost;
    /** Extra delivery latency for @p server's push (0 = on time). */
    std::function<sim::Tick(int server)> budgetDelay;
    /**
     * Payload corruption of @p server's push: -1 = clean, otherwise
     * a corruption kind (0 = NaN, 1 = negative, 2 = over the rack
     * limit) the receiving sOA's validation must catch.
     */
    std::function<int(int server)> budgetCorrupt;

    /**
     * The hooks @p plan injects into a recompute at @p now: the one
     * builder both cluster simulators use.  The hooks capture
     * @p plan by reference, so it must outlive every call they are
     * passed to.
     */
    static RecomputeFaults at(const sim::FaultPlan &plan,
                              sim::Tick now);
};

/**
 * Per-rack global agent.  Does not own the sOAs.
 */
class GlobalOverclockingAgent
{
  public:
    GlobalOverclockingAgent(power::Rack &rack,
                            const power::PowerModel &model,
                            GoaConfig config = {});

    const GoaConfig &config() const { return config_; }
    /** Faults this gOA saw (the FaultStats fields marked [gOA]). */
    const sim::FaultStats &stats() const { return stats_; }

    /**
     * Register a managed sOA.  Agents must be registered in the
     * same order as the rack's servers — budget recomputes pair
     * profile i with server i, so a scrambled registration silently
     * assigns every server its neighbor's budget.  Violations throw
     * std::invalid_argument immediately instead of corrupting
     * budgets later:
     *  - @p agent must be non-null,
     *  - at most rack.serverCount() agents can be registered,
     *  - agent->server() must be the rack's server at the next
     *    registration index.
     *
     * Registration also seeds the agent's guaranteed-safe fallback
     * budget (the even split of the rack limit) used in degraded
     * mode.
     */
    void addAgent(ServerOverclockingAgent *agent);

    std::size_t agentCount() const { return agents_.size(); }

    /**
     * Bootstrap assignment before any telemetry exists: every
     * server gets an even share of the rack limit (§III-Q4's naive
     * split, which the first recompute replaces).
     */
    void assignEvenSplit();

    /**
     * Usable watts of this rack: its limit less the safety margin.
     * A gOA that splits its own rack's limit passes a constant row
     * of this value to recomputeWithBudget.
     */
    power::Watts usableWatts() const
    {
        return rack_.limitWatts() *
            (1.0 - config_.budget.safetyFraction);
    }

    /**
     * First phase of a recompute: pull every sOA's profile and
     * cache it for recomputeWithBudget.  Each reached sOA writes its
     * profile into its entry in place, so pulling twice without an
     * intervening slot close assembles nothing and yields the same
     * profiles.  With @p faults hooked, each pull goes through
     * faults.telemetryLost with bounded retry; a server that stays
     * unreachable keeps the profile cached from its last successful
     * pull (an idle profile if there was none), counted in
     * stats().telemetryDrops.  Returns the cached profiles, so a
     * hierarchical tier (core::BudgetHierarchy) can aggregate them
     * before deciding the rack's budget.
     */
    const std::vector<ServerProfile> &
    pullProfiles(const RecomputeFaults &faults = {});

    /**
     * Second phase of a recompute over a perfect network: split
     * @p usablePerSlot (one usable-watts entry per slot of the week,
     * consumed as-is — see usableWatts() and
     * BudgetAllocator::splitWeeklyInto) across the profiles pulled
     * by pullProfiles(), and apply each sOA's budget (which also
     * refreshes its own template).  Counts as one recompute.  The
     * steady-state hot path: the split reuses its thread's scratch
     * and the gOA's budget templates, and no push is queued, so it
     * is allocation-free once warm (releaseProfiles() gives the
     * templates up).  Throws std::logic_error when the gOA does not hold
     * one pulled profile per sOA (no pull yet, or releaseProfiles()
     * since), and std::invalid_argument for a row that is not
     * sim::kSlotsPerWeek long; either throw leaves every budget and
     * counter unchanged.
     */
    void recomputeWithBudget(sim::Tick now,
                             const std::vector<double> &usablePerSlot);

    /**
     * Fault-aware second phase: the same split, but every push goes
     * through @p faults and into the gOA's queue instead of being
     * applied.  Lost pushes are never queued, delayed pushes arrive
     * later, and corrupted pushes carry a poisoned payload for the
     * sOA's validation to reject (all counted in stats()).  On-time
     * pushes are queued too: deliverDue(now) applies them.  Throws
     * like the two-argument form.
     */
    void recomputeWithBudget(sim::Tick now,
                             const std::vector<double> &usablePerSlot,
                             const RecomputeFaults &faults);

    /**
     * Apply every queued push that has arrived by @p now, in arrival
     * order; pushes arriving on the same tick land in issue order,
     * so a later recompute's budget and lease win over an earlier
     * delayed one.  Rejections count in stats().budgetRejects.
     */
    void deliverDue(sim::Tick now);

    /**
     * Drop the recompute's working storage (fleet-scale footprint
     * trim between lockstep boundaries): the cached profiles,
     * lastBudgets() and the reused assignment payload.  Every sOA
     * keeps its own copy of its budget, and between boundaries only
     * those copies are read.  Only safe when no degraded-mode
     * fallback relies on cached profiles — i.e. fault injection is
     * off; the next pull and recomputeWithBudget rebuild
     * everything.
     */
    void releaseProfiles();

    /** Budgets from the last recompute (empty before the first and
     *  after releaseProfiles()). */
    const std::vector<ProfileTemplate> &lastBudgets() const
    {
        return lastBudgets_;
    }

    std::uint64_t recomputeCount() const { return recomputes_; }

  private:
    /** One budget push in flight to sOA agents_[server]. */
    struct PendingAssignment {
        std::size_t server = 0;
        /** Simulated arrival time (>= issue time when delayed). */
        sim::Tick deliverAt = 0;
        BudgetAssignment assignment;
    };

    /** Split @p usablePerSlot over the pulled profiles into
     *  lastBudgets_ and count the recompute (throws as documented
     *  on recomputeWithBudget). */
    void splitPulled(const std::vector<double> &usablePerSlot);

    /** Fill @p assignment for server @p i's budget at @p now. */
    void fillAssignment(BudgetAssignment &assignment, std::size_t i,
                        sim::Tick now) const;

    power::Rack &rack_;
    const power::PowerModel &model_;
    GoaConfig config_;
    BudgetAllocator allocator_;
    std::vector<ServerOverclockingAgent *> agents_;
    std::vector<ProfileTemplate> lastBudgets_;
    /** Profiles from the last successful pull per server; the
     *  stale-telemetry fallback, and (in place) the split input. */
    std::vector<ServerProfile> lastProfiles_;
    std::vector<bool> lastProfileValid_;
    /** Reused assignment payload for the perfect-network path. */
    BudgetAssignment assignScratch_;
    /** Queued pushes, sorted by deliverAt from nextDelivery_ on;
     *  emptied once every entry has been delivered. */
    std::vector<PendingAssignment> inFlight_;
    std::size_t nextDelivery_ = 0;
    std::uint64_t recomputes_ = 0;
    sim::FaultStats stats_;
};

} // namespace core
} // namespace soc

#endif // SOC_CORE_GOA_HH
