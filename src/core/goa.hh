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
 * Messages between the gOA and its sOAs traverse a real network, so
 * the recompute path is split in two: recompute() produces a batch
 * of PendingAssignment deliveries (each with a delivery time), and
 * deliver() applies one to its sOA.  The fault-injection harness
 * drops, delays and corrupts deliveries between the two halves;
 * telemetry pulls retry a bounded number of times and fall back to
 * the profile cached from the previous recompute when a server
 * stays unreachable.
 */

#ifndef SOC_CORE_GOA_HH
#define SOC_CORE_GOA_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/budget_allocator.hh"
#include "core/soa.hh"
#include "power/rack.hh"

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

/** gOA-side fault/robustness counters. */
struct GoaStats {
    /** Telemetry pull attempts that failed (per retry). */
    std::uint64_t telemetryRetries = 0;
    /** Recomputes where a server's profile came from the cache
     *  because every pull attempt failed. */
    std::uint64_t staleProfiles = 0;
    /** Budget assignments lost in flight (never delivered). */
    std::uint64_t assignmentsDropped = 0;
    /** Budget assignments delivered late. */
    std::uint64_t assignmentsDelayed = 0;
    /** Deliveries the receiving sOA rejected as invalid. */
    std::uint64_t assignmentsRejected = 0;
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
};

/** One budget push in flight from the gOA to an sOA. */
struct PendingAssignment {
    ServerOverclockingAgent *agent = nullptr;
    int serverIndex = -1;
    /** Simulated arrival time (>= issue time when delayed). */
    sim::Tick deliverAt = 0;
    BudgetAssignment assignment;
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
    const GoaStats &stats() const { return stats_; }

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
     * Periodic recompute: profiles -> heterogeneous weekly budgets
     * -> push to sOAs (also refreshes each sOA's own template).
     * Deliveries happen immediately (perfect network).  This is the
     * steady-state hot path: templates come from the sOAs' slot
     * aggregators (O(slots), cached when no slot closed), the split
     * reuses scratch buffers, and no PendingAssignment batch is
     * materialized — allocation-free once the buffers are warm.
     */
    void recompute(sim::Tick now);

    /**
     * Fault-aware recompute: telemetry pulls go through
     * @p faults.telemetryLost with bounded retry (falling back to
     * the cached profile from the previous recompute when a server
     * stays unreachable), and the resulting budget pushes are
     * returned as PendingAssignment batches instead of being
     * applied — lost pushes are omitted (counted in stats), delayed
     * pushes carry a later deliverAt, corrupted pushes carry a
     * poisoned payload for the sOA's validation to reject.  The
     * caller (simulator) applies each entry with deliver() at its
     * deliverAt time.
     */
    std::vector<PendingAssignment>
    recompute(sim::Tick now, const RecomputeFaults &faults);

    /**
     * Pull fresh telemetry from every sOA (perfect network) and
     * return the per-server profiles, without splitting or pushing
     * budgets.  The first half of recompute(now), exposed so a
     * hierarchical tier (core::BudgetHierarchy) can aggregate the
     * rack's profiles before deciding its budget; the pulled
     * profiles stay cached for recomputeWithBudget.  Each pull
     * copies every sOA's aggregator-cached templates once into
     * that server's entry, so pulling twice without an intervening
     * slot close assembles nothing and yields the same profiles —
     * the two-phase sequence
     * pullProfiles() + recomputeWithBudget(now, flat usable row)
     * is bit-identical to recompute(now) (see splitWeeklyInto).
     */
    const std::vector<ServerProfile> &pullProfiles();

    /**
     * Second half of a hierarchical recompute: split the externally
     * decided per-slot usable watts (@p usablePerSlot, one entry per
     * slot of the week, consumed as-is — the hierarchy applies the
     * safety margin once at the zone) across the profiles pulled by
     * pullProfiles(), and push the budgets to the sOAs exactly like
     * recompute(now) does.  Counts as one recompute.  Throws
     * std::logic_error when the gOA does not hold one pulled
     * profile per sOA (no pull yet, or releaseProfiles() since),
     * and std::invalid_argument for a row that is not
     * sim::kSlotsPerWeek long; either throw leaves every budget and
     * counter unchanged.
     */
    void recomputeWithBudget(sim::Tick now,
                             const std::vector<double> &usablePerSlot);

    /**
     * Drop the cached profile storage (fleet-scale footprint trim
     * between recomputes).  Only safe when no degraded-mode fallback
     * relies on cached profiles — i.e. fault injection is off; the
     * next pull repopulates everything.
     */
    void releaseProfiles();

    /**
     * Apply one pending assignment to its sOA at @p now.
     * @return true when the sOA accepted it (rejections are counted
     * in stats().assignmentsRejected).
     */
    bool deliver(const PendingAssignment &pending, sim::Tick now);

    /** Budgets from the last recompute (empty before the first). */
    const std::vector<ProfileTemplate> &lastBudgets() const
    {
        return lastBudgets_;
    }

    std::uint64_t recomputeCount() const { return recomputes_; }

  private:
    /**
     * Pull telemetry (through @p faults when hooked) and refresh
     * lastProfiles_/lastProfileValid_: each reached sOA writes its
     * profile into its entry in place (readProfile); unreachable
     * servers' entries are left untouched.
     */
    void collectProfiles(const RecomputeFaults &faults);

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
    /** Reused split working memory (see SplitScratch). */
    BudgetAllocator::SplitScratch splitScratch_;
    /** Reused assignment payload for the perfect-network path. */
    BudgetAssignment assignScratch_;
    std::uint64_t recomputes_ = 0;
    GoaStats stats_;
};

} // namespace core
} // namespace soc

#endif // SOC_CORE_GOA_HH
