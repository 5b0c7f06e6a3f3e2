/**
 * @file
 * Server Overclocking Agent (sOA) — §IV-B and §IV-D, Fig. 11.
 *
 * One sOA runs per server.  It:
 *
 *  - admits/denies overclocking requests against the assigned power
 *    budget and the lifetime budget (AdmissionController);
 *  - runs a prioritized frequency feedback loop every control tick
 *    to keep the server's draw within its budget while overclocked
 *    VMs ramp between turbo and the requested frequency in 100 MHz
 *    steps;
 *  - explores beyond its assigned budget in +20 W steps, retreating
 *    with exponential back-off on rack warning messages and
 *    resetting to the assigned budget on capping events
 *    (exploration/exploitation, §IV-D);
 *  - charges each core's overclocked time against the epoch
 *    overclocking budget (journaled, so it survives a crash), and
 *    reschedules overclocked VMs onto cores with remaining budget
 *    when theirs run out;
 *  - predicts power/lifetime exhaustion and signals the workload's
 *    global WI agent `exhaustionWindow` ahead so scale-out can
 *    happen before overclocking disappears (Fig. 11);
 *  - collects the power/utilization/overclock telemetry the gOA
 *    aggregates into templates and heterogeneous budgets.
 */

#ifndef SOC_CORE_SOA_HH
#define SOC_CORE_SOA_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/admission.hh"
#include "core/budget_allocator.hh"
#include "core/lifetime.hh"
#include "core/messages.hh"
#include "core/policy.hh"
#include "core/profile_template.hh"
#include "core/slot_aggregator.hh"
#include "power/rack.hh"
#include "power/rack_manager.hh"
#include "power/server.hh"

namespace soc
{
namespace core
{

/** sOA tunables; flag combinations implement the Table I policies. */
struct SoaConfig {
    /** Feedback-loop period. */
    sim::Tick controlPeriod = 5 * sim::kSecond;
    /** threshold = budget - buffer (§IV-D feedback loop). */
    power::Watts bufferWatts{15.0};
    /** Exploration budget increment (§IV-D: e.g. 20 W). */
    power::Watts exploreStepWatts{20.0};
    /** Quiet time that must pass before raising the bonus again. */
    sim::Tick warningWindow = 30 * sim::kSecond;
    /** Exploitation phase length before re-exploring. */
    sim::Tick exploitTime = 10 * sim::kMinute;
    /** Base of the exponential back-off after a warning. */
    sim::Tick backoffBase = 1 * sim::kMinute;
    int maxBackoffExp = 4;
    /** Ceiling on the exploration bonus. */
    power::Watts maxBonusWatts{200.0};
    /** Exhaustion look-ahead (§IV-D: e.g. 15 minutes). */
    sim::Tick exhaustionWindow = 15 * sim::kMinute;
    /** Max feedback-loop frequency steps applied per control tick
     *  (the real loop runs at millisecond scale, far faster than
     *  the simulated control period). */
    int stepsPerTick = 8;

    /** Admission flags (power/lifetime checks). */
    AdmissionConfig admission;
    /** Allow exploring beyond the assigned budget. */
    bool exploreEnabled = true;
    /** React to rack warning messages while exploring. */
    bool respectWarnings = true;
    /** Enforce the power budget with the feedback loop at all. */
    bool enforceBudget = true;
    /** Oracle mode (Central): admission and enforcement use the
     *  actual rack draw instead of local budgets/predictions. */
    bool oracleMode = false;

    /** Lifetime budget: fraction of each epoch per core. */
    double overclockFraction = 0.10;
    sim::Tick budgetEpoch = sim::kWeek;
    double carryoverCap = 1.0;

    /**
     * Degraded mode (§III-Q5): once a budget lease is stale, the
     * effective budget decays linearly from the last assigned
     * prediction down to the guaranteed-safe floor over this window.
     * Enforcement never stops — it just gets conservative.
     */
    sim::Tick staleDecayTime = 10 * sim::kMinute;

    /**
     * Hint-flap hysteresis (DESIGN.md §12): after a group stops
     * overclocking, re-requests for the same group within this
     * window are denied ("flap hysteresis") before they touch
     * admission or the requested-core telemetry — a flapping WI
     * agent can neither thrash grants nor inflate apparent demand.
     * 0 (default) disables the window, preserving prior behavior.
     */
    sim::Tick flapHoldoff = 0;

    /**
     * Telemetry horizon the power/utilization templates aggregate
     * over.  The default is the paper's prior week: older samples
     * are evicted from the slot aggregators.  Must be a positive
     * multiple of sim::kSlot; the aggregators reject anything else,
     * 0 included.
     */
    sim::Tick templateWindow = sim::kWeek;

    /** Build the config for one of the Table I policy variants. */
    static SoaConfig forPolicy(PolicyKind kind);
};

/** Why the sOA rejected a BudgetAssignment. */
enum class BudgetReject {
    None,             ///< the last assignment was accepted (or none)
    NotFinite,        ///< peak or trough is NaN or infinite
    Negative,         ///< trough below zero
    AboveRackLimit,   ///< peak exceeds the sender's rack limit
    LeaseBeforeIssue, ///< lease expires before its issue time
};

/** Printable name of @p reject, for logs. */
inline const char *
budgetRejectName(BudgetReject reject)
{
    switch (reject) {
    case BudgetReject::None: return "none";
    case BudgetReject::NotFinite: return "budget not finite";
    case BudgetReject::Negative: return "budget negative";
    case BudgetReject::AboveRackLimit:
        return "budget exceeds rack limit";
    case BudgetReject::LeaseBeforeIssue:
        return "lease expires before issue time";
    }
    return "unknown";
}

/** Counters exported to the evaluation harnesses. */
struct SoaStats {
    std::uint64_t requests = 0;
    std::uint64_t grants = 0;
    std::uint64_t rejects = 0;
    std::uint64_t revocations = 0;   // grants cut short
    std::uint64_t warningsHeeded = 0;
    std::uint64_t capResets = 0;
    std::uint64_t explorationsStarted = 0;
    std::uint64_t exhaustionSignals = 0;
    std::uint64_t coreReschedules = 0;
    /** Integrated overclocked core-time (lifetime consumption). */
    sim::Tick overclockedCoreTime = 0;
    /** Budget assignments received (valid or not). */
    std::uint64_t budgetAssignments = 0;
    /** Assignments rejected by validation (NaN/negative/over-limit). */
    std::uint64_t budgetRejects = 0;
    /** Crash-restarts survived (wear restored from the journal). */
    std::uint64_t crashRestarts = 0;
    /** Control ticks spent with a stale budget lease. */
    std::uint64_t staleLeaseTicks = 0;
    /** Template rebuilds actually performed (aggregator cache
     *  misses) vs requests answered from the cache. */
    std::uint64_t templateRebuilds = 0;
    std::uint64_t templateCacheHits = 0;
    /** Requests denied by the flap-hysteresis window. */
    std::uint64_t flapDenied = 0;
};

/**
 * The per-server overclocking agent.
 */
class ServerOverclockingAgent : public power::RackPowerListener
{
  public:
    /**
     * @param server      The managed server (not owned).
     * @param config      Policy/tuning knobs.
     * @param oracle_rack Rack handle for oracleMode (Central); may
     *                    be null otherwise.
     */
    ServerOverclockingAgent(power::Server &server, SoaConfig config,
                            const power::Rack *oracle_rack = nullptr);

    power::Server &server() { return server_; }
    const SoaConfig &config() const { return config_; }
    const SoaStats &stats() const { return stats_; }

    /** Receive a leaseless budget directly (bootstrap/tests); never
     *  rejected — the caller vouches for the template. */
    void assignBudget(ProfileTemplate budget);

    /**
     * Receive a budget assignment message from the gOA.  The payload
     * is validated — peak/trough must be finite, non-negative and
     * within the sender's rack limit — and invalid assignments are
     * rejected (counted in stats, reason in lastBudgetReject()),
     * keeping the previous budget and lease.
     *
     * @return true when accepted.
     */
    bool assignBudget(const BudgetAssignment &assignment,
                      sim::Tick now);

    /** Why the most recent assignment was rejected (None if it
     *  was accepted). */
    BudgetReject lastBudgetReject() const { return lastBudgetReject_; }

    /** When the current budget was received (-1 before the first). */
    sim::Tick lastAssignmentAt() const { return lastAssignmentAt_; }

    /** Is the current budget's lease expired (degraded mode)? */
    bool leaseStale(sim::Tick now) const
    {
        return budgetAssigned_ && leaseUntil_ > 0 && now > leaseUntil_;
    }

    /**
     * Guaranteed-safe fallback budget (the even-split share of the
     * rack limit; every sOA staying within it keeps the rack under
     * its limit with no coordination).  Set by the gOA at
     * registration time; semantically static configuration that
     * survives crash-restarts.  0 disables the floor: stale budgets
     * then decay all the way to zero (no overclocking).
     */
    void setSafeBudgetWatts(power::Watts watts)
    {
        safeBudgetWatts_ = watts;
    }
    power::Watts safeBudgetWatts() const { return safeBudgetWatts_; }

    /**
     * Effective budget + current exploration bonus.  While the
     * lease is fresh (or leaseless) this is the assigned
     * prediction; once stale it decays toward the safe floor over
     * config().staleDecayTime.
     */
    power::Watts budgetWatts(sim::Tick now) const;

    /**
     * Install a power-sensor distortion: every read the agent takes
     * of its server's draw (feedback loop, admission, telemetry)
     * goes through @p sensor(true_watts, now).  The chaos harness
     * uses this for noise/bias injection; null restores the perfect
     * sensor.
     */
    void setPowerSensor(
        std::function<power::Watts(power::Watts, sim::Tick)> sensor)
    {
        sensor_ = std::move(sensor);
    }

    /**
     * Simulate an sOA process crash followed by an immediate
     * restart at @p now.  Volatile state is lost: in-flight grants
     * are revoked (targets fall back to turbo, as the platform
     * watchdog would enforce), exploration bonus/back-off reset, the
     * budget assignment and its lease are forgotten (the agent runs
     * on the safe floor until the gOA's next push), and telemetry
     * accumulators restart empty.  Accrued wear survives: the final
     * partial interval is charged, then the lifetime budget and
     * per-core epoch usage are rebuilt from the crash-safe wear
     * journal.
     */
    void crashRestart(sim::Tick now);

    /** Durable wear journal backing crash recovery. */
    const WearJournal &wearJournal() const { return journal_; }

    /** Current exploration bonus. */
    power::Watts explorationBonus() const { return bonusWatts_; }

    /**
     * WI-facing: request overclocking for a core group.  On grant
     * the group's target ramps toward the desired frequency under
     * the feedback loop.
     */
    AdmissionDecision
    requestOverclock(const OverclockRequest &request, sim::Tick now);

    /** WI-facing: stop overclocking a group (scale-down trigger). */
    void stopOverclock(int group_id, sim::Tick now);

    bool isOverclockActive(int group_id) const;

    /** Cores carrying @p group_id's overclock (empty without one);
     *  the view lasts until the next request, stop, tick or crash. */
    std::span<const std::uint16_t> coreSet(int group_id) const;

    /** Overclocked time @p core has used in the epoch of @p now. */
    sim::Tick coreUsed(int core, sim::Tick now) const;

    /** Number of groups currently holding an overclock grant. */
    std::size_t activeOverclocks() const { return active_.size(); }

    /** Register the exhaustion-signal sink (global WI agent). */
    void
    setExhaustionCallback(
        std::function<void(const ExhaustionSignal &)> callback)
    {
        exhaustionCallback_ = std::move(callback);
    }

    /** Control tick: feedback loop, exploration, accounting. */
    void tick(sim::Tick now);

    // RackPowerListener interface.
    void onWarning(sim::Tick now) override;
    void onCapEvent(sim::Tick now) override;

    /**
     * The gOA's telemetry pull: refresh the own template, then
     * copy-assign this server's four profile templates (power,
     * utilization, granted and requested cores over the 5-minute
     * slots collected so far) into @p out, reusing its storage.
     * The templates come from the slot aggregators' per-strategy
     * caches: one sort-free pass over the retained window on a
     * miss, nothing assembled on a hit, so a warm pull into warm
     * storage allocates nothing.
     */
    void readProfile(ServerProfile &out,
                     TemplateStrategy strategy =
                         TemplateStrategy::DailyMed);

    /**
     * Rebuild the agent's own power template from its telemetry; used
     * for admission look-ahead and exhaustion prediction.  The gOA
     * triggers this on its periodic recompute.  When no slot has
     * closed since the last refresh with the same strategy, the
     * cached template is kept untouched (counted in
     * stats().templateCacheHits).
     */
    void refreshOwnTemplate(TemplateStrategy strategy =
                                TemplateStrategy::DailyMed);

    /** Remaining lifetime budget (core-time) in this epoch. */
    sim::Tick lifetimeRemaining(sim::Tick now)
    {
        return lifetime_.remaining(now);
    }

    OverclockBudget &lifetimeBudget() { return lifetime_; }

  private:
    struct ActiveOverclock {
        OverclockRequest request;
        sim::Tick grantedUntil = 0;
        sim::Tick startedAt = 0;
        /** Core indices currently carrying this overclock; the
         *  storage cycles through corePool_. */
        std::vector<std::uint16_t> coreSet;
        bool exhaustionSignaled = false;
        /** Marked by lifetimeAccounting, revoked after its walk. */
        bool revokeDue = false;
    };

    enum class ExploreState { Normal, Exploring, Exploiting };

    /** Frequency feedback loop against budget/bonus (§IV-D). */
    void feedbackLoop(sim::Tick now);

    /** Exploration / exploitation state machine. */
    void explorationStep(sim::Tick now);

    /** Accrue per-core epoch usage, enforce lifetime budget. */
    void lifetimeAccounting(sim::Tick now);

    /**
     * Charge the wear of @p oc over [from, until), truncated to the
     * grant's live range [startedAt, grantedUntil).  Returns the
     * charged interval length (0 if the group was not actually
     * running above turbo).
     */
    sim::Tick chargeWear(ActiveOverclock &oc, sim::Tick from,
                         sim::Tick until, sim::Tick now);

    /** Predict power/lifetime exhaustion and signal WI (§IV-D). */
    void exhaustionPrediction(sim::Tick now);

    /** Flush per-slot telemetry when a 5-minute boundary passes. */
    void telemetryCollection(sim::Tick now);

    /** Is any granted group held below its desired frequency, or
     *  was a request recently denied for lack of power budget?
     *  Either way the assigned budget is binding and exploration
     *  beyond it is warranted (§IV-D). */
    bool constrained(sim::Tick now) const;

    /**
     * Pick and hold the @p count cores with the most remaining
     * per-epoch budget, least worn first: a prefix of freeCores_,
     * then, on a fully booked server, the least-worn held cores.
     * The returned storage comes from corePool_.
     */
    std::vector<std::uint16_t> pickCores(int count, sim::Tick now);

    /** Drop one grant's hold on @p cores (cores no grant holds any
     *  more rejoin freeCores_) and return the storage to the pool. */
    void releaseCores(std::vector<std::uint16_t> &&cores);

    /** Rebuild freeCores_ from holders_ and the current wear. */
    void sortFreeCores();

    /** The (epoch wear, index) order cores are picked in. */
    bool wearBefore(int a, int b) const
    {
        return coreUsedEpoch_[a] != coreUsedEpoch_[b]
            ? coreUsedEpoch_[a] < coreUsedEpoch_[b]
            : a < b;
    }

    /** Server draw as seen through the (possibly faulty) sensor. */
    power::Watts measuredWatts(sim::Tick now) const;

    void rollCoreEpoch(sim::Tick now);

    void revoke(ActiveOverclock &oc, sim::Tick now);

    power::Server &server_;
    SoaConfig config_;
    const power::Rack *oracleRack_;
    AdmissionController admission_;
    OverclockBudget lifetime_;

    ProfileTemplate budget_;
    bool budgetAssigned_ = false;
    /** Lease expiry of the current budget (0 = no lease). */
    sim::Tick leaseUntil_ = 0;
    sim::Tick lastAssignmentAt_ = -1;
    power::Watts safeBudgetWatts_{0.0};
    BudgetReject lastBudgetReject_ = BudgetReject::None;
    ProfileTemplate ownPower_;
    bool ownTemplateValid_ = false;
    /** Aggregator version/strategy ownPower_ was assembled from. */
    std::uint64_t ownPowerVersion_ = 0;
    TemplateStrategy ownPowerStrategy_ = TemplateStrategy::DailyMed;
    std::function<power::Watts(power::Watts, sim::Tick)> sensor_;
    WearJournal journal_;

    /**
     * Ordered containers on purpose (DET-003): the feedback loop,
     * wear accounting, exhaustion signaling and telemetry sums all
     * iterate these, and priority ties, FP addition order and
     * callback order must not depend on a hash function.  active_
     * is a group-id-sorted flat vector rather than a std::map: it
     * is walked several times per control tick (feedback victim
     * scans, wear accounting, telemetry sums) and holds only a
     * handful of grants, so contiguous iteration beats node hops;
     * activeFind() keeps the map's lookup semantics.  The two
     * per-group records below are sorted flat vectors for the same
     * reason, and so that recording one allocates nothing once warm.
     */
    std::vector<std::pair<int, ActiveOverclock>> active_;
    /** Iterator to the entry for @p group_id, or active_.end(). */
    std::vector<std::pair<int, ActiveOverclock>>::iterator
    activeFind(int group_id);
    /** Recently denied requests: groupId -> (cores, expiry). */
    std::vector<std::pair<int, std::pair<int, sim::Tick>>>
        recentDenied_;
    /** Last stopOverclock time per group, for the flap-hysteresis
     *  window; tick() drops stops older than the window (empty
     *  while flapHoldoff == 0). */
    std::vector<std::pair<int, sim::Tick>> lastStopAt_;
    /** Until when a power-based denial keeps the agent "constrained"
     *  for exploration purposes. */
    sim::Tick powerDenialUntil_ = 0;

    // Exploration state.
    ExploreState state_ = ExploreState::Normal;
    power::Watts bonusWatts_{0.0};
    sim::Tick stateDeadline_ = 0;
    sim::Tick nextExploreAllowed_ = 0;
    int backoffExp_ = 0;

    // Lifetime accounting.
    std::vector<sim::Tick> coreUsedEpoch_;
    std::int64_t coreEpochIndex_ = 0;
    sim::Tick lastAccounting_ = 0;
    sim::Tick allowancePerCore_ = 0;

    // Core selection (DESIGN.md §11), built at the first pick.  Only
    // held cores are charged wear, so a free core's wear is frozen:
    // freeCores_ keeps its (wear, index) order and changes only at a
    // pick, a release, an epoch roll and a crash restart.
    /** Cores no grant holds, in (epoch wear, index) order. */
    std::vector<std::uint16_t> freeCores_;
    /** Number of grants holding each core. */
    std::vector<std::uint16_t> holders_;
    /** Released core-set storage, reused by the next pick. */
    std::vector<std::vector<std::uint16_t>> corePool_;

    // Closed-slot telemetry, one aggregator per series: fed one
    // sample per closed slot, and the only resident copy (templates
    // and profile pulls are served from here).
    SlotAggregator regularAgg_;
    SlotAggregator powerAgg_;
    SlotAggregator utilAgg_;
    SlotAggregator grantedCoresAgg_;
    SlotAggregator requestedCoresAgg_;
    // Telemetry accumulation (current slot).
    std::int64_t currentSlot_ = -1;
    double slotRegularSum_ = 0.0;
    double slotPowerSum_ = 0.0;
    double slotUtilSum_ = 0.0;
    double slotGrantedSum_ = 0.0;
    double slotRequestedSum_ = 0.0;
    int slotSamples_ = 0;
    /** Requested cores seen this tick (granted or not). */
    int requestedCoresNow_ = 0;

    std::function<void(const ExhaustionSignal &)> exhaustionCallback_;
    SoaStats stats_;
};

} // namespace core
} // namespace soc

#endif // SOC_CORE_SOA_HH
