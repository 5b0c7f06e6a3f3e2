/**
 * @file
 * Trace-driven datacenter simulation (§V-B).
 *
 * Replays multi-week synthetic production traces (TraceGenerator)
 * against racks of servers managed by one of the Table I policies.
 * VMs whose trace utilization crosses an overclock threshold request
 * overclocking from their server's sOA; the rack manager enforces
 * warnings/capping; the gOA recomputes heterogeneous budgets weekly
 * from the telemetry collected during the warm-up week.
 *
 * Outputs the four Table I metrics: power-capping events,
 * overclocking success rate, capping penalty on non-overclocked
 * VMs, and normalized performance (mean effective frequency of
 * overclock-seeking VMs over max turbo).
 */

#ifndef SOC_CLUSTER_TRACE_SIM_HH
#define SOC_CLUSTER_TRACE_SIM_HH

#include <cstdint>
#include <vector>

#include "core/budget_hierarchy.hh"
#include "core/hint_ingress.hh"
#include "core/policy.hh"
#include "power/power_model.hh"
#include "sim/fault_injector.hh"
#include "sim/hint_storm.hh"
#include "sim/time.hh"
#include "telemetry/time_series.hh"

namespace soc
{
namespace cluster
{

/** Power-draw tiers of Table I (how tight the rack limit is). */
enum class PowerTier { High, Medium, Low };

/**
 * Which budget the gOAs split (DESIGN.md §13).  Every path runs the
 * same two-phase recompute (pullProfiles + recomputeWithBudget);
 * they differ only in the per-slot row each gOA splits.
 */
enum class BudgetPath {
    /** Each rack's gOA splits a constant row of its own usable
     *  watts (the rack limit less the safety margin) — the seed
     *  behavior, and the only path that accepts faults. */
    PerRack,
    /**
     * Runs exactly as PerRack, faults included.  Kept as a distinct
     * enumerator so code that switches over every path still
     * compiles.
     */
    HierarchyEquivalence,
    /**
     * Full rack -> row -> zone tier: racks advance in lockstep
     * between recompute boundaries; at each boundary every gOA's
     * profiles are aggregated into core::BudgetHierarchy, the zone
     * limit (the sum of the rack limits) is re-split incrementally,
     * and each gOA splits its rack's budget share across its sOAs.
     * Requires faults disabled (the lockstep orchestrator has no
     * outage-retry path).
     */
    HierarchyZone,
};

/** Configuration of one trace-driven run. */
struct TraceSimConfig {
    core::PolicyKind policy = core::PolicyKind::SmartOClock;
    int racks = 4;
    int serversPerRack = 28;
    /** Budgets/templates learn during warm-up; metrics cover the
     *  evaluation window that follows. */
    sim::Tick warmup = sim::kWeek;
    sim::Tick duration = sim::kWeek;
    sim::Tick controlStep = 30 * sim::kSecond;
    /** Rack limit = limitFactor x baseline P99 rack power. */
    double limitFactor = 1.10;
    /** A VM requests overclocking when its utilization crosses
     *  this (its workload peak). */
    double ocUtilThreshold = 0.55;
    sim::Tick requestChunk = 10 * sim::kMinute;
    std::uint64_t seed = 1;
    power::PowerModelParams hardware;
    /** gOA budget recompute period (the paper recomputes weekly;
     *  chaos studies shorten it so outages hit mid-evaluation). */
    sim::Tick recomputePeriod = sim::kWeek;
    /**
     * Telemetry window the sOAs' template aggregators retain: a
     * positive multiple of the 5-minute slot.  The default is the
     * prior week the paper's agents predict from.
     */
    sim::Tick templateWindow = sim::kWeek;
    /**
     * Fault injection (chaos harness).  Disabled by default; when
     * enabled, each rack draws a deterministic FaultPlan from the
     * run seed, budget assignments carry a lease of
     * 2 x recomputePeriod, and the Table I metrics are joined by the
     * fault counters in TraceSimResult.
     */
    sim::FaultConfig faults;
    /**
     * Hint ingestion boundary (DESIGN.md §12).  Disabled by default:
     * WI requests then reach the sOAs through the original direct
     * call path, bit-identical to the seed behavior.  When enabled,
     * every per-rack hint is serialized as a core::wire frame,
     * offered to a bounded per-rack HintIngress (fail-closed
     * parsing, dedup, overflow drop policy) and dispatched in one
     * batched drain per control step; SoaConfig::flapHoldoff is
     * taken from ingress.flapHoldoff.
     */
    core::HintIngressConfig ingress;
    /**
     * Adversarial hint-storm catalog (requires ingress.enabled):
     * each rack derives a deterministic sim::HintStormGenerator
     * from the run seed and pours its forged frames into the same
     * ingress the legitimate hints use.
     */
    sim::HintStormConfig storm;
    /**
     * Budget recompute topology.  PerRack (default) keeps every
     * result bit-identical to the seed; HierarchyZone is the
     * paper-scale path (racks/s gated at 7.1k racks by
     * bench_check.sh) and rejects faults.enabled (validate());
     * HierarchyEquivalence runs exactly as PerRack.
     */
    BudgetPath budgetPath = BudgetPath::PerRack;
    /** Racks per row of the HierarchyZone tier. */
    int racksPerRow = 8;
    /**
     * Streaming-replay window: how much trace each rack holds
     * materialized at once, as a multiple of the 5-minute slot
     * (sim::kDay default keeps a rack's replay footprint at
     * VMs x 288 samples regardless of horizon).  0 materializes the
     * whole horizon in one window.  Replay results are bit-identical
     * for any window size — the generator cursors produce the same
     * sample stream however it is chunked (enforced by test).
     */
    sim::Tick streamWindow = sim::kDay;
    /**
     * Worker threads for trace generation and the per-rack control
     * loops (racks are fully independent, see DESIGN.md "Threading
     * model").  0 means hardware concurrency.  Results are
     * bit-identical for any thread count: every rack draws from its
     * own seed-derived RNG stream and owns its accumulators, which
     * are merged in rack order after the loop.
     */
    int threads = 0;

    /** Preset limit factors for the Table I cluster tiers. */
    static double tierLimitFactor(PowerTier tier);

    /**
     * Reject nonsensical configurations up front with a clear
     * message (std::invalid_argument) instead of dividing by zero
     * or looping forever deep inside the run: racks and
     * serversPerRack must be >= 1, limitFactor > 0, controlStep > 0,
     * warmup/duration non-negative with a positive sum, and the
     * fault knobs in range.
     */
    void validate() const;
};

/** Metrics of one run (Table I row, un-normalized). */
struct TraceSimResult {
    std::uint64_t capEvents = 0;
    /** Control steps spent enforcing a cap (severity measure). */
    std::uint64_t cappedTicks = 0;
    std::uint64_t warnings = 0;
    std::uint64_t requests = 0;
    /** Per-step overclock want/got accounting. */
    std::uint64_t wantSteps = 0;
    std::uint64_t successSteps = 0;
    /** Fraction of want-steps actually spent overclocked. */
    double successRate = 0.0;
    /** Mean frequency penalty of capped non-overclock VMs. */
    double cappingPenalty = 0.0;
    /** Mean effective frequency of overclock-seeking VMs during
     *  want-steps, relative to max turbo. */
    double normPerformance = 1.0;
    /** Mean rack power utilization over the evaluation window. */
    double meanRackUtil = 0.0;
    /** Integrated energy over the evaluation window. */
    power::Joules energyJoules{0.0};

    /**
     * Wall-clock accounting, summed over racks: seconds spent
     * generating traces vs. running the control loops.  Benchmarks
     * report replay throughput (racks / simSeconds) separately from
     * one-time trace synthesis.  Not simulation state: excluded
     * from the determinism comparisons.
     */
    double genSeconds = 0.0;
    double simSeconds = 0.0;
    /** Wall seconds spent in the serial hierarchy recompute phase
     *  (aggregate exchange + zone re-split); zero unless
     *  budgetPath == HierarchyZone.  Not simulation state. */
    double hierSeconds = 0.0;

    // Hierarchy metrics (zero unless budgetPath == HierarchyZone).
    /** Zone-level hierarchy recomputes performed. */
    std::uint64_t hierarchyRecomputes = 0;
    /** Aggregation/split work counters of the hierarchy tier. */
    core::BudgetHierarchy::Stats hierarchyStats;

    // Chaos metrics (all zero when fault injection is disabled).
    /** Injected-fault and degraded-path counters, all racks. */
    sim::FaultStats faults;
    /** Cap events that struck while a fault was plausibly in play
     *  (during a gOA outage, within an hour of an sOA crash, or
     *  with some sOA on a stale budget lease). */
    std::uint64_t capEventsFaultAttributed = 0;
    /** Control ticks some sOA spent on a stale (lease-expired)
     *  budget, summed over servers. */
    std::uint64_t staleLeaseTicks = 0;
    /** Completed fault recoveries (outage -> next successful
     *  recompute; crash -> next accepted budget assignment). */
    std::uint64_t recoveries = 0;
    /** Mean recovery time over those recoveries, in seconds. */
    double meanRecoveryS = 0.0;

    // Ingestion metrics (all zero when the ingress is disabled).
    /** Ingress counters merged over racks in rack order. */
    core::IngressStats ingress;
    /** Requests denied by the sOA flap-hysteresis window. */
    std::uint64_t flapDenied = 0;
};

/** Run one policy over one generated fleet. */
TraceSimResult runTraceSim(const TraceSimConfig &config);

/**
 * Run several independent configurations concurrently on one worker
 * pool (policy sweeps, tier sweeps, seed averaging).  Each run is
 * executed with its per-rack parallelism disabled (threads = 1), so
 * the pool is never oversubscribed; per-run results are identical
 * to calling runTraceSim on each config directly.
 *
 * @param threads Pool size; 0 means hardware concurrency.
 */
std::vector<TraceSimResult>
runTraceSimBatch(const std::vector<TraceSimConfig> &configs,
                 int threads = 0);

} // namespace cluster
} // namespace soc

#endif // SOC_CLUSTER_TRACE_SIM_HH
