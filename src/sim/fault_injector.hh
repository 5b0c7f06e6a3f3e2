/**
 * @file
 * Deterministic fault injection for the chaos harness (§III-Q5).
 *
 * The paper's robustness claim is that enforcement is decentralized:
 * a gOA outage only freezes budget *updates* while the sOAs keep
 * enforcing locally.  This module turns that claim into a testable
 * path by generating a seed-derived *fault plan* per rack that the
 * cluster simulators thread through their control loops:
 *
 *  - gOA outage windows (recomputes are skipped; sOAs run on stale,
 *    then lease-decayed budgets);
 *  - lost/delayed/corrupted messages on both directions of the
 *    gOA<->sOA channel (telemetry pushes and budget assignments);
 *  - sOA crash-restarts (volatile exploration/grant/lease state is
 *    lost; wear accounting survives via the crash-safe wear journal,
 *    see core/lifetime.hh);
 *  - multiplicative noise/bias on the sOA's power sensor, feeding
 *    the §IV-D feedback loop with wrong readings.
 *
 * Determinism: episodic events (outages, crashes) are drawn once at
 * plan-generation time from `deriveSeed(seed ^ salt, rackIndex)`;
 * per-event decisions (drop this push? distort this reading?) are
 * *stateless* hashes of (stream, kind, server, time), so they depend
 * neither on call order nor on thread count.  Same seed + same
 * config => bit-identical fault schedule and outcomes.
 */

#ifndef SOC_SIM_FAULT_INJECTOR_HH
#define SOC_SIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "sim/time.hh"

namespace soc
{
namespace sim
{

/** Knobs of the chaos harness; all-zero (default) injects nothing. */
struct FaultConfig {
    /** Master switch; false keeps every simulator on the fault-free
     *  fast path regardless of the rates below. */
    bool enabled = false;

    /** Expected gOA outages per simulated week (Poisson). */
    double goaOutagesPerWeek = 0.0;
    /** Mean outage duration (exponential). */
    Tick goaOutageMeanDuration = 6 * kHour;

    /** Expected crash-restarts per sOA per simulated week. */
    double soaCrashesPerServerWeek = 0.0;

    /** Per-attempt probability an sOA->gOA telemetry push is lost. */
    double telemetryLossProb = 0.0;
    /** Push attempts per recompute (bounded retry; >= 1). */
    int telemetryAttempts = 3;

    /** Probability a gOA->sOA budget assignment is lost outright. */
    double budgetLossProb = 0.0;
    /** Probability a delivered assignment is delayed in flight. */
    double budgetDelayProb = 0.0;
    /** Maximum in-flight delay of a delayed assignment. */
    Tick budgetDelayMax = 10 * kMinute;
    /** Probability a delivered assignment arrives corrupted (NaN /
     *  negative / over-rack-limit payload; the sOA must reject it). */
    double budgetCorruptProb = 0.0;

    /** Relative Gaussian noise sigma on the sOA power sensor. */
    double sensorNoiseStd = 0.0;
    /** Relative bias on the sOA power sensor (+0.02 = reads 2% high). */
    double sensorBias = 0.0;

    /** Salt separating fault streams from workload streams. */
    std::uint64_t salt = 0xFA17FA17FA17FA17ULL;

    /** Throws std::invalid_argument on out-of-range knobs. */
    void validate() const;

    /** The standard chaos load used by bench_table_faults and the
     *  chaos test suite: a bit of everything, at rates high enough
     *  that a two-week run exercises every degraded path. */
    static FaultConfig standardChaos();
};

/** One gOA outage window [start, end). */
struct GoaOutage {
    Tick start = 0;
    Tick end = 0;
};

/** One sOA crash-restart event. */
struct SoaCrashEvent {
    int server = 0;
    Tick at = 0;
};

/**
 * Counters of injected faults and their observed handling; per-rack
 * instances are merged in rack order (see RackOutcome), keeping the
 * totals thread-count independent.  Fields marked [gOA] are counted
 * by core::GlobalOverclockingAgent::stats(), the rest by the
 * simulators.
 */
struct FaultStats {
    /** gOA outage episodes starting inside the run. */
    std::uint64_t goaOutages = 0;
    /** Recomputes missed to outages: the trace sim counts each
     *  control step it retries during an outage, the service sim
     *  each missed goaPeriod. */
    std::uint64_t recomputesSkipped = 0;
    /** sOA crash-restarts applied. */
    std::uint64_t soaCrashes = 0;
    /** [gOA] Pulls that fell back to a server's cached profile
     *  because every attempt failed. */
    std::uint64_t telemetryDrops = 0;
    /** [gOA] Failed telemetry pull attempts. */
    std::uint64_t telemetryRetries = 0;
    /** [gOA] Budget pushes lost in flight. */
    std::uint64_t budgetDrops = 0;
    /** [gOA] Budget pushes delivered late. */
    std::uint64_t budgetDelays = 0;
    /** [gOA] Budget pushes the receiving sOA rejected as invalid. */
    std::uint64_t budgetRejects = 0;

    /** Total discrete fault events injected. */
    std::uint64_t total() const
    {
        return goaOutages + soaCrashes + telemetryDrops +
            budgetDrops + budgetDelays + budgetRejects;
    }

    void merge(const FaultStats &other);
};

/**
 * The deterministic fault schedule of one rack.  Default-constructed
 * plans are inert (no faults); the simulators build one per rack via
 * generate() when FaultConfig::enabled is set.
 */
class FaultPlan
{
  public:
    /** Inert plan: every query reports "no fault". */
    FaultPlan() = default;

    /**
     * Draw the episodic schedule for one rack.
     *
     * @param config  Fault rates (validated).
     * @param seed    Experiment seed (the same one the workload
     *                streams derive from).
     * @param rack    Rack index; adjacent racks get independent
     *                streams via deriveSeed.
     * @param servers Servers in the rack (crash schedule width).
     * @param horizon End of simulated time covered by the plan.
     */
    static FaultPlan generate(const FaultConfig &config,
                              std::uint64_t seed, std::uint64_t rack,
                              int servers, Tick horizon);

    bool enabled() const { return enabled_; }
    const FaultConfig &config() const { return config_; }

    /** Is the rack's gOA down at @p now? */
    bool goaDown(Tick now) const;

    /** Merged outage episodes, sorted by start. */
    const std::vector<GoaOutage> &outages() const { return outages_; }

    /** Crash events sorted by (time, server). */
    const std::vector<SoaCrashEvent> &crashes() const
    {
        return crashes_;
    }

    /** Is @p server's telemetry push at @p now lost on @p attempt? */
    bool telemetryLost(int server, Tick now, int attempt) const;

    /** Is the budget assignment to @p server at @p now lost? */
    bool budgetLost(int server, Tick now) const;

    /** In-flight delay of @p server's assignment (0 = immediate). */
    Tick budgetDelay(int server, Tick now) const;

    /** Does @p server's assignment arrive corrupted? */
    bool budgetCorrupted(int server, Tick now) const;

    /**
     * Which corruption a corrupted assignment carries: 0 = NaN,
     * 1 = negative, 2 = far over the rack limit.  Deterministic per
     * (server, now).
     */
    int corruptionKind(int server, Tick now) const;

    /** Multiplicative distortion of @p server's power sensor at
     *  @p now (1.0 when sensor faults are disabled). */
    double sensorFactor(int server, Tick now) const;

  private:
    /** Uniform in [0, 1) from a stateless hash of the operands. */
    double hashUniform(std::uint64_t kind, std::uint64_t a,
                       std::uint64_t b, std::uint64_t c = 0) const;

    FaultConfig config_;
    bool enabled_ = false;
    std::uint64_t stream_ = 0;
    std::vector<GoaOutage> outages_;
    std::vector<SoaCrashEvent> crashes_;
};

} // namespace sim
} // namespace soc

#endif // SOC_SIM_FAULT_INJECTOR_HH
