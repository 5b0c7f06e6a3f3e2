/**
 * @file
 * Cluster-level microservice experiment (§V-A, Figs. 12-14).
 *
 * Reconstructs the paper's 36-server overclockable cluster: 14
 * servers host latency-critical SocialNet-like deployments (the
 * queueing models of workload/queueing_service.hh), 14 servers run
 * throughput-optimized MLTrain, and 8 servers (second rack) absorb
 * scale-out.  Load follows a valley-peak-valley profile; the
 * deployments' Global WI agents react to tail latency with
 * overclocking and/or scale-out depending on the environment:
 *
 *   Baseline   - fixed 1 VM at turbo
 *   ScaleOut   - horizontal autoscaling only
 *   ScaleUp    - overclocking only
 *   SmartOClock- overclock first, scale-out fallback + proactive
 *                scale-out on exhaustion signals
 *
 * The same harness runs the §V-A power-constrained (reduced rack
 * limit) and overclocking-constrained (reduced lifetime budget)
 * experiments.
 */

#ifndef SOC_CLUSTER_SERVICE_SIM_HH
#define SOC_CLUSTER_SERVICE_SIM_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/hint_ingress.hh"
#include "core/policy.hh"
#include "power/power_model.hh"
#include "sim/fault_injector.hh"
#include "sim/hint_storm.hh"
#include "sim/time.hh"

namespace soc
{
namespace cluster
{

/** The four §V-A environments. */
enum class Environment {
    Baseline,
    ScaleOut,
    ScaleUp,
    SmartOClock,
};

std::string environmentName(Environment environment);

/** Configuration of one cluster run. */
struct ServiceSimConfig {
    Environment environment = Environment::SmartOClock;
    /** sOA policy (NaiveOClock for the constrained comparison). */
    core::PolicyKind soaPolicy = core::PolicyKind::SmartOClock;

    int socialNetServers = 14;
    int mlServers = 14;
    int spareServers = 8;

    sim::Tick duration = 20 * sim::kMinute;
    sim::Tick warmup = 2 * sim::kMinute;
    sim::Tick controlPeriod = 5 * sim::kSecond;
    sim::Tick pollPeriod = 15 * sim::kSecond;
    sim::Tick goaPeriod = 5 * sim::kMinute;
    /**
     * Telemetry window the sOAs' template aggregators retain: a
     * positive multiple of the 5-minute slot.  The default is the
     * paper's prior week.
     */
    sim::Tick templateWindow = sim::kWeek;

    /** Offered load as a fraction of one instance's turbo capacity,
     *  per load class. */
    double lowFrac = 0.35;
    double medFrac = 0.60;
    double highFrac = 0.86;
    /** Extra multiplier on the mid-run peak. */
    double peakMultiplier = 1.0;

    /** Rack limit as a fraction of the servers' summed TDP. */
    double rackLimitFactor = 1.0;
    /** Lifetime budget fraction (scaled by budgetScale). */
    double overclockFraction = 0.10;
    double overclockBudgetScale = 1.0;
    bool proactiveScaleOut = true;

    int maxInstances = 4;
    int mlCoresPerServer = 48;
    /** Background utilization every VM instance pays (OS, runtime,
     *  sidecars) on top of request work.  Makes each scale-out
     *  instance cost real energy, as in the paper's cluster. */
    double vmOverheadUtil = 0.20;
    std::uint64_t seed = 7;
    power::PowerModelParams hardware;
    /**
     * Worker threads used when this configuration is run through
     * runServiceSimBatch.  Unlike the trace simulator's racks, one
     * cluster run is a single coupled discrete-event simulation
     * (scale-out moves VMs onto the spare rack mid-run), so the run
     * itself stays serial; environment/seed sweeps parallelize
     * across runs instead.  0 means hardware concurrency.
     */
    int threads = 0;
    /**
     * Fault injection (chaos harness).  Disabled by default; when
     * enabled each rack draws a deterministic FaultPlan from the
     * run seed and budget assignments carry a lease of 2 x
     * goaPeriod.
     */
    sim::FaultConfig faults;
    /**
     * Hint ingestion boundary (DESIGN.md §12).  Disabled by default
     * (the metric pump calls GlobalWiAgent::onMetrics directly, the
     * seed behavior).  When enabled, each deployment's poll-window
     * metrics cross the cluster's HintIngress as wire::MetricsWindow
     * frames, and schedule/exhaustion hints become first-class wire
     * messages too.
     */
    core::HintIngressConfig ingress;
    /**
     * Adversarial hint-storm catalog (requires ingress.enabled);
     * storms target deployments (server index = deployment index).
     */
    sim::HintStormConfig storm;

    /**
     * Reject nonsensical configurations up front with a clear
     * message (std::invalid_argument): at least one latency-critical
     * server, non-negative server counts, positive periods and rack
     * limit factor, warmup < duration, and fault knobs in range.
     */
    void validate() const;
};

/** Aggregated metrics for one load class. */
struct ClassResult {
    double p99Ms = 0.0;
    double meanMs = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t violations = 0;
    double meanInstances = 0.0;
    double energyPerServerJ = 0.0;
    /** Fraction of poll windows whose P99 exceeded the SLO. */
    double missedSloTimeFrac = 0.0;
};

/** Full result of one cluster run. */
struct ServiceSimResult {
    std::array<ClassResult, 3> byClass; // low / med / high
    power::Joules totalEnergyJ{0.0};
    /** Energy of the servers hosting latency-critical services. */
    power::Joules socialEnergyJ{0.0};
    /** MLTrain mean throughput, normalized to turbo baseline. */
    double mlThroughputNorm = 0.0;
    std::uint64_t capEvents = 0;
    double meanInstancesAll = 0.0;
    std::uint64_t scaleOuts = 0;
    std::uint64_t proactiveScaleOuts = 0;
    std::uint64_t overclockStarts = 0;
    std::uint64_t denials = 0;
    /** Fraction of eval time with any service above its SLO. */
    double missedSloTimeFrac = 0.0;
    /** Injected-fault and degraded-path counters (zero when fault
     *  injection is disabled). */
    sim::FaultStats faults;
    /** Ingress counters (zero when the ingress is disabled). */
    core::IngressStats ingress;
    /** Metric windows the WI agents rejected fail-closed
     *  (NaN/negative fields), summed over deployments. */
    std::uint64_t rejectedMetrics = 0;
};

/** Run one environment over the 36-server cluster. */
ServiceSimResult runServiceSim(const ServiceSimConfig &config);

/**
 * Run several independent cluster configurations concurrently on
 * one worker pool (environment comparisons, seed averaging).
 * Per-run results are identical to calling runServiceSim on each
 * config directly: every run owns its simulator, racks and RNG.
 *
 * @param threads Pool size; 0 uses the largest `threads` knob among
 *                @p configs (and hardware concurrency if all are 0).
 */
std::vector<ServiceSimResult>
runServiceSimBatch(const std::vector<ServiceSimConfig> &configs,
                   int threads = 0);

} // namespace cluster
} // namespace soc

#endif // SOC_CLUSTER_SERVICE_SIM_HH
