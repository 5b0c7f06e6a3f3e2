/**
 * @file
 * Queueing model of a latency-critical microservice.
 *
 * Substitutes for DeathStarBench's SocialNet services in the cluster
 * experiments (Figs. 2, 3, 12-14).  Each service is an open-loop
 * M/G/c system: Poisson arrivals are dispatched join-shortest-queue
 * across VM instances; each instance has `workersPerVm` worker cores
 * and lognormal service times whose mean scales with core frequency
 * through a memory-bound fraction:
 *
 *   S(f) = S_turbo * ((1 - memBoundFrac) * f_turbo / f + memBoundFrac)
 *
 * The SLO follows the paper's rule: 5x the service's execution time
 * on an unloaded system [26], [60], [73].
 */

#ifndef SOC_WORKLOAD_QUEUEING_SERVICE_HH
#define SOC_WORKLOAD_QUEUEING_SERVICE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "power/frequency.hh"
#include "sim/ring.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"

namespace soc
{
namespace workload
{

/** Tunable description of one microservice. */
struct MicroserviceParams {
    std::string name;
    /** Mean service (execution) time at max turbo, unloaded. */
    double meanServiceMs = 1.0;
    /** Coefficient of variation of the service-time distribution. */
    double serviceCv = 1.0;
    /** Fraction of execution unaffected by core frequency. */
    double memBoundFrac = 0.25;
    /** Worker cores per VM instance. */
    int workersPerVm = 4;
    /** SLO = sloMultiplier * meanServiceMs (the paper uses 5x). */
    double sloMultiplier = 5.0;
    /** Queue bound per instance; overflow counts as a violation. */
    std::size_t maxQueue = 200000;
};

/**
 * The eight SocialNet-like services used throughout the evaluation,
 * tuned so the characterization findings hold: some services (Usr)
 * tolerate high utilization, others (UrlShort) violate their SLO
 * even at low utilization, and memory-bound ones (Media) benefit
 * little from overclocking.
 */
std::vector<MicroserviceParams> socialNetCatalog();

/** Mean service time at frequency @p f per the scaling rule above. */
double scaledServiceMs(const MicroserviceParams &params,
                       power::FreqMHz f);

/**
 * Analytic P99 of the service-time distribution at max turbo with no
 * queueing: the "execution time on an unloaded system" operators
 * profile when tuning WI thresholds (§IV-A).
 */
double unloadedP99Ms(const MicroserviceParams &params);

/**
 * Open-loop queueing simulation of one microservice deployment
 * (1..N VM instances) on the shared discrete-event simulator.
 */
class QueueingService
{
  public:
    /** Stable identifier of a VM instance within this service. */
    using InstanceId = int;

    /**
     * @throws std::invalid_argument in every build, before anything
     *         is scheduled, for workersPerVm < 1, a non-finite or
     *         non-positive meanServiceMs or sloMultiplier, a
     *         non-finite or negative serviceCv, or memBoundFrac
     *         outside [0, 1].
     */
    QueueingService(sim::Simulator &simulator,
                    MicroserviceParams params, std::uint64_t seed);

    ~QueueingService();

    QueueingService(const QueueingService &) = delete;
    QueueingService &operator=(const QueueingService &) = delete;

    const MicroserviceParams &params() const { return params_; }
    const std::string &name() const { return params_.name; }

    /** SLO threshold in milliseconds. */
    double sloMs() const
    {
        return params_.sloMultiplier * params_.meanServiceMs;
    }

    /** Offered-load capacity (req/s) of one instance at @p f. */
    double instanceCapacity(power::FreqMHz f) const;

    /** Add a VM instance running at @p freq. @return its id. */
    InstanceId addInstance(power::FreqMHz freq = power::kTurboMHz);

    /**
     * Retire the most recently added live instance (scale-in); it
     * finishes queued work but receives no new requests.
     *
     * @return false when only one live instance remains.
     */
    bool retireInstance();

    /** Number of live (non-retired) instances. */
    std::size_t instanceCount() const;

    /** Set one instance's frequency (affects new request starts). */
    void setFrequency(InstanceId id, power::FreqMHz f);

    power::FreqMHz frequency(InstanceId id) const;

    /** Current offered load in requests/second; 0 pauses arrivals. */
    void setArrivalRate(double per_second);
    double arrivalRate() const { return ratePerSecond_; }

    std::uint64_t completedCount() const { return completed_; }
    std::uint64_t violationCount() const { return violations_; }
    std::uint64_t droppedCount() const { return dropped_; }

    /** Instantaneous utilization (busy workers / workers) of @p id. */
    double instantUtilization(InstanceId id) const;

    /** Metrics accumulated since the previous drainWindow() call. */
    struct WindowStats {
        /** End-to-end latencies (ms), in completion order. */
        std::vector<double> latencyMs;
        double utilization = 0.0; ///< busy-core fraction
        std::uint64_t completed = 0;
        std::uint64_t violations = 0;
        std::uint64_t dropped = 0;
    };

    /**
     * Move the observation window into @p out and start the next one
     * (WI agent polls).  The sample buffers trade places: @p out's
     * old buffer, cleared, collects the next window.  A caller that
     * drains into the same WindowStats every poll thus grows two
     * buffers to the largest window once and then allocates nothing.
     */
    void drainWindow(WindowStats &out);

    /** Mean busy-core count integrated since construction. */
    double meanBusyCores() const;

  private:
    struct Instance {
        /** Back-pointer, so a completion event captures only
         *  (instance, arrival): 16 bytes, inside std::function's
         *  inline buffer (no heap block per request). */
        QueueingService *owner;
        InstanceId id;
        power::FreqMHz freq;
        /** Mean service time and lognormal mu at freq, refreshed
         *  whenever freq changes. */
        double meanServiceMs = 0.0;
        double mu = 0.0;
        int busy = 0;
        /** Waiting requests' arrival ticks, FIFO; the ring never
         *  shrinks, so a warm queue allocates nothing. */
        sim::Ring<sim::Tick> queue;
        bool retired = false;
    };

    Instance *find(InstanceId id);
    const Instance *find(InstanceId id) const;

    void scheduleNextArrival();
    void onArrival(sim::Tick now);
    void beginService(Instance &inst, sim::Tick arrival,
                      sim::Tick now);
    void onCompletion(Instance *inst, sim::Tick arrival,
                      sim::Tick now);
    void accrueBusyTime(sim::Tick now);
    void setInstanceFrequency(Instance &inst, power::FreqMHz f);
    double sampleServiceMs(const Instance &inst);

    sim::Simulator &sim_;
    MicroserviceParams params_;
    sim::Rng rng_;
    /** Lognormal shape of the service time: sigma^2 = log(1 + cv^2). */
    double sigma2_ = 0.0;
    double sigma_ = 0.0;

    std::vector<std::unique_ptr<Instance>> instances_;
    InstanceId nextInstance_ = 0;

    double ratePerSecond_ = 0.0;
    sim::EventId pendingArrival_ = sim::kInvalidEvent;

    // Cumulative metrics.
    std::uint64_t completed_ = 0;
    std::uint64_t violations_ = 0;
    std::uint64_t dropped_ = 0;

    // Busy-core integral (for utilization).
    int busyWorkers_ = 0; ///< summed over instances, retired too
    sim::Tick lastBusyUpdate_ = 0;
    double busyCoreTicks_ = 0.0;
    sim::Tick startTick_ = 0;

    // Window metrics.
    WindowStats window_;
    sim::Tick windowStart_ = 0;
    double windowBusyCoreTicks_ = 0.0;
};

} // namespace workload
} // namespace soc

#endif // SOC_WORKLOAD_QUEUEING_SERVICE_HH
