/**
 * @file
 * The benchmark's workloads: pinned simulator configurations at the
 * sizes the suite runs them, plus the simulated statistics each run
 * is checked against.
 *
 * Every workload is a list of configurations of one public entry
 * point (cluster::runTraceSim, runTraceSimBatch or
 * runServiceSimBatch).  Sizes:
 *  - Full: what the end-to-end metrics measure;
 *  - Replica: the reduced, single-threaded size the traced run
 *    replays span by span;
 *  - Smoke: seconds-long sizes for the suite's own ctest.
 * A set-up plan is the same configuration with no warm-up and a
 * single control step: fleet construction only.
 */

#ifndef SOC_BENCH_SUITE_WORKLOADS_HH
#define SOC_BENCH_SUITE_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/service_sim.hh"
#include "cluster/trace_sim.hh"

namespace socbench
{

enum class Scale { Full, Replica, Smoke };

bool isWorkload(const std::string &name);

/** The seed whose statistics the suite pins as goldens. */
std::uint64_t pinnedSeed(const std::string &workload);

/** What one run of a workload executes. */
struct Plan {
    std::string workload;
    /** Trace-replay configurations (empty for the service run). */
    std::vector<soc::cluster::TraceSimConfig> trace;
    /** Discrete-event cluster configurations. */
    std::vector<soc::cluster::ServiceSimConfig> service;
    /** Worker threads of the run's pool. */
    int threads = 1;

    /** Simulated server-hours the plan covers. */
    double serverHours() const;
    /** Servers the plan builds (summed over configurations). */
    double servers() const;
};

Plan makePlan(const std::string &workload, std::uint64_t seed,
              Scale scale, int threads);

/** Same configurations, warm-up 0 and one control step long. */
Plan setupPlan(Plan plan);

/** Simulated outputs of one plan, in configuration order. */
struct Outcome {
    std::vector<soc::cluster::TraceSimResult> trace;
    std::vector<soc::cluster::ServiceSimResult> service;
};

/** Run @p plan through the public batch entry points. */
Outcome runPlan(const Plan &plan);

/** Named simulated statistic. */
struct Stat {
    std::string name;
    double value = 0.0;
};

/** Every simulated statistic of run @p i (no timings). */
std::vector<Stat> runStats(const Outcome &outcome, std::size_t i);

/** FNV-1a over every run's statistics, as 16 hex digits. */
std::string digest(const Outcome &outcome);

/** Index of the first run whose statistics differ (size() when
 *  all match; also reports a run-count mismatch). */
std::size_t firstMismatch(const Outcome &a, const Outcome &b);

/** Invariant violations (rates in [0,1], energy > 0, finite
 *  values...); empty when the outcome is plausible. */
std::vector<std::string> checkInvariants(const Outcome &outcome);

/** JSON object of the golden statistics (totals, per-class p99 for
 *  the service run) plus the digest. */
std::string goldenJson(const Outcome &outcome);

/** JSON object of the configuration fields that matter: a scalar
 *  where every configuration agrees, a list otherwise. */
std::string configJson(const Plan &plan);

/** Table I High-tier slice (norm. caps, success, norm. perf per
 *  policy) of a table1_sweep outcome, as JSON;
 *  "null" for other workloads. */
std::string tableOneJson(const Plan &plan, const Outcome &outcome);

} // namespace socbench

#endif // SOC_BENCH_SUITE_WORKLOADS_HH
