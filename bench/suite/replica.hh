/**
 * @file
 * The traced replica: a single-threaded re-implementation of the
 * trace replay's control loop (cluster/trace_sim.cc) built only from
 * public layer calls, with a span around each call.
 *
 * It must reproduce cluster::runTraceSim bit for bit on every
 * configuration the suite uses (no faults): the traced run checks
 * its counters against runTraceSim(threads = 1) every time, so a
 * replica that drifts from the program fails instead of timing
 * something else.  Independent racks recompute through the gOA's
 * two-phase pullProfiles/recomputeWithBudget over a constant usable
 * row, which equals recompute(now) bit for bit
 * (TraceSimHierarchy.EquivalenceModeMatchesPerRackBitIdentically).
 *
 * The service run's internals are not public layers: the replica
 * runs each configuration through runServiceSim inside one span.
 */

#ifndef SOC_BENCH_SUITE_REPLICA_HH
#define SOC_BENCH_SUITE_REPLICA_HH

#include <cstdint>

#include "tracer.hh"
#include "workloads.hh"

namespace socbench
{

/** Work counts taken at the layer boundaries of the replica. */
struct LayerCounts {
    /** Utilization samples generated (limit pass + replay). */
    std::uint64_t samples = 0;
    /** Overclock requests the sOAs granted. */
    std::uint64_t grants = 0;
    /** Frames the storm generators forged. */
    std::uint64_t stormFrames = 0;
    /** Rack-manager counters over the whole horizon. */
    std::uint64_t capEvents = 0;
    std::uint64_t warnings = 0;
    /** Ingress counters, all racks. */
    soc::core::IngressStats ingress;
};

struct ReplicaRun {
    Outcome outcome;
    LayerCounts counts;
};

/** Replay @p plan on the calling thread, recording spans. */
ReplicaRun replay(const Plan &plan, Tracer &tracer);

} // namespace socbench

#endif // SOC_BENCH_SUITE_REPLICA_HH
