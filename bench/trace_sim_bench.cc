/**
 * @file
 * Simulator-throughput and recompute-cost benchmark driver.
 *
 * Measurements, written as JSON (default BENCH_trace_sim.json) so
 * scripts/bench_check.sh and CI can track regressions:
 *
 *  1. End-to-end wall time of a multi-rack trace-simulator run
 *     (racks/sec of simulated fleet).
 *  2. gOA recompute latency after 1 week vs after 6 weeks of
 *     telemetry.  The sOAs' slot aggregators retain the prior week,
 *     so the cost is O(slots-per-week) regardless of history
 *     length, and the 6-week figure must stay within ~2x of the
 *     1-week figure; the batch builder they replaced scaled
 *     linearly (6x the history), and so would a window grown to
 *     the horizon.  The reference is 1 week, not 1 day: a 1-day
 *     harness retains 288 of the window's 2,016 slots, so 6w/1d
 *     would measure window fill, not horizon growth.  The gated
 *     ratio uses min-of-N (the distribution floor): means mix in
 *     scheduler noise that once pushed the ratio to ~0.96 of pure
 *     jitter.  The two horizons run on separate harnesses, timed in
 *     alternation, so host-speed drift during the run cannot move
 *     the ratio.
 *  3. Hierarchical budget tier vs the flat zone split.
 *  4. Hint-ingestion throughput under the standard storm, and on
 *     the overflow path: a hint flood twice the default 4,096-entry
 *     queue per step, so half of every step's hints are evicted.
 *  5. Batch generation against its scalar references, both gated
 *     at a floor so the batch paths never silently regress to
 *     scalar cost: Rng::normalFill against the scalar normal() loop
 *     it replaced in the window refill, chunked at the trace
 *     generator's day-batch size; and Archetype::utilFill (the
 *     minute-of-day shape table) against the per-sample utilAt
 *     kernel loop over the same day windows, interleaved, min of N.
 *     Beside them, also gated, the Percentiles reservoir (add, then
 *     a P99: its O(n) radix sort) against a std::sort reference on
 *     ~300k lognormal latencies, the size of a cluster run's
 *     largest load-class reservoir; and the two-tier EventQueue
 *     against a std::priority_queue (when, seq) reference on the
 *     cluster sim's traffic as DESIGN.md §3 counts it (52 pending;
 *     23.7% of delays under 1 ms, 76.0% over 1-65.5 ms, 0.26% past
 *     the wheel's window; 0.44% same-tick), interleaved, best of 5.
 *  6. Paper-scale streaming replay: the full 7,104-rack fleet of
 *     the paper (§III) through the HierarchyZone budget path,
 *     reporting replay throughput (racks over summed rack-seconds,
 *     and racks over wall time), the serial hierarchy-recompute
 *     share, and peak RSS (the streaming-window design holds it to
 *     racks x window, not racks x horizon), with the thread count,
 *     hardware threads, build type and commit it ran with.
 *
 * Usage:
 *   trace_sim_bench [out.json] [--paper-scale] [--six-weeks]
 *                   [--racks N] [--servers N] [--threads N]
 *
 *   --paper-scale  run *only* the paper-scale section (CI smoke uses
 *                  this with --racks 512); by default every section
 *                  runs, paper-scale included.
 *   --six-weeks    paper-scale horizon: 1 week warmup + 5 weeks eval
 *                  with weekly recomputes (the paper's full study)
 *                  instead of the default 6h + 6h.
 *   --racks N      paper-scale rack count   (default 7104)
 *   --servers N    paper-scale servers/rack (default 8)
 *   --threads N    worker threads, all sections (default 0 = auto)
 *
 * Unknown flags and malformed numbers are usage errors (exit 2):
 * a bench invoked with a typo must not silently measure the wrong
 * fleet.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/trace_sim.hh"
#include "core/budget_hierarchy.hh"
#include "core/goa.hh"
#include "hint_storm_common.hh"
#include "provenance_git.h"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/thread_pool.hh"
#include "sim/time.hh"
#include "workload/trace_generator.hh"

using namespace soc;
using Clock = std::chrono::steady_clock;

namespace
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Peak resident set of this process in MiB (Linux ru_maxrss is
 *  KiB).  The paper-scale gate tracks it: the streaming replay
 *  must keep 7.1k racks x 6 weeks out of memory. */
double
peakRssMb()
{
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Args {
    const char *outPath = "BENCH_trace_sim.json";
    bool paperScaleOnly = false;
    bool sixWeeks = false;
    int racks = 7104;
    int servers = 8;
    int threads = 0;
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [out.json] [--paper-scale] "
                 "[--six-weeks] [--racks N] [--servers N] "
                 "[--threads N]\n",
                 argv0);
    return 2;
}

/** Strict int parse: the whole token, in [min, max]. */
bool
parseInt(const char *text, long min, long max, int &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    errno = 0;
    char *end = nullptr;
    const long value = std::strtol(text, &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0' ||
        value < min || value > max)
        return false;
    out = static_cast<int>(value);
    return true;
}

bool
parseArgs(int argc, char **argv, Args &out)
{
    // Fail-closed (FC-001): build into a local and assign only on
    // success, so bad argv never leaves half-applied options.
    Args args;
    bool have_path = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--paper-scale") == 0) {
            args.paperScaleOnly = true;
        } else if (std::strcmp(arg, "--six-weeks") == 0) {
            args.sixWeeks = true;
        } else if (std::strcmp(arg, "--racks") == 0) {
            if (++i >= argc ||
                !parseInt(argv[i], 1, 1000000, args.racks))
                return false;
        } else if (std::strcmp(arg, "--servers") == 0) {
            if (++i >= argc ||
                !parseInt(argv[i], 1, 1024, args.servers))
                return false;
        } else if (std::strcmp(arg, "--threads") == 0) {
            if (++i >= argc ||
                !parseInt(argv[i], 0, 4096, args.threads))
                return false;
        } else if (arg[0] == '-') {
            return false; // unknown flag: fail closed
        } else if (!have_path) {
            args.outPath = arg;
            have_path = true;
        } else {
            return false; // second positional
        }
    }
    out = args;
    return true;
}

/** One rack of idle-ish servers streaming telemetry into their
 *  sOAs, with the gOA recomputed on demand over the rack's own
 *  limit. */
struct RecomputeHarness {
    static constexpr int kServers = 8;

    power::PowerModel model;
    power::Rack rack{0, power::Watts{4000.0}};
    std::vector<std::unique_ptr<core::ServerOverclockingAgent>> soas;
    core::GlobalOverclockingAgent goa;
    /** Constant row of the rack's usable watts, built once. */
    std::vector<double> usable;
    sim::Tick now = 0;

    RecomputeHarness() : goa(rack, model)
    {
        core::SoaConfig cfg;
        // One control tick per telemetry slot: every tick closes
        // exactly one 5-minute sample, the cheapest way to stream
        // weeks of history.
        cfg.controlPeriod = sim::kSlot;
        for (int i = 0; i < kServers; ++i) {
            power::Server &server = rack.addServer(&model);
            server.addGroup(8, 0.3 + 0.05 * i, power::kTurboMHz, 1);
            soas.push_back(
                std::make_unique<core::ServerOverclockingAgent>(
                    server, cfg, &rack));
            goa.addAgent(soas.back().get());
        }
        goa.assignEvenSplit();
        usable.assign(static_cast<std::size_t>(sim::kSlotsPerWeek),
                      goa.usableWatts().count());
    }

    /** Pull + split: one recompute. */
    void recomputeOwnRow()
    {
        goa.pullProfiles();
        goa.recomputeWithBudget(now, usable);
    }

    /** Stream telemetry until @p until (exclusive of recomputes). */
    void advanceTo(sim::Tick until)
    {
        for (; now < until; now += sim::kSlot)
            for (auto &soa : soas)
                soa->tick(now);
    }

    /** One fresh telemetry slot, so the recompute does real
     *  incremental work (otherwise the aggregator caches make all
     *  but the first recompute trivial), then one timed recompute.
     *  @return its wall time in seconds. */
    double timedRecompute()
    {
        advanceTo(now + sim::kSlot);
        const auto start = Clock::now();
        recomputeOwnRow();
        return secondsSince(start);
    }
};

struct Latency {
    double meanUs = 0.0;
    double minUs = 0.0;
};

/**
 * Recompute latency of two harnesses at different telemetry
 * horizons, measured interleaved: each of @p reps times one
 * recompute on @p a, then one on @p b, so a change in host speed
 * during the run lands on both horizons alike instead of moving
 * their ratio.  Reports the mean (context) and the min (the gated
 * figure: the distribution floor is the cost of the work;
 * everything above it is scheduler noise).
 */
std::pair<Latency, Latency>
measureInterleaved(RecomputeHarness &a, RecomputeHarness &b, int reps)
{
    a.recomputeOwnRow(); // warm scratch buffers, not timed
    b.recomputeOwnRow();
    double total_a = 0.0;
    double total_b = 0.0;
    double min_a = 0.0;
    double min_b = 0.0;
    for (int r = 0; r < reps; ++r) {
        const double s_a = a.timedRecompute();
        const double s_b = b.timedRecompute();
        total_a += s_a;
        total_b += s_b;
        min_a = r == 0 ? s_a : std::min(min_a, s_a);
        min_b = r == 0 ? s_b : std::min(min_b, s_b);
    }
    return {{total_a / reps * 1e6, min_a * 1e6},
            {total_b / reps * 1e6, min_b * 1e6}};
}

/** Synthetic per-server profiles for the hierarchy benchmark, with
 *  deterministic per-rack/server variation. */
std::vector<core::ServerProfile>
syntheticRack(int rack, int servers)
{
    std::vector<core::ServerProfile> out;
    for (int s = 0; s < servers; ++s) {
        core::ServerProfile p;
        p.power =
            core::ProfileTemplate::flat(300.0 + 10.0 * (rack % 5));
        p.utilization =
            core::ProfileTemplate::flat(0.4 + 0.05 * (s % 4));
        p.overclockedCores =
            core::ProfileTemplate::flat(static_cast<double>(s % 3));
        p.requestedCores =
            core::ProfileTemplate::flat(4.0 + (rack + s) % 6);
        out.push_back(std::move(p));
    }
    return out;
}

/** Batch-vs-scalar normal generation (section 5).  Both sides draw
 *  the same count from identically seeded streams; the batch side is
 *  chunked at VmUtilCursor::kBatch, the granularity the window
 *  refill actually uses, so the measured speedup is the one the
 *  replay sees.  Best-of-N to shed scheduler noise. */
struct GenBatchResult {
    double scalarPerS = 0.0;
    double batchPerS = 0.0;
    double speedup = 0.0;
};

GenBatchResult
runGenBatchVsScalar()
{
    constexpr std::size_t kNormals = std::size_t{1} << 21;
    constexpr std::size_t kChunk = workload::VmUtilCursor::kBatch;
    constexpr int kReps = 5;
    std::vector<double> buf(kChunk);
    double scalar_s = 0.0;
    double batch_s = 0.0;
    double sink = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        sim::Rng scalar_rng(9000 + rep);
        auto start = Clock::now();
        for (std::size_t i = 0; i < kNormals; i += kChunk) {
            for (std::size_t k = 0; k < kChunk; ++k)
                buf[k] = scalar_rng.normal();
            sink += buf[kChunk - 1];
        }
        const double s = secondsSince(start);
        if (rep == 0 || s < scalar_s)
            scalar_s = s;

        sim::Rng batch_rng(9000 + rep);
        start = Clock::now();
        for (std::size_t i = 0; i < kNormals; i += kChunk) {
            batch_rng.normalFill(buf.data(), kChunk);
            sink += buf[kChunk - 1];
        }
        const double b = secondsSince(start);
        if (rep == 0 || b < batch_s)
            batch_s = b;
    }
    // The streams are pinned identical by test; the checksum only
    // keeps the loops observable.
    if (sink == 12345.678)
        std::fprintf(stderr, "(checksum coincidence)\n");
    GenBatchResult out;
    out.scalarPerS =
        scalar_s > 0.0 ? static_cast<double>(kNormals) / scalar_s : 0.0;
    out.batchPerS =
        batch_s > 0.0 ? static_cast<double>(kNormals) / batch_s : 0.0;
    out.speedup =
        out.scalarPerS > 0.0 ? out.batchPerS / out.scalarPerS : 0.0;
    return out;
}

/** Shape fill against the scalar kernel (section 5): one day of
 *  5-minute slots per archetype of eight random server mixes, on
 *  days 1..kDays so every shifted tick is non-negative and the fill
 *  reads its table throughout.  The two sides alternate rep by rep,
 *  so a change in host speed lands on both; best-of-N. */
struct ShapeFillResult {
    double kernelPerS = 0.0;
    double fillPerS = 0.0;
    double speedup = 0.0;
};

ShapeFillResult
runShapeFillVsUtilAt()
{
    constexpr std::size_t kSlots = sim::kSlotsPerDay;
    constexpr int kDays = 28;
    constexpr int kReps = 5;
    workload::TraceGenerator gen(9000);
    std::vector<workload::Archetype> archetypes;
    for (int server = 0; server < 8; ++server)
        for (const auto &vm : gen.randomVmMix(64))
            archetypes.push_back(vm.archetype);
    std::vector<double> buf(kSlots);
    double kernel_s = 0.0;
    double fill_s = 0.0;
    double sink = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        auto start = Clock::now();
        for (int day = 1; day <= kDays; ++day) {
            const sim::Tick first = day * sim::kDay;
            for (const auto &arch : archetypes) {
                for (std::size_t k = 0; k < kSlots; ++k) {
                    const sim::Tick t = first +
                        static_cast<sim::Tick>(k) * sim::kSlot;
                    buf[k] = arch.utilAt(t);
                }
                sink += buf[kSlots - 1];
            }
        }
        const double s = secondsSince(start);
        if (rep == 0 || s < kernel_s)
            kernel_s = s;

        start = Clock::now();
        for (int day = 1; day <= kDays; ++day) {
            const sim::Tick first = day * sim::kDay;
            for (const auto &arch : archetypes) {
                arch.utilFill(first, sim::kSlot, kSlots, buf.data());
                sink += buf[kSlots - 1];
            }
        }
        const double f = secondsSince(start);
        if (rep == 0 || f < fill_s)
            fill_s = f;
    }
    // The two sides are pinned identical by test; the checksum only
    // keeps the loops observable.
    if (sink == 12345.678)
        std::fprintf(stderr, "(checksum coincidence)\n");
    const double samples = static_cast<double>(
        kSlots * archetypes.size() * static_cast<std::size_t>(kDays));
    ShapeFillResult out;
    out.kernelPerS = kernel_s > 0.0 ? samples / kernel_s : 0.0;
    out.fillPerS = fill_s > 0.0 ? samples / fill_s : 0.0;
    out.speedup =
        out.kernelPerS > 0.0 ? out.fillPerS / out.kernelPerS : 0.0;
    return out;
}

/** Percentiles against a std::sort reference (section 5): the same
 *  lognormal latencies appended, then one P99, which sorts.  The
 *  sides alternate rep by rep; best-of-N. */
struct PercentileSortResult {
    double referencePerS = 0.0;
    double percentilesPerS = 0.0;
    double speedup = 0.0;
};

PercentileSortResult
runPercentileSortVsStdSort()
{
    constexpr std::size_t kSamples = 300000;
    constexpr int kReps = 5;
    sim::Rng rng(9100);
    std::vector<double> latencies(kSamples);
    for (double &v : latencies)
        v = rng.lognormal(2.3, 0.8); // ms: median ~10, long tail
    double reference_s = 0.0;
    double percentiles_s = 0.0;
    double sink = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        auto start = Clock::now();
        {
            std::vector<double> sorted;
            for (const double v : latencies)
                sorted.push_back(v);
            std::sort(sorted.begin(), sorted.end());
            const double rank =
                0.99 * static_cast<double>(sorted.size() - 1);
            const auto lo = static_cast<std::size_t>(rank);
            const double frac = rank - static_cast<double>(lo);
            sink += sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
        }
        const double r = secondsSince(start);
        if (rep == 0 || r < reference_s)
            reference_s = r;

        start = Clock::now();
        {
            sim::Percentiles reservoir;
            for (const double v : latencies)
                reservoir.add(v);
            sink -= reservoir.p99();
        }
        const double p = secondsSince(start);
        if (rep == 0 || p < percentiles_s)
            percentiles_s = p;
    }
    // The two P99s are equal (the sort is pinned to std::sort by
    // test), so the checksum is 0; it only keeps the loops
    // observable.
    if (sink != 0.0)
        std::fprintf(stderr, "(percentile checksum mismatch)\n");
    const double samples = static_cast<double>(kSamples);
    PercentileSortResult out;
    out.referencePerS = reference_s > 0.0 ? samples / reference_s : 0.0;
    out.percentilesPerS =
        percentiles_s > 0.0 ? samples / percentiles_s : 0.0;
    out.speedup = out.referencePerS > 0.0
        ? out.percentilesPerS / out.referencePerS
        : 0.0;
    return out;
}

/** The event queue against a std::priority_queue reference
 *  (section 5), on the cluster sim's traffic as DESIGN.md §3 counts
 *  it: 52 pending events, each run scheduling one more.  23.7% of
 *  the delays are log-uniform over 1 us-1 ms (request arrivals and
 *  short services), 76.0% over 1-65.5 ms, and 0.26% lie past the
 *  wheel's window, drawn from the far delays counted there (kFar),
 *  so the far tier is timed too and holds a few events, as it does
 *  in the cluster sim.  0.44% of the events land on the tick of the
 *  last event scheduled, which is then usually still pending: a
 *  same-tick tie.  Both sides run the same 16-byte std::function
 *  handlers over the same delays; the sides alternate rep by rep;
 *  best-of-N. */
struct EventQueueResult {
    double referencePerS = 0.0;
    double queuePerS = 0.0;
    double speedup = 0.0;
};

/** The reference: (when, seq) order in a std::priority_queue of
 *  records holding their handlers. */
class ReferenceEventQueue
{
  public:
    using Handler = std::function<void(sim::Tick)>;

    sim::Tick now() const { return now_; }

    void
    schedule(sim::Tick when, Handler handler)
    {
        heap_.push(Item{when, nextSeq_++, std::move(handler)});
    }

    bool
    step()
    {
        if (heap_.empty())
            return false;
        // top() is const; the item is popped at once, so moving its
        // handler out is safe.
        Item &top = const_cast<Item &>(heap_.top());
        const sim::Tick when = top.when;
        Handler handler = std::move(top.handler);
        heap_.pop();
        now_ = when;
        handler(now_);
        return true;
    }

  private:
    struct Item {
        sim::Tick when;
        std::uint64_t seq;
        Handler handler;
    };
    struct RunsAfter {
        bool
        operator()(const Item &a, const Item &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    sim::Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::priority_queue<Item, std::vector<Item>, RunsAfter> heap_;
};

/** Delay-list entry: schedule at the tick of the last event
 *  scheduled, or at the running event's own tick if that is later. */
constexpr sim::Tick kSameTick = -1;

/** Replays a delay list through a queue: each event run schedules
 *  the next delay from its own tick, so the pending count stays at
 *  its initial value until the list runs out.  tickSum checks that
 *  both sides ran the same ticks. */
template <class Queue>
struct EventReplay {
    Queue queue;
    const std::vector<sim::Tick> *delays = nullptr;
    std::size_t next = 0;
    sim::Tick tickSum = 0;
    sim::Tick lastWhen = 0;

    void
    add(sim::Tick from, sim::Tick delay)
    {
        lastWhen = delay == kSameTick ? std::max(lastWhen, from)
                                      : from + delay;
        queue.schedule(lastWhen, [this](sim::Tick t) { fire(t); });
    }

    void
    fire(sim::Tick t)
    {
        tickSum += t;
        if (next < delays->size())
            add(t, (*delays)[next++]);
    }
};

template <class Queue>
double
timeEventReplay(const std::vector<sim::Tick> &delays,
                std::size_t pending, sim::Tick &tick_sum)
{
    EventReplay<Queue> replay;
    replay.delays = &delays;
    replay.next = pending;
    for (std::size_t k = 0; k < pending; ++k)
        replay.add(0, delays[k]);
    const auto start = Clock::now();
    while (replay.queue.step()) {
    }
    const double s = secondsSince(start);
    tick_sum = replay.tickSum;
    return s;
}

EventQueueResult
runEventQueueVsReference()
{
    constexpr std::size_t kEvents = std::size_t{1} << 20;
    constexpr std::size_t kPending = 52;
    constexpr int kReps = 5;
    sim::Rng rng(9200);
    const auto log_uniform = [&rng](sim::Tick lo, sim::Tick hi) {
        return static_cast<sim::Tick>(
            std::exp(rng.uniform(std::log(static_cast<double>(lo)),
                                 std::log(static_cast<double>(hi)))));
    };
    // The far delays of the pinned cluster_fig12 run by log2 bin:
    // request-path tails just past the window, and the periodic
    // tasks' ticks, each exactly its period (lo == hi).  The other
    // bins are log-uniform over [lo, hi).
    struct FarBin {
        std::int64_t count;
        sim::Tick lo;
        sim::Tick hi;
    };
    static constexpr FarBin kFar[] = {
        {23073, 65536 * sim::kMicrosecond, 128 * sim::kMillisecond},
        {1837, 128 * sim::kMillisecond, 256 * sim::kMillisecond},
        {111, 256 * sim::kMillisecond, 512 * sim::kMillisecond},
        {244, 5 * sim::kSecond, 5 * sim::kSecond},
        {84, 15 * sim::kSecond, 15 * sim::kSecond},
        {8, 5 * sim::kMinute, 5 * sim::kMinute},
    };
    std::int64_t far_total = 0;
    for (const FarBin &bin : kFar)
        far_total += bin.count;
    std::vector<sim::Tick> delays(kEvents);
    for (sim::Tick &d : delays) {
        const double u = rng.uniform();
        if (rng.chance(0.0044)) {
            d = kSameTick;
        } else if (u < 0.0026) {
            std::int64_t k = rng.uniformInt(0, far_total - 1);
            const FarBin *bin = kFar;
            while (k >= bin->count)
                k -= (bin++)->count;
            d = bin->lo == bin->hi ? bin->lo
                                   : log_uniform(bin->lo, bin->hi);
        } else if (u < 0.0026 + 0.237) {
            d = log_uniform(sim::kMicrosecond, sim::kMillisecond);
        } else {
            d = log_uniform(sim::kMillisecond,
                            65536 * sim::kMicrosecond);
        }
    }
    double reference_s = 0.0;
    double queue_s = 0.0;
    sim::Tick reference_sum = 0;
    sim::Tick queue_sum = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        const double r = timeEventReplay<ReferenceEventQueue>(
            delays, kPending, reference_sum);
        if (rep == 0 || r < reference_s)
            reference_s = r;
        const double q = timeEventReplay<sim::EventQueue>(
            delays, kPending, queue_sum);
        if (rep == 0 || q < queue_s)
            queue_s = q;
    }
    // Both sides run the same events at the same ticks.
    if (reference_sum != queue_sum)
        std::fprintf(stderr, "(event queue checksum mismatch)\n");
    const double events = static_cast<double>(kEvents);
    EventQueueResult out;
    out.referencePerS =
        reference_s > 0.0 ? events / reference_s : 0.0;
    out.queuePerS = queue_s > 0.0 ? events / queue_s : 0.0;
    out.speedup = out.referencePerS > 0.0
        ? out.queuePerS / out.referencePerS
        : 0.0;
    return out;
}

/** The paper-scale streaming replay (section 6). */
struct PaperScaleResult {
    cluster::TraceSimConfig cfg;
    cluster::TraceSimResult result;
    /** Worker threads the lockstep pool ran with. */
    int threads = 0;
    double wallS = 0.0;
    /** Racks over summed rack replay seconds (the gated figure). */
    double racksPerS = 0.0;
    /** Racks over the run's wall time. */
    double wallRacksPerS = 0.0;
    double hierShare = 0.0;
    double peakRssMb = 0.0;
};

PaperScaleResult
runPaperScale(const Args &args)
{
    PaperScaleResult out;
    cluster::TraceSimConfig &cfg = out.cfg;
    cfg.racks = args.racks;
    cfg.serversPerRack = args.servers;
    if (args.sixWeeks) {
        cfg.warmup = sim::kWeek;
        cfg.duration = 5 * sim::kWeek;
        cfg.recomputePeriod = sim::kWeek;
    } else {
        cfg.warmup = 6 * sim::kHour;
        cfg.duration = 6 * sim::kHour;
        cfg.recomputePeriod = 3 * sim::kHour;
    }
    cfg.controlStep = 300 * sim::kSecond;
    cfg.requestChunk = sim::kHour;
    cfg.streamWindow = sim::kDay;
    cfg.budgetPath = cluster::BudgetPath::HierarchyZone;
    cfg.racksPerRow = 8;
    cfg.threads = args.threads;
    cfg.seed = 101;

    // The pool size runLockstepZone picks: the request, capped at
    // one thread per rack.
    out.threads = std::min(
        sim::ThreadPool::resolveThreads(cfg.threads), cfg.racks);
    const auto start = Clock::now();
    out.result = cluster::runTraceSim(cfg);
    out.wallS = secondsSince(start);
    out.wallRacksPerS = out.wallS > 0.0 ? cfg.racks / out.wallS : 0.0;
    // Replay throughput charges the hierarchy's serial recompute
    // phase too — it is on the critical path at paper scale.
    const double replay_s =
        out.result.simSeconds + out.result.hierSeconds;
    out.racksPerS = replay_s > 0.0 ? cfg.racks / replay_s : 0.0;
    out.hierShare =
        replay_s > 0.0 ? out.result.hierSeconds / replay_s : 0.0;
    out.peakRssMb = peakRssMb();
    return out;
}

void
printPaperScaleJson(std::FILE *out, const Args &args,
                    const PaperScaleResult &paper)
{
    std::fprintf(
        out,
        "  \"paper_scale\": {\n"
        "    \"paper_racks\": %d,\n"
        "    \"paper_servers_per_rack\": %d,\n"
        "    \"paper_horizon\": \"%s\",\n"
        "    \"paper_threads\": %d,\n"
        "    \"paper_hardware_threads\": %u,\n"
        "    \"paper_build_type\": \"%s\",\n"
        "    \"paper_commit\": \"%s%s\",\n"
        "    \"paper_wall_s\": %.3f,\n"
        "    \"paper_gen_s\": %.3f,\n"
        "    \"paper_sim_s\": %.3f,\n"
        "    \"paper_hier_s\": %.4f,\n"
        "    \"paper_hier_share\": %.4f,\n"
        "    \"paper_hier_recomputes\": %llu,\n"
        "    \"paper_racks_per_s\": %.1f,\n"
        "    \"paper_wall_racks_per_s\": %.1f,\n"
        "    \"paper_peak_rss_mb\": %.1f,\n"
        "    \"paper_requests\": %llu\n"
        "  }\n",
        paper.cfg.racks, paper.cfg.serversPerRack,
        args.sixWeeks ? "1w warmup + 5w eval" : "6h warmup + 6h eval",
        paper.threads, std::thread::hardware_concurrency(),
        SOC_BENCH_BUILD_TYPE, SOC_BENCH_COMMIT,
        std::strcmp(SOC_BENCH_DIRTY, "true") == 0 ? "-dirty" : "",
        paper.wallS, paper.result.genSeconds,
        paper.result.simSeconds, paper.result.hierSeconds,
        paper.hierShare,
        static_cast<unsigned long long>(
            paper.result.hierarchyRecomputes),
        paper.racksPerS, paper.wallRacksPerS, paper.peakRssMb,
        static_cast<unsigned long long>(paper.result.requests));
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args))
        return usage(argv[0]);

    if (args.paperScaleOnly) {
        const auto paper = runPaperScale(args);
        std::FILE *out = std::fopen(args.outPath, "w");
        if (out == nullptr) {
            std::fprintf(stderr, "cannot open %s\n", args.outPath);
            return 1;
        }
        std::fprintf(out, "{\n");
        printPaperScaleJson(out, args, paper);
        std::fprintf(out, "}\n");
        std::fclose(out);
        std::printf("paper_racks=%d paper_sim_s=%.3f "
                    "paper_hier_s=%.4f paper_racks_per_s=%.1f "
                    "paper_peak_rss_mb=%.1f -> %s\n",
                    paper.cfg.racks, paper.result.simSeconds,
                    paper.result.hierSeconds, paper.racksPerS,
                    paper.peakRssMb, args.outPath);
        return 0;
    }

    // 1. Simulator throughput at fleet-bench scale (ROADMAP item
    //    1).  racks_per_s is *replay* throughput — racks over the
    //    control-loop seconds summed across racks — with one-time
    //    trace synthesis reported separately, since a fleet study
    //    amortizes generation across many policy runs.
    // 6h warmup + 6h eval keeps the bench CI-sized while still
    // crossing warmup snapshots, recomputes, slot rollovers and
    // several grant chunks per VM; long-horizon behaviour is covered
    // by the recompute harness below and the EXPERIMENTS.md recipes.
    cluster::TraceSimConfig cfg;
    cfg.racks = 64;
    cfg.serversPerRack = 8;
    cfg.warmup = 6 * sim::kHour;
    cfg.duration = 6 * sim::kHour;
    cfg.controlStep = 300 * sim::kSecond;
    cfg.requestChunk = sim::kHour;
    cfg.seed = 101;
    cfg.threads = args.threads;
    // Best-of-N, like the recompute min: the run is short enough
    // (~0.2s) that one page-reclaim stall or scheduler preemption
    // otherwise dominates the gated figure.
    constexpr int kReplayReps = 3;
    cluster::TraceSimResult result;
    double wall_s = 0.0;
    for (int rep = 0; rep < kReplayReps; ++rep) {
        const auto wall_start = Clock::now();
        auto r = cluster::runTraceSim(cfg);
        const double w = secondsSince(wall_start);
        if (rep == 0 || r.simSeconds < result.simSeconds) {
            result = std::move(r);
            wall_s = w;
        }
    }
    const double racks_per_s = result.simSeconds > 0.0
        ? cfg.racks / result.simSeconds
        : 0.0;

    // 2. Recompute latency vs telemetry horizon (min-of-N gated),
    //    one harness per horizon, measured interleaved.
    constexpr int kRecomputeReps = 64;
    RecomputeHarness harness_1w;
    RecomputeHarness harness_6w;
    harness_1w.advanceTo(sim::kWeek);
    harness_6w.advanceTo(6 * sim::kWeek);
    const auto [lat_1w, lat_6w] =
        measureInterleaved(harness_1w, harness_6w, kRecomputeReps);
    const double ratio =
        lat_1w.minUs > 0.0 ? lat_6w.minUs / lat_1w.minUs : 0.0;

    // 3. Hierarchical budget tier at the same fleet scale.  The
    //    flat split prices the zone at O(servers x slots) every
    //    time; the rack->row->zone tier re-splits at
    //    O((rows + racks) x slots) and, in steady state (one rack's
    //    telemetry changed), re-aggregates only that rack and its
    //    row.
    std::vector<core::ServerProfile> zone_profiles;
    core::BudgetHierarchy hierarchy(harness_1w.model, {});
    core::ProfileAggregator aggregator;
    for (int r = 0; r < cfg.racks; ++r) {
        const auto rack_profiles = syntheticRack(r, cfg.serversPerRack);
        for (const auto &p : rack_profiles)
            zone_profiles.push_back(p);
        core::ServerProfile aggregate;
        aggregator.aggregate(rack_profiles.data(), rack_profiles.size(),
                             aggregate);
        hierarchy.addRackAggregate(std::move(aggregate));
    }
    const power::Watts zone_limit{cfg.racks * cfg.serversPerRack *
                                  450.0};
    constexpr int kHierReps = 16;

    core::BudgetAllocator flat_alloc(harness_1w.model);
    const std::vector<double> flat_row(
        static_cast<std::size_t>(sim::kSlotsPerWeek),
        (zone_limit * (1.0 - core::BudgetConfig{}.safetyFraction))
            .count());
    std::vector<core::ProfileTemplate> flat_out;
    auto start = Clock::now();
    for (int rep = 0; rep < kHierReps; ++rep)
        flat_alloc.splitWeeklyInto(flat_row, zone_profiles, flat_out);
    const double flat_us = secondsSince(start) / kHierReps * 1e6;

    hierarchy.recompute(zone_limit); // build aggregates, not timed
    core::ServerProfile slot;
    start = Clock::now();
    for (int rep = 0; rep < kHierReps; ++rep) {
        // Steady state: one rack's telemetry pull changed; its
        // servers are aggregated here, as its gOA would.
        const int rack = rep % cfg.racks;
        const auto rack_profiles =
            syntheticRack(rack, cfg.serversPerRack);
        aggregator.aggregate(rack_profiles.data(), rack_profiles.size(),
                             slot);
        hierarchy.exchangeRackAggregate(rack, slot);
        hierarchy.recompute(zone_limit);
    }
    const double hier_us = secondsSince(start) / kHierReps * 1e6;

    // 4. Hint-ingestion throughput under the standard adversarial
    //    storm (offer + parse + dedup + drop policy + drain).  The
    //    gated hints_per_s figure: scripts/bench_check.sh fails if
    //    the boundary can no longer absorb storms at rate.
    core::HintIngressConfig ingress_cfg;
    ingress_cfg.maxHintAge = sim::kHour;
    auto storm_cfg = sim::HintStormConfig::standardStorm();
    const auto ingress_bench = benchutil::runIngressStorm(
        storm_cfg, ingress_cfg, /*servers=*/8, /*vms_per_server=*/16,
        /*steps=*/2000);
    // The overflow path, gated as overflow_hints_per_s: 8,192 flood
    // frames a step over 128 flows into the default capacity, so
    // every offer past the 4,096th evicts (oldest-duplicate-first).
    // An eviction that costs O(queue) instead of O(1) — a vector
    // erase at the front, say — collapses this figure.
    const auto overflow_bench = benchutil::runIngressStorm(
        sim::HintStormConfig::only(sim::StormKind::HintFlood, 1024.0),
        ingress_cfg, /*servers=*/8, /*vms_per_server=*/16,
        /*steps=*/96);

    // 5. Batch generation against its scalar references (gated
    //    speedups).
    const auto gen_batch = runGenBatchVsScalar();
    const auto shape_fill = runShapeFillVsUtilAt();
    const auto percentile_sort = runPercentileSortVsStdSort();
    const auto event_queue = runEventQueueVsReference();

    // 6. Paper-scale streaming replay (gated racks/s + peak RSS).
    const auto paper = runPaperScale(args);

    std::FILE *out = std::fopen(args.outPath, "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", args.outPath);
        return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"trace_sim\": {\n"
                 "    \"racks\": %d,\n"
                 "    \"servers_per_rack\": %d,\n"
                 "    \"simulated\": \"6h warmup + 6h eval\",\n"
                 "    \"wall_s\": %.3f,\n"
                 "    \"gen_s\": %.3f,\n"
                 "    \"sim_s\": %.3f,\n"
                 "    \"racks_per_s\": %.3f,\n"
                 "    \"requests\": %llu\n"
                 "  },\n"
                 "  \"goa_recompute\": {\n"
                 "    \"servers\": %d,\n"
                 "    \"iterations\": %d,\n"
                 "    \"recompute_us_1w\": %.2f,\n"
                 "    \"recompute_us_1w_min\": %.2f,\n"
                 "    \"recompute_us_6w\": %.2f,\n"
                 "    \"recompute_us_6w_min\": %.2f,\n"
                 "    \"ratio_6w_over_1w\": %.3f\n"
                 "  },\n"
                 "  \"budget_hierarchy\": {\n"
                 "    \"racks\": %d,\n"
                 "    \"rows\": %d,\n"
                 "    \"flat_zone_split_us\": %.2f,\n"
                 "    \"incremental_recompute_us\": %.2f\n"
                 "  },\n"
                 "  \"hint_ingress\": {\n"
                 "    \"storm\": \"standard\",\n"
                 "    \"offered\": %llu,\n"
                 "    \"accepted\": %llu,\n"
                 "    \"parse_rejects\": %llu,\n"
                 "    \"hints_per_s\": %.0f,\n"
                 "    \"overflow_storm\": \"hint_flood\",\n"
                 "    \"overflow_capacity\": %zu,\n"
                 "    \"overflow_offered\": %llu,\n"
                 "    \"overflow_evictions\": %llu,\n"
                 "    \"overflow_hints_per_s\": %.0f\n"
                 "  },\n"
                 "  \"gen_batch_vs_scalar\": {\n"
                 "    \"gen_scalar_normals_per_s\": %.0f,\n"
                 "    \"gen_batch_normals_per_s\": %.0f,\n"
                 "    \"gen_batch_speedup\": %.3f,\n"
                 "    \"shape_kernel_samples_per_s\": %.0f,\n"
                 "    \"shape_fill_samples_per_s\": %.0f,\n"
                 "    \"shape_fill_speedup\": %.3f,\n"
                 "    \"percentile_reference_samples_per_s\": %.0f,\n"
                 "    \"percentile_samples_per_s\": %.0f,\n"
                 "    \"percentile_sort_speedup\": %.3f,\n"
                 "    \"event_queue_reference_events_per_s\": %.0f,\n"
                 "    \"event_queue_events_per_s\": %.0f,\n"
                 "    \"event_queue_speedup\": %.3f\n"
                 "  },\n",
                 cfg.racks, cfg.serversPerRack, wall_s,
                 result.genSeconds, result.simSeconds, racks_per_s,
                 static_cast<unsigned long long>(result.requests),
                 RecomputeHarness::kServers, kRecomputeReps,
                 lat_1w.meanUs, lat_1w.minUs, lat_6w.meanUs,
                 lat_6w.minUs, ratio, cfg.racks,
                 static_cast<int>(hierarchy.rows()), flat_us,
                 hier_us,
                 static_cast<unsigned long long>(
                     ingress_bench.offered),
                 static_cast<unsigned long long>(
                     ingress_bench.stats.accepted),
                 static_cast<unsigned long long>(
                     ingress_bench.stats.parseRejects),
                 ingress_bench.hintsPerS, ingress_cfg.queueCapacity,
                 static_cast<unsigned long long>(
                     overflow_bench.offered),
                 static_cast<unsigned long long>(
                     overflow_bench.stats.overflowEvictions),
                 overflow_bench.hintsPerS, gen_batch.scalarPerS,
                 gen_batch.batchPerS, gen_batch.speedup,
                 shape_fill.kernelPerS, shape_fill.fillPerS,
                 shape_fill.speedup, percentile_sort.referencePerS,
                 percentile_sort.percentilesPerS,
                 percentile_sort.speedup, event_queue.referencePerS,
                 event_queue.queuePerS, event_queue.speedup);
    printPaperScaleJson(out, args, paper);
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wall_s=%.3f gen_s=%.3f sim_s=%.3f "
                "racks_per_s=%.3f "
                "recompute_us_1w_min=%.2f recompute_us_6w_min=%.2f "
                "ratio=%.3f flat_zone_split_us=%.2f "
                "hier_incremental_us=%.2f hints_per_s=%.0f "
                "overflow_hints_per_s=%.0f "
                "gen_batch_speedup=%.3f shape_fill_speedup=%.3f "
                "percentile_sort_speedup=%.3f "
                "event_queue_speedup=%.3f "
                "paper_racks_per_s=%.1f paper_peak_rss_mb=%.1f "
                "-> %s\n",
                wall_s, result.genSeconds, result.simSeconds,
                racks_per_s, lat_1w.minUs, lat_6w.minUs, ratio,
                flat_us, hier_us, ingress_bench.hintsPerS,
                overflow_bench.hintsPerS, gen_batch.speedup,
                shape_fill.speedup, percentile_sort.speedup,
                event_queue.speedup, paper.racksPerS, paper.peakRssMb,
                args.outPath);
    return 0;
}
