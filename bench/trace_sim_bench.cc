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
 *  4. Hint-ingestion throughput under the standard storm.
 *  5. Batch vs scalar normal generation: Rng::normalFill against
 *     the scalar normal() loop it replaced in the window refill,
 *     chunked at the trace generator's day-batch size.  The gated
 *     speedup keeps the batch path from silently regressing to
 *     scalar cost.
 *  6. Paper-scale streaming replay: the full 7,104-rack fleet of
 *     the paper (§III) through the HierarchyZone budget path,
 *     reporting replay throughput, the serial hierarchy-recompute
 *     share, and peak RSS (the streaming-window design holds it to
 *     racks x window, not racks x horizon).
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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/trace_sim.hh"
#include "core/budget_hierarchy.hh"
#include "core/goa.hh"
#include "hint_storm_common.hh"
#include "sim/rng.hh"
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

/** The paper-scale streaming replay (section 6). */
struct PaperScaleResult {
    cluster::TraceSimConfig cfg;
    cluster::TraceSimResult result;
    double wallS = 0.0;
    double racksPerS = 0.0;
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

    const auto start = Clock::now();
    out.result = cluster::runTraceSim(cfg);
    out.wallS = secondsSince(start);
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
        "    \"paper_wall_s\": %.3f,\n"
        "    \"paper_gen_s\": %.3f,\n"
        "    \"paper_sim_s\": %.3f,\n"
        "    \"paper_hier_s\": %.4f,\n"
        "    \"paper_hier_share\": %.4f,\n"
        "    \"paper_hier_recomputes\": %llu,\n"
        "    \"paper_racks_per_s\": %.1f,\n"
        "    \"paper_peak_rss_mb\": %.1f,\n"
        "    \"paper_requests\": %llu\n"
        "  }\n",
        paper.cfg.racks, paper.cfg.serversPerRack,
        args.sixWeeks ? "1w warmup + 5w eval" : "6h warmup + 6h eval",
        paper.wallS, paper.result.genSeconds,
        paper.result.simSeconds, paper.result.hierSeconds,
        paper.hierShare,
        static_cast<unsigned long long>(
            paper.result.hierarchyRecomputes),
        paper.racksPerS, paper.peakRssMb,
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
    core::BudgetAllocator::SplitScratch flat_scratch;
    std::vector<core::ProfileTemplate> flat_out;
    auto start = Clock::now();
    for (int rep = 0; rep < kHierReps; ++rep)
        flat_alloc.splitWeeklyInto(flat_row, zone_profiles,
                                   flat_scratch, flat_out);
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

    // 5. Batch-vs-scalar normal generation (gated speedup).
    const auto gen_batch = runGenBatchVsScalar();

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
                 "    \"hints_per_s\": %.0f\n"
                 "  },\n"
                 "  \"gen_batch_vs_scalar\": {\n"
                 "    \"gen_scalar_normals_per_s\": %.0f,\n"
                 "    \"gen_batch_normals_per_s\": %.0f,\n"
                 "    \"gen_batch_speedup\": %.3f\n"
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
                 ingress_bench.hintsPerS, gen_batch.scalarPerS,
                 gen_batch.batchPerS, gen_batch.speedup);
    printPaperScaleJson(out, args, paper);
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wall_s=%.3f gen_s=%.3f sim_s=%.3f "
                "racks_per_s=%.3f "
                "recompute_us_1w_min=%.2f recompute_us_6w_min=%.2f "
                "ratio=%.3f flat_zone_split_us=%.2f "
                "hier_incremental_us=%.2f hints_per_s=%.0f "
                "gen_batch_speedup=%.3f "
                "paper_racks_per_s=%.1f paper_peak_rss_mb=%.1f "
                "-> %s\n",
                wall_s, result.genSeconds, result.simSeconds,
                racks_per_s, lat_1w.minUs, lat_6w.minUs, ratio,
                flat_us, hier_us, ingress_bench.hintsPerS,
                gen_batch.speedup, paper.racksPerS, paper.peakRssMb,
                args.outPath);
    return 0;
}
