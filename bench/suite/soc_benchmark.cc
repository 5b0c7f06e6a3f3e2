/**
 * @file
 * Benchmark program: runs one workload once and writes one JSON
 * result file.
 *
 *   soc_benchmark --workload NAME [--seed N] [--threads N]
 *                 [--setup | --traced] [--smoke] --out F.json
 *
 * Modes:
 *  (default)  the workload at full size through the public entry
 *             points, timed end to end: simulated server-hours per
 *             wall second, process CPU seconds and peak RSS;
 *  --setup    the same configurations with no warm-up and one
 *             control step: fleet construction only;
 *  --traced   the reduced single-threaded replica (replica.hh):
 *             first runTraceSim/runServiceSim at threads = 1 as the
 *             reference, then the replica with spans, then the
 *             reference again, timed, for the tracing overhead.  The
 *             replica's statistics must equal the reference's.  Spans
 *             go to F.spans.jsonl.
 *  --smoke    seconds-long sizes (any mode), for the suite's tests.
 *
 * --seed defaults to the workload's pinned seed; --threads to
 * min(4, CPUs available).  Every result carries its provenance.
 *
 * Exit status: 0 on success, 1 when a run throws, breaks an
 * invariant or the replica disagrees with the program, 2 on a usage
 * error (unknown flag or workload, malformed number).
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "provenance_git.h"
#include "replica.hh"
#include "tracer.hh"
#include "workloads.hh"

using namespace socbench;

namespace
{

using Clock = std::chrono::steady_clock;

enum class Mode { Run, Setup, Traced };

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    bool seedSet = false;
    int threads = 0;
    Mode mode = Mode::Run;
    bool smoke = false;
    std::string out;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: soc_benchmark --workload NAME [--seed N] "
                 "[--threads N] [--setup | --traced] [--smoke] "
                 "--out F.json\n");
    return 2;
}

/** Strict unsigned parse: digits only, the whole token, <= max. */
bool
parseUnsigned(const char *text, unsigned long long max,
              unsigned long long &out)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0' || value > max)
        return false;
    out = value;
    return true;
}

bool
parseArgs(int argc, char **argv, Args &out)
{
    // Built into a local and assigned once on success, so a bad
    // command line never leaves half-applied options.
    Args args;
    bool setup = false;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        unsigned long long value = 0;
        if (arg == "--workload" && has_value) {
            args.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            if (!parseUnsigned(argv[++i], 1ULL << 62, value))
                return false;
            args.seed = value;
            args.seedSet = true;
        } else if (arg == "--threads" && has_value) {
            if (!parseUnsigned(argv[++i], 256, value) || value == 0)
                return false;
            args.threads = static_cast<int>(value);
        } else if (arg == "--out" && has_value) {
            args.out = argv[++i];
        } else if (arg == "--setup") {
            setup = true;
        } else if (arg == "--traced") {
            traced = true;
        } else if (arg == "--smoke") {
            args.smoke = true;
        } else {
            return false;
        }
    }
    if (!isWorkload(args.workload) || args.out.empty() ||
        (setup && traced))
        return false;
    args.mode = setup ? Mode::Setup : traced ? Mode::Traced : Mode::Run;
    out = args;
    return true;
}

/** CPUs this process may run on (what nproc prints). */
int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
provenanceJson(int threads)
{
    struct utsname uts {};
    std::string kernel = "unknown";
    if (uname(&uts) == 0) {
        kernel = std::string(uts.sysname) + " " + uts.release + " " +
            uts.version + " " + uts.machine;
    }
    return "{\"commit\": " + jsonString(SOC_BENCH_COMMIT) +
        ", \"dirty\": " + jsonString(SOC_BENCH_DIRTY) +
        ", \"build_type\": " + jsonString(SOC_BENCH_BUILD_TYPE) +
        ", \"compiler\": " + jsonString(SOC_BENCH_COMPILER) +
        ", \"lto\": " + jsonString(SOC_BENCH_LTO) +
        ", \"threads\": " + std::to_string(threads) +
        ", \"nproc\": " + std::to_string(availableCpus()) +
        ", \"hardware_concurrency\": " +
        std::to_string(std::thread::hardware_concurrency()) +
        ", \"kernel\": " + jsonString(kernel) + "}";
}

struct Usage {
    double cpuS = 0.0;
    double peakRssMb = 0.0;
    double minorFaults = 0.0;
};

/**
 * Peak resident set of this program in MiB: VmHWM of
 * /proc/self/status.  Not ru_maxrss, which Linux carries across
 * execve, so a child of a large parent would report the parent's
 * peak.  Returns 0 when the file is unreadable.
 */
double
peakRssMb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return 0.0;
    char line[256];
    unsigned long long kib = 0;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
        if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1)
            break;
    }
    std::fclose(status);
    return static_cast<double>(kib) / 1024.0;
}

/** This process so far: user+sys CPU of all its threads, peak
 *  resident set, minor page faults. */
Usage
processUsage()
{
    struct rusage ru {};
    Usage u;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return u;
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
            static_cast<double>(t.tv_usec) * 1e-6;
    };
    u.cpuS = tv(ru.ru_utime) + tv(ru.ru_stime);
    u.peakRssMb = peakRssMb();
    u.minorFaults = static_cast<double>(ru.ru_minflt);
    return u;
}

using Metrics = std::vector<std::pair<std::string, double>>;

std::string
metricsJson(const Metrics &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", " : "") + jsonString(metrics[i].first) + ": " +
            num(metrics[i].second);
    }
    return out + "}";
}

double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

/** Per-layer metrics of a traced replica run. */
Metrics
layerMetrics(const Tracer &tr, const ReplicaRun &run, double refWallS)
{
    const auto &c = run.counts;
    const double wall = tr.wallS();
    const double gen_s = tr.selfS("workload.gen");
    const auto requests = static_cast<double>(tr.calls("core.soa_request"));
    std::uint64_t scale_outs = 0, starts = 0, denials = 0, caps = 0;
    for (const auto &r : run.outcome.service) {
        scale_outs += r.scaleOuts;
        starts += r.overclockStarts;
        denials += r.denials;
        caps += r.capEvents;
    }
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    Metrics m = {
        {"workload.gen_s", gen_s},
        {"workload.samples", d(c.samples)},
        {"workload.ns_per_sample", ratio(gen_s * 1e9, d(c.samples))},
        {"workload.mix_s", tr.selfS("workload.mix")},
        {"cluster.apply_slot_s", tr.selfS("cluster.apply_slot")},
        {"cluster.apply_slot_calls", d(tr.calls("cluster.apply_slot"))},
        {"cluster.window_s", tr.selfS("cluster.window")},
        {"cluster.step_self_s", tr.selfS("cluster.step")},
        {"cluster.rack_build_s", tr.selfS("cluster.rack_build")},
        {"core.soa_tick_s", tr.selfS("core.soa_tick")},
        {"core.soa_ticks", d(tr.calls("core.soa_tick"))},
        {"core.soa_request_s", tr.selfS("core.soa_request")},
        {"core.soa_requests", requests},
        {"core.soa_grant_ratio", ratio(d(c.grants), requests)},
        {"core.soa_stop_s", tr.selfS("core.soa_stop")},
        {"core.agent_setup_s", tr.selfS("core.agent_setup")},
        {"core.goa_pull_s", tr.selfS("core.goa_pull")},
        {"core.goa_split_s", tr.selfS("core.goa_split")},
        {"core.goa_recomputes", d(tr.calls("core.goa_split"))},
        {"core.hier_aggregate_s", tr.selfS("core.hier_aggregate")},
        {"core.hier_recompute_s", tr.selfS("core.hier_recompute")},
        {"core.hier_recomputes", d(tr.calls("core.hier_recompute"))},
        {"core.wire_encode_s", tr.selfS("core.wire_encode")},
        {"core.ingress_offer_s", tr.selfS("core.ingress_offer")},
        {"core.ingress_offered", d(c.ingress.offered)},
        {"core.ingress_accept_ratio",
         ratio(d(c.ingress.accepted), d(c.ingress.offered))},
        {"core.ingress_drain_s", tr.selfS("core.ingress_drain")},
        {"core.ingress_dispatched", d(c.ingress.drained)},
        {"sim.storm_generate_s", tr.selfS("sim.storm_generate")},
        {"sim.storm_frames", d(c.stormFrames)},
        {"power.rack_manager_tick_s", tr.selfS("power.rack_manager_tick")},
        {"power.rack_manager_ticks", d(tr.calls("power.rack_manager_tick"))},
        {"power.cap_events", d(c.capEvents)},
        {"power.warnings", d(c.warnings)},
        {"power.accounting_s", tr.selfS("power.accounting")},
        {"telemetry.limit_s", tr.selfS("telemetry.limit")},
        {"cluster.service_run_s", tr.selfS("cluster.service_run")},
        {"cluster.service_scale_outs", d(scale_outs)},
        {"core.wi_overclock_starts", d(starts)},
        {"core.wi_denials", d(denials)},
        {"power.service_cap_events", d(caps)},
    };
    for (const char *layer :
         {"sim", "workload", "power", "core", "cluster", "telemetry"}) {
        m.emplace_back(std::string(layer) + ".share",
                       ratio(tr.layerSelfS(layer), wall));
    }
    m.emplace_back("trace.wall_s", wall);
    m.emplace_back("trace.reference_wall_s", refWallS);
    m.emplace_back("trace_overhead", ratio(wall, refWallS) - 1.0);
    m.emplace_back("trace.coverage", ratio(tr.allSelfS(), wall));
    return m;
}

std::string
spansPath(const std::string &out)
{
    const std::string ext = ".json";
    if (out.size() > ext.size() &&
        out.compare(out.size() - ext.size(), ext.size(), ext) == 0)
        return out.substr(0, out.size() - ext.size()) + ".spans.jsonl";
    return out + ".spans.jsonl";
}

int
runBenchmark(const Args &args)
{
    const std::uint64_t seed =
        args.seedSet ? args.seed : pinnedSeed(args.workload);
    const int threads =
        args.threads > 0 ? args.threads : std::min(4, availableCpus());
    const Scale scale = args.smoke ? Scale::Smoke
        : args.mode == Mode::Traced ? Scale::Replica
                                    : Scale::Full;
    const int plan_threads = args.mode == Mode::Traced ? 1 : threads;
    Plan plan = makePlan(args.workload, seed, scale, plan_threads);
    if (args.mode == Mode::Setup)
        plan = setupPlan(plan);

    std::vector<std::string> errors;
    Metrics metrics;
    Outcome outcome;
    if (args.mode == Mode::Traced) {
        outcome = runPlan(plan);
        Tracer tracer;
        const ReplicaRun run = replay(plan, tracer);
        tracer.finish();
        const auto ref_start = Clock::now();
        const Outcome again = runPlan(plan);
        const double ref_wall = secondsSince(ref_start);
        const std::size_t runs =
            outcome.trace.size() + outcome.service.size();
        const std::size_t bad = firstMismatch(outcome, run.outcome);
        if (bad != runs) {
            errors.push_back("replica run " + std::to_string(bad) +
                             " differs from the program");
        }
        if (firstMismatch(outcome, again) != runs)
            errors.push_back("reference runs differ from each other");
        metrics = layerMetrics(tracer, run, ref_wall);
        const std::string path = spansPath(args.out);
        std::FILE *spans = std::fopen(path.c_str(), "w");
        if (spans == nullptr) {
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
            return 1;
        }
        tracer.writeJsonl(spans);
        std::fclose(spans);
    } else {
        const auto start = Clock::now();
        outcome = runPlan(plan);
        const double wall = secondsSince(start);
        const Usage use = processUsage();
        double gen_s = 0.0, replay_s = 0.0, hier_s = 0.0;
        for (const auto &r : outcome.trace) {
            gen_s += r.genSeconds;
            replay_s += r.simSeconds;
            hier_s += r.hierSeconds;
        }
        if (args.mode == Mode::Setup) {
            metrics = {
                {"setup_s", wall},
                {"kb_per_server", use.peakRssMb * 1024.0 / plan.servers()},
            };
        } else {
            metrics = {
                {"server_hours_per_s", plan.serverHours() / wall},
                {"cpu_s", use.cpuS},
                {"peak_rss_mb", use.peakRssMb},
                {"wall_s", wall},
                {"server_hours", plan.serverHours()},
                {"pool_efficiency", use.cpuS / (wall * threads)},
                {"minor_faults", use.minorFaults},
                {"gen_s", gen_s},
                {"replay_s", replay_s},
                {"hier_s", hier_s},
            };
        }
    }
    for (auto &e : checkInvariants(outcome))
        errors.push_back(std::move(e));

    const char *mode_name = args.mode == Mode::Setup ? "setup"
        : args.mode == Mode::Traced                 ? "traced"
                                                    : "run";
    std::string errors_json = "[";
    for (std::size_t i = 0; i < errors.size(); ++i)
        errors_json += (i ? ", " : "") + jsonString(errors[i]);
    errors_json += "]";

    std::FILE *out = std::fopen(args.out.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", args.out.c_str());
        return 1;
    }
    std::fprintf(
        out,
        "{\"workload\": %s, \"mode\": \"%s\", \"smoke\": %s, "
        "\"seed\": %llu, \"pinned_seed\": %llu,\n"
        " \"provenance\": %s,\n \"config\": %s,\n \"golden\": %s,\n"
        " \"digest\": \"%s\", \"errors\": %s, \"table1_high\": %s,\n"
        " \"metrics\": %s}\n",
        jsonString(args.workload).c_str(), mode_name,
        args.smoke ? "true" : "false",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(pinnedSeed(args.workload)),
        provenanceJson(plan.threads).c_str(), configJson(plan).c_str(),
        goldenJson(outcome).c_str(), digest(outcome).c_str(),
        errors_json.c_str(), tableOneJson(plan, outcome).c_str(),
        metricsJson(metrics).c_str());
    std::fclose(out);
    for (const auto &e : errors)
        std::fprintf(stderr, "soc_benchmark: %s\n", e.c_str());
    return errors.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args))
        return usage();
    try {
        return runBenchmark(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "soc_benchmark: %s\n", e.what());
        return 1;
    }
}
