#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <stdexcept>

#include "sim/time.hh"

namespace socbench
{

using namespace soc;
using cluster::BudgetPath;
using cluster::Environment;
using cluster::PowerTier;
using cluster::ServiceSimConfig;
using cluster::TraceSimConfig;

namespace
{

const core::PolicyKind kPolicies[5] = {
    core::PolicyKind::Central, core::PolicyKind::NaiveOClock,
    core::PolicyKind::NoFeedback, core::PolicyKind::NoWarning,
    core::PolicyKind::SmartOClock};

const PowerTier kTiers[3] = {PowerTier::High, PowerTier::Medium,
                             PowerTier::Low};

const Environment kEnvironments[4] = {
    Environment::Baseline, Environment::ScaleOut, Environment::ScaleUp,
    Environment::SmartOClock};

/** The paper-scale path of bench_trace_sim at a size a shared
 *  machine holds: resident fleet, lockstep hierarchy boundaries. */
TraceSimConfig
zoneConfig(std::uint64_t seed)
{
    TraceSimConfig cfg;
    cfg.budgetPath = BudgetPath::HierarchyZone;
    cfg.serversPerRack = 8;
    cfg.controlStep = 300 * sim::kSecond;
    cfg.requestChunk = sim::kHour;
    cfg.streamWindow = sim::kDay;
    cfg.templateWindow = sim::kWeek;
    cfg.racksPerRow = 8;
    cfg.seed = seed;
    return cfg;
}

Plan
zoneFleet(std::uint64_t seed, Scale scale)
{
    TraceSimConfig cfg = zoneConfig(seed);
    cfg.racks = scale == Scale::Full ? 64
        : scale == Scale::Replica   ? 32
                                    : 8;
    cfg.warmup = scale == Scale::Smoke ? 6 * sim::kHour : sim::kDay;
    cfg.duration = cfg.warmup;
    cfg.recomputePeriod = 3 * sim::kHour;
    Plan plan;
    plan.trace.push_back(cfg);
    return plan;
}

Plan
longhaul(std::uint64_t seed, Scale scale)
{
    TraceSimConfig cfg = zoneConfig(seed);
    cfg.racks = scale == Scale::Full ? 8
        : scale == Scale::Replica   ? 4
                                    : 2;
    cfg.warmup = sim::kWeek;
    cfg.duration = scale == Scale::Smoke ? sim::kWeek : 5 * sim::kWeek;
    cfg.recomputePeriod = sim::kWeek;
    Plan plan;
    plan.trace.push_back(cfg);
    return plan;
}

Plan
tableOneSweep(std::uint64_t seed, Scale scale)
{
    // Tier-major, then policy: the first five runs are the High tier.
    const int tiers = scale == Scale::Replica ? 1 : 3;
    Plan plan;
    for (int t = 0; t < tiers; ++t) {
        for (const auto policy : kPolicies) {
            TraceSimConfig cfg;
            cfg.policy = policy;
            cfg.racks = 1;
            cfg.serversPerRack = scale == Scale::Smoke ? 8 : 16;
            cfg.warmup = scale == Scale::Smoke ? sim::kDay : sim::kWeek;
            cfg.duration = cfg.warmup;
            cfg.limitFactor = TraceSimConfig::tierLimitFactor(kTiers[t]);
            cfg.templateWindow = sim::kWeek;
            cfg.seed = seed;
            plan.trace.push_back(cfg);
        }
    }
    return plan;
}

Plan
stormIngress(std::uint64_t seed, Scale scale)
{
    TraceSimConfig cfg;
    cfg.racks = scale == Scale::Full ? 24
        : scale == Scale::Replica   ? 16
                                    : 4;
    cfg.serversPerRack = 8;
    cfg.warmup = scale == Scale::Smoke ? sim::kHour : 6 * sim::kHour;
    cfg.duration = cfg.warmup;
    cfg.templateWindow = sim::kWeek;
    cfg.ingress.enabled = true;
    cfg.ingress.maxHintAge = sim::kHour;
    cfg.ingress.flapHoldoff = 10 * sim::kMinute;
    cfg.storm = sim::HintStormConfig::standardStorm();
    cfg.seed = seed;
    Plan plan;
    plan.trace.push_back(cfg);
    return plan;
}

Plan
clusterFig12(std::uint64_t seed, Scale scale)
{
    // Full: the four environments.  The replica replays SmartOClock
    // alone (a serial run is slow); smoke keeps two environments so
    // the batch pool has work to split.
    std::vector<Environment> envs(std::begin(kEnvironments),
                                  std::end(kEnvironments));
    if (scale == Scale::Replica)
        envs = {Environment::SmartOClock};
    else if (scale == Scale::Smoke)
        envs = {Environment::Baseline, Environment::SmartOClock};
    Plan plan;
    for (const auto env : envs) {
        ServiceSimConfig cfg;
        cfg.environment = env;
        cfg.duration =
            scale == Scale::Smoke ? 2 * sim::kMinute : 5 * sim::kMinute;
        cfg.warmup =
            scale == Scale::Smoke ? 30 * sim::kSecond : 2 * sim::kMinute;
        cfg.templateWindow = sim::kWeek;
        cfg.seed = seed;
        plan.service.push_back(cfg);
    }
    return plan;
}

double
ticksToS(sim::Tick t)
{
    return static_cast<double>(t) / static_cast<double>(sim::kSecond);
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
str(const std::string &s)
{
    return "\"" + s + "\"";
}

const char *
budgetPathName(BudgetPath path)
{
    switch (path) {
      case BudgetPath::PerRack: return "PerRack";
      case BudgetPath::HierarchyEquivalence: return "HierarchyEquivalence";
      case BudgetPath::HierarchyZone: break;
    }
    return "HierarchyZone";
}

using Fields = std::vector<std::pair<std::string, std::string>>;

Fields
traceFields(const TraceSimConfig &c)
{
    return {
        {"policy", str(core::policyName(c.policy))},
        {"limit_factor", num(c.limitFactor)},
        {"racks", num(c.racks)},
        {"servers_per_rack", num(c.serversPerRack)},
        {"warmup_s", num(ticksToS(c.warmup))},
        {"duration_s", num(ticksToS(c.duration))},
        {"control_step_s", num(ticksToS(c.controlStep))},
        {"recompute_period_s", num(ticksToS(c.recomputePeriod))},
        {"request_chunk_s", num(ticksToS(c.requestChunk))},
        {"template_window_s", num(ticksToS(c.templateWindow))},
        {"stream_window_s", num(ticksToS(c.streamWindow))},
        {"budget_path", str(budgetPathName(c.budgetPath))},
        {"racks_per_row", num(c.racksPerRow)},
        {"oc_util_threshold", num(c.ocUtilThreshold)},
        {"faults", c.faults.enabled ? "true" : "false"},
        {"ingress", c.ingress.enabled ? "true" : "false"},
        {"ingress_queue_capacity",
         num(static_cast<double>(c.ingress.queueCapacity))},
        {"ingress_max_hint_age_s", num(ticksToS(c.ingress.maxHintAge))},
        {"ingress_flap_holdoff_s", num(ticksToS(c.ingress.flapHoldoff))},
        {"storm", c.storm.enabled ? "true" : "false"},
        {"storm_frames_per_step", num(c.storm.intensity())},
        {"seed", num(static_cast<double>(c.seed))},
    };
}

Fields
serviceFields(const ServiceSimConfig &c)
{
    return {
        {"environment", str(cluster::environmentName(c.environment))},
        {"soa_policy", str(core::policyName(c.soaPolicy))},
        {"social_net_servers", num(c.socialNetServers)},
        {"ml_servers", num(c.mlServers)},
        {"spare_servers", num(c.spareServers)},
        {"warmup_s", num(ticksToS(c.warmup))},
        {"duration_s", num(ticksToS(c.duration))},
        {"control_period_s", num(ticksToS(c.controlPeriod))},
        {"poll_period_s", num(ticksToS(c.pollPeriod))},
        {"goa_period_s", num(ticksToS(c.goaPeriod))},
        {"template_window_s", num(ticksToS(c.templateWindow))},
        {"rack_limit_factor", num(c.rackLimitFactor)},
        {"faults", c.faults.enabled ? "true" : "false"},
        {"ingress", c.ingress.enabled ? "true" : "false"},
        {"seed", num(static_cast<double>(c.seed))},
    };
}

void
fnv(std::uint64_t &h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
}

std::size_t
runs(const Outcome &o)
{
    return o.trace.size() + o.service.size();
}

} // namespace

bool
isWorkload(const std::string &name)
{
    return name == "zone_fleet" || name == "longhaul_6w" ||
        name == "table1_sweep" || name == "storm_ingress" ||
        name == "cluster_fig12";
}

std::uint64_t
pinnedSeed(const std::string &workload)
{
    if (workload == "table1_sweep")
        return 11;
    if (workload == "cluster_fig12")
        return 7;
    return 101;
}

double
Plan::serverHours() const
{
    const double hour = static_cast<double>(sim::kHour);
    double total = 0.0;
    for (const auto &c : trace) {
        total += static_cast<double>(c.racks) * c.serversPerRack *
            static_cast<double>(c.warmup + c.duration) / hour;
    }
    for (const auto &c : service) {
        total += static_cast<double>(c.socialNetServers + c.mlServers +
                                     c.spareServers) *
            static_cast<double>(c.duration) / hour;
    }
    return total;
}

double
Plan::servers() const
{
    double total = 0.0;
    for (const auto &c : trace)
        total += static_cast<double>(c.racks) * c.serversPerRack;
    for (const auto &c : service)
        total += c.socialNetServers + c.mlServers + c.spareServers;
    return total;
}

Plan
makePlan(const std::string &workload, std::uint64_t seed, Scale scale,
         int threads)
{
    Plan plan;
    if (workload == "zone_fleet")
        plan = zoneFleet(seed, scale);
    else if (workload == "longhaul_6w")
        plan = longhaul(seed, scale);
    else if (workload == "table1_sweep")
        plan = tableOneSweep(seed, scale);
    else if (workload == "storm_ingress")
        plan = stormIngress(seed, scale);
    else if (workload == "cluster_fig12")
        plan = clusterFig12(seed, scale);
    else
        throw std::invalid_argument("unknown workload " + workload);
    plan.workload = workload;
    plan.threads = threads;
    for (auto &cfg : plan.trace)
        cfg.threads = threads;
    for (auto &cfg : plan.service)
        cfg.threads = threads;
    return plan;
}

Plan
setupPlan(Plan plan)
{
    for (auto &cfg : plan.trace) {
        cfg.warmup = 0;
        cfg.duration = cfg.controlStep;
    }
    for (auto &cfg : plan.service) {
        cfg.warmup = 0;
        cfg.duration = cfg.controlPeriod;
    }
    return plan;
}

Outcome
runPlan(const Plan &plan)
{
    Outcome out;
    if (plan.trace.size() == 1)
        out.trace.push_back(cluster::runTraceSim(plan.trace.front()));
    else if (!plan.trace.empty())
        out.trace = cluster::runTraceSimBatch(plan.trace, plan.threads);
    if (!plan.service.empty())
        out.service =
            cluster::runServiceSimBatch(plan.service, plan.threads);
    return out;
}

std::vector<Stat>
runStats(const Outcome &outcome, std::size_t i)
{
    auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    if (i < outcome.trace.size()) {
        const auto &r = outcome.trace[i];
        return {
            {"caps", u(r.capEvents)},
            {"capped_ticks", u(r.cappedTicks)},
            {"warnings", u(r.warnings)},
            {"requests", u(r.requests)},
            {"want_steps", u(r.wantSteps)},
            {"success_steps", u(r.successSteps)},
            {"success_rate", r.successRate},
            {"capping_penalty", r.cappingPenalty},
            {"norm_performance", r.normPerformance},
            {"mean_rack_util", r.meanRackUtil},
            {"energy_j", r.energyJoules.count()},
            {"ingress_offered", u(r.ingress.offered)},
            {"ingress_accepted", u(r.ingress.accepted)},
            {"ingress_parse_rejects", u(r.ingress.parseRejects)},
            {"ingress_duplicates", u(r.ingress.duplicates)},
            {"ingress_overflow_evictions", u(r.ingress.overflowEvictions)},
            {"ingress_sink_drops", u(r.ingress.sinkDrops)},
            {"ingress_drained", u(r.ingress.drained)},
            {"flap_denied", u(r.flapDenied)},
            {"hier_recomputes", u(r.hierarchyRecomputes)},
            {"hier_rack_aggregations",
             u(r.hierarchyStats.rackAggregations)},
            {"hier_row_aggregations", u(r.hierarchyStats.rowAggregations)},
            {"hier_splits", u(r.hierarchyStats.splits)},
        };
    }
    const auto &r = outcome.service.at(i - outcome.trace.size());
    std::vector<Stat> stats;
    const char *classes[3] = {"low", "med", "high"};
    for (int c = 0; c < 3; ++c) {
        const auto &k = r.byClass[static_cast<std::size_t>(c)];
        const std::string suffix = std::string("_") + classes[c];
        stats.push_back({"p99_ms" + suffix, k.p99Ms});
        stats.push_back({"mean_ms" + suffix, k.meanMs});
        stats.push_back({"completed" + suffix, u(k.completed)});
        stats.push_back({"violations" + suffix, u(k.violations)});
        stats.push_back({"mean_instances" + suffix, k.meanInstances});
        stats.push_back({"energy_per_server_j" + suffix,
                         k.energyPerServerJ});
        stats.push_back({"missed_slo_frac" + suffix, k.missedSloTimeFrac});
    }
    stats.push_back({"energy_j", r.totalEnergyJ.count()});
    stats.push_back({"social_energy_j", r.socialEnergyJ.count()});
    stats.push_back({"ml_throughput_norm", r.mlThroughputNorm});
    stats.push_back({"caps", u(r.capEvents)});
    stats.push_back({"mean_instances_all", r.meanInstancesAll});
    stats.push_back({"scale_outs", u(r.scaleOuts)});
    stats.push_back({"proactive_scale_outs", u(r.proactiveScaleOuts)});
    stats.push_back({"overclock_starts", u(r.overclockStarts)});
    stats.push_back({"denials", u(r.denials)});
    stats.push_back({"missed_slo_frac", r.missedSloTimeFrac});
    return stats;
}

std::string
digest(const Outcome &outcome)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < runs(outcome); ++i) {
        for (const auto &stat : runStats(outcome, i)) {
            fnv(h, stat.name.data(), stat.name.size());
            std::uint64_t bits = 0;
            std::memcpy(&bits, &stat.value, sizeof(bits));
            fnv(h, &bits, sizeof(bits));
        }
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::size_t
firstMismatch(const Outcome &a, const Outcome &b)
{
    const std::size_t n = std::min(runs(a), runs(b));
    for (std::size_t i = 0; i < n; ++i) {
        const auto sa = runStats(a, i);
        const auto sb = runStats(b, i);
        for (std::size_t k = 0; k < sa.size(); ++k) {
            // Bitwise: the replay is deterministic, so even a NaN
            // must repeat exactly.
            if (std::memcmp(&sa[k].value, &sb[k].value,
                            sizeof(double)) != 0)
                return i;
        }
    }
    return runs(a) == runs(b) ? runs(a) : n;
}

std::vector<std::string>
checkInvariants(const Outcome &outcome)
{
    std::vector<std::string> errors;
    auto need = [&](bool ok, std::size_t run, const std::string &what) {
        if (!ok)
            errors.push_back("run " + std::to_string(run) + ": " + what);
    };
    auto in01 = [](double v) { return v >= 0.0 && v <= 1.0; };
    for (std::size_t i = 0; i < runs(outcome); ++i) {
        for (const auto &stat : runStats(outcome, i))
            need(std::isfinite(stat.value), i, stat.name + " not finite");
    }
    for (std::size_t i = 0; i < outcome.trace.size(); ++i) {
        const auto &r = outcome.trace[i];
        need(in01(r.successRate), i, "success_rate outside [0,1]");
        need(in01(r.cappingPenalty), i, "capping_penalty outside [0,1]");
        need(r.normPerformance > 0.0, i, "norm_performance <= 0");
        need(r.meanRackUtil > 0.0, i, "mean_rack_util <= 0");
        need(r.energyJoules.count() > 0.0, i, "energy <= 0");
        need(r.successSteps <= r.wantSteps, i,
             "more success steps than want steps");
        need(r.ingress.accepted <= r.ingress.offered, i,
             "ingress accepted more than offered");
    }
    for (std::size_t j = 0; j < outcome.service.size(); ++j) {
        const auto &r = outcome.service[j];
        const std::size_t i = outcome.trace.size() + j;
        need(r.totalEnergyJ.count() > 0.0, i, "energy <= 0");
        need(in01(r.missedSloTimeFrac), i, "missed_slo_frac outside [0,1]");
        need(r.mlThroughputNorm >= 0.0, i, "ml_throughput_norm < 0");
        for (const auto &k : r.byClass) {
            need(k.p99Ms >= 0.0, i, "negative p99");
            need(in01(k.missedSloTimeFrac), i,
                 "class missed_slo_frac outside [0,1]");
            need(k.violations <= k.completed, i,
                 "more violations than completions");
        }
    }
    return errors;
}

std::string
goldenJson(const Outcome &outcome)
{
    std::string out = "{";
    if (!outcome.trace.empty()) {
        std::uint64_t caps = 0, warnings = 0, requests = 0, want = 0,
                      success = 0;
        power::Joules energy{0.0};
        for (const auto &r : outcome.trace) {
            caps += r.capEvents;
            warnings += r.warnings;
            requests += r.requests;
            want += r.wantSteps;
            success += r.successSteps;
            energy += r.energyJoules;
        }
        const double rate = want > 0
            ? static_cast<double>(success) / static_cast<double>(want)
            : 1.0;
        out += "\"caps\": " + num(static_cast<double>(caps)) +
            ", \"warnings\": " + num(static_cast<double>(warnings)) +
            ", \"requests\": " + num(static_cast<double>(requests)) +
            ", \"want_steps\": " + num(static_cast<double>(want)) +
            ", \"success_steps\": " + num(static_cast<double>(success)) +
            ", \"success_rate\": " + num(rate) +
            ", \"energy_j\": " + num(energy.count());
    } else {
        std::uint64_t caps = 0, scale_outs = 0, starts = 0, denials = 0;
        power::Joules energy{0.0};
        std::string p99 = "[";
        for (std::size_t i = 0; i < outcome.service.size(); ++i) {
            const auto &r = outcome.service[i];
            caps += r.capEvents;
            scale_outs += r.scaleOuts;
            starts += r.overclockStarts;
            denials += r.denials;
            energy += r.totalEnergyJ;
            p99 += (i ? ", [" : "[") + num(r.byClass[0].p99Ms) + ", " +
                num(r.byClass[1].p99Ms) + ", " + num(r.byClass[2].p99Ms) +
                "]";
        }
        p99 += "]";
        out += "\"caps\": " + num(static_cast<double>(caps)) +
            ", \"scale_outs\": " + num(static_cast<double>(scale_outs)) +
            ", \"overclock_starts\": " + num(static_cast<double>(starts)) +
            ", \"denials\": " + num(static_cast<double>(denials)) +
            ", \"energy_j\": " + num(energy.count()) +
            ", \"p99_ms\": " + p99;
    }
    out += ", \"digest\": " + str(digest(outcome)) + "}";
    return out;
}

std::string
configJson(const Plan &plan)
{
    std::vector<Fields> per_run;
    for (const auto &c : plan.trace)
        per_run.push_back(traceFields(c));
    for (const auto &c : plan.service)
        per_run.push_back(serviceFields(c));
    std::string out = "{\"runs\": " + num(static_cast<double>(per_run.size()));
    if (per_run.empty())
        return out + "}";
    for (std::size_t f = 0; f < per_run.front().size(); ++f) {
        bool same = true;
        for (const auto &fields : per_run)
            same = same && fields[f].second == per_run.front()[f].second;
        out += ", " + str(per_run.front()[f].first) + ": ";
        if (same) {
            out += per_run.front()[f].second;
            continue;
        }
        out += "[";
        for (std::size_t i = 0; i < per_run.size(); ++i)
            out += (i ? ", " : "") + per_run[i][f].second;
        out += "]";
    }
    return out + "}";
}

std::string
tableOneJson(const Plan &plan, const Outcome &outcome)
{
    if (plan.workload != "table1_sweep" || outcome.trace.size() < 5)
        return "null";
    // The first five configurations are the High tier.
    const double central_caps = std::max<double>(
        1.0, static_cast<double>(outcome.trace[0].capEvents));
    std::string out = "[";
    for (std::size_t p = 0; p < 5; ++p) {
        const auto &r = outcome.trace[p];
        out += (p ? ", " : "") + std::string("{\"policy\": ") +
            str(core::policyName(plan.trace[p].policy)) +
            ", \"norm_caps\": " +
            num(static_cast<double>(r.capEvents) / central_caps) +
            ", \"success\": " + num(r.successRate) +
            ", \"norm_perf\": " + num(r.normPerformance) + "}";
    }
    return out + "]";
}

} // namespace socbench
