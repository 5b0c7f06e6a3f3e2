#include "cluster/service_sim.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/goa.hh"
#include "core/soa.hh"
#include "core/wi.hh"
#include "power/rack.hh"
#include "power/rack_manager.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/thread_pool.hh"
#include "workload/archetype.hh"
#include "workload/mltrain.hh"
#include "workload/queueing_service.hh"

namespace soc
{
namespace cluster
{

std::string
environmentName(Environment environment)
{
    switch (environment) {
      case Environment::Baseline: return "Baseline";
      case Environment::ScaleOut: return "ScaleOut";
      case Environment::ScaleUp: return "ScaleUp";
      case Environment::SmartOClock: return "SmartOClock";
    }
    return "unknown";
}

void
ServiceSimConfig::validate() const
{
    auto fail = [](const std::string &what) {
        throw std::invalid_argument("ServiceSimConfig: " + what);
    };
    if (socialNetServers < 1) {
        fail("socialNetServers must be >= 1 (got " +
             std::to_string(socialNetServers) + ")");
    }
    if (mlServers < 0)
        fail("mlServers must be non-negative");
    if (spareServers < 0)
        fail("spareServers must be non-negative");
    if (warmup < 0)
        fail("warmup must be non-negative");
    if (duration <= warmup) {
        fail("duration must exceed warmup (nothing to evaluate)");
    }
    if (controlPeriod <= 0)
        fail("controlPeriod must be > 0");
    if (pollPeriod <= 0)
        fail("pollPeriod must be > 0");
    if (goaPeriod <= 0)
        fail("goaPeriod must be > 0");
    if (templateWindow <= 0 || templateWindow % sim::kSlot != 0) {
        fail("templateWindow must be a positive multiple of the "
             "telemetry slot");
    }
    if (!(rackLimitFactor > 0.0)) {
        fail("rackLimitFactor must be > 0 (got " +
             std::to_string(rackLimitFactor) + ")");
    }
    if (maxInstances < 1)
        fail("maxInstances must be >= 1");
    faults.validate();
    ingress.validate();
    storm.validate();
    if (storm.enabled && !ingress.enabled) {
        fail("storm requires the ingress (there is no hint channel "
             "to attack otherwise)");
    }
}

namespace
{

/** One server with its agent and bookkeeping. */
struct Node {
    power::Server *server = nullptr;
    core::ServerOverclockingAgent *soa = nullptr;
    int rackIdx = 0;
    enum class Kind { SocialHome, MlTrain, Spare } kind;
    power::Joules energyJ{0.0};
};

/** One VM instance binding across the three layers. */
struct VmBinding {
    int nodeIdx = -1;
    power::GroupId groupId = -1;
    workload::QueueingService::InstanceId instanceId = -1;
};

/** One latency-critical deployment. */
struct Deployment {
    int index = 0;
    int loadClass = 0; // 0 low, 1 med, 2 high
    /** Unloaded P99 already beyond the SLO (UrlShort): no amount of
     *  capacity meets the SLO, so the missed-SLO-time metric skips
     *  this deployment in every environment. */
    bool unfixable = false;
    int homeNode = 0;
    double baseRate = 0.0;
    std::unique_ptr<workload::QueueingService> service;
    std::unique_ptr<core::GlobalWiAgent> wi;
    std::vector<VmBinding> vms;

    // Evaluation accumulators.
    sim::Percentiles evalLatency;
    std::uint64_t evalViolations = 0;
    std::uint64_t evalCompleted = 0;
    std::uint64_t evalWindows = 0;
    std::uint64_t evalMissedWindows = 0;
    double instanceIntegral = 0.0; // instance-count x seconds
};

core::WiPolicyConfig
wiConfigFor(const ServiceSimConfig &config, double slo_ms,
            double baseline_p99_ms)
{
    core::WiPolicyConfig wi;
    wi.sloMs = slo_ms;
    wi.baselineP99Ms = baseline_p99_ms;
    switch (config.environment) {
      case Environment::Baseline:
        wi.enableOverclock = false;
        wi.enableScaleOut = false;
        break;
      case Environment::ScaleOut:
        wi.enableOverclock = false;
        wi.enableScaleOut = true;
        break;
      case Environment::ScaleUp:
        wi.enableOverclock = true;
        wi.enableScaleOut = false;
        break;
      case Environment::SmartOClock:
        wi.enableOverclock = true;
        wi.enableScaleOut = true;
        break;
    }
    // Workload intelligence (§III-Q1, §IV-A): SmartOClock infers
    // thresholds from profiling.  A service whose unloaded P99
    // already exceeds its SLO (UrlShort) cannot be brought under it
    // by running faster — its tail is distribution-driven — so
    // spending the limited overclocking budget on it is pure waste;
    // workload-agnostic vertical scaling keeps trying anyway.
    // Scale-out stays available: it still absorbs queueing delay.
    if (config.environment == Environment::SmartOClock &&
        baseline_p99_ms >= slo_ms) {
        wi.enableOverclock = false;
    }
    wi.maxInstances = config.maxInstances;
    wi.proactiveScaleOut = config.proactiveScaleOut;
    wi.scaleCooldown = 45 * sim::kSecond;
    wi.overclockGrace = 30 * sim::kSecond;
    wi.metricsChunk = 10 * sim::kMinute;
    return wi;
}

/** Offered-load multiplier: valley - peak - valley. */
double
loadPhase(sim::Tick t, sim::Tick duration)
{
    const double frac = static_cast<double>(t) /
        static_cast<double>(duration);
    if (frac < 0.25 || frac >= 0.80)
        return 0.50;
    return 1.0;
}

} // namespace

ServiceSimResult
runServiceSim(const ServiceSimConfig &config)
{
    config.validate();
    sim::Simulator simulator;
    sim::Rng rng(config.seed);
    const power::PowerModel model(config.hardware);

    // --- Racks -------------------------------------------------------
    const int rack1_servers =
        config.socialNetServers + config.mlServers;
    const power::Watts limit1 = rack1_servers *
        config.hardware.tdpWatts * config.rackLimitFactor;
    const power::Watts limit2 = std::max(1, config.spareServers) *
        config.hardware.tdpWatts * config.rackLimitFactor;

    power::Rack rack1(0, limit1);
    power::Rack rack2(1, limit2);
    power::RackManager manager1(rack1);
    power::RackManager manager2(rack2);

    core::GoaConfig goa_cfg;
    std::array<sim::FaultPlan, 2> plans;
    if (config.faults.enabled) {
        // Leases sized to tolerate one missed recompute before the
        // sOAs start decaying toward the safe floor.
        goa_cfg.leaseTtl = 2 * config.goaPeriod;
        plans[0] = sim::FaultPlan::generate(
            config.faults, config.seed, 0, rack1_servers,
            config.duration);
        plans[1] = sim::FaultPlan::generate(
            config.faults, config.seed, 1,
            std::max(1, config.spareServers), config.duration);
    }
    core::GlobalOverclockingAgent goa1(rack1, model, goa_cfg);
    core::GlobalOverclockingAgent goa2(rack2, model, goa_cfg);

    core::SoaConfig soa_cfg =
        core::SoaConfig::forPolicy(config.soaPolicy);
    soa_cfg.controlPeriod = config.controlPeriod;
    soa_cfg.overclockFraction =
        config.overclockFraction * config.overclockBudgetScale;
    // Short runs need a short epoch so the budget is meaningfully
    // finite: one epoch spans the whole experiment.
    soa_cfg.budgetEpoch = std::max<sim::Tick>(config.duration,
                                              10 * sim::kMinute);
    soa_cfg.templateWindow = config.templateWindow;

    std::vector<Node> nodes;
    std::vector<std::unique_ptr<core::ServerOverclockingAgent>> soas;

    const bool faulty_sensor = config.faults.enabled &&
        (config.faults.sensorNoiseStd > 0.0 ||
         config.faults.sensorBias != 0.0);

    auto add_node = [&](power::Rack &rack,
                        power::RackManager &manager,
                        core::GlobalOverclockingAgent &goa,
                        int rack_idx, Node::Kind kind) {
        power::Server &server = rack.addServer(&model);
        soas.push_back(
            std::make_unique<core::ServerOverclockingAgent>(
                server, soa_cfg, &rack));
        if (faulty_sensor) {
            const sim::FaultPlan *plan = &plans[rack_idx];
            const int sidx =
                static_cast<int>(rack.serverCount()) - 1;
            soas.back()->setPowerSensor(
                [plan, sidx](power::Watts watts, sim::Tick now) {
                    return watts * plan->sensorFactor(sidx, now);
                });
        }
        manager.addListener(soas.back().get());
        goa.addAgent(soas.back().get());
        Node node;
        node.server = &server;
        node.soa = soas.back().get();
        node.rackIdx = rack_idx;
        node.kind = kind;
        nodes.push_back(node);
    };

    for (int i = 0; i < config.socialNetServers; ++i)
        add_node(rack1, manager1, goa1, 0, Node::Kind::SocialHome);
    for (int i = 0; i < config.mlServers; ++i)
        add_node(rack1, manager1, goa1, 0, Node::Kind::MlTrain);
    for (int i = 0; i < config.spareServers; ++i)
        add_node(rack2, manager2, goa2, 1, Node::Kind::Spare);

    goa1.assignEvenSplit();
    if (config.spareServers > 0)
        goa2.assignEvenSplit();

    // --- MLTrain workloads -------------------------------------------
    struct MlNode {
        int nodeIdx;
        power::GroupId groupId;
        workload::MlTrainJob job;
        workload::Archetype archetype = workload::mlTraining();
        sim::Rng noise;
    };
    std::vector<MlNode> ml_nodes;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        if (nodes[n].kind != Node::Kind::MlTrain)
            continue;
        MlNode ml;
        ml.nodeIdx = static_cast<int>(n);
        ml.groupId = nodes[n].server->addGroup(
            config.mlCoresPerServer, 0.85, power::kTurboMHz,
            /*priority=*/2);
        ml.noise = rng.split();
        ml_nodes.push_back(std::move(ml));
    }

    // --- Latency-critical deployments --------------------------------
    const auto catalog = workload::socialNetCatalog();
    std::vector<std::unique_ptr<Deployment>> deployments;
    // groupId -> deployment, per node (for exhaustion routing).
    // Lookup only — indexed by the groupId carried in each signal,
    // never iterated.  soclint:allow(DET-003)
    std::vector<std::unordered_map<int, Deployment *>> routing(
        nodes.size());

    auto place_vm = [&](Deployment &dep) -> int {
        // Prefer spare servers, then any server with room; ties by
        // most free cores.
        int best = -1;
        int best_free = -1;
        const int workers = dep.service->params().workersPerVm;
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            const int free = nodes[n].server->freeCores();
            if (free < workers)
                continue;
            const bool spare = nodes[n].kind == Node::Kind::Spare;
            const int score = free + (spare ? 1000 : 0);
            if (score > best_free) {
                best_free = score;
                best = static_cast<int>(n);
            }
        }
        return best;
    };

    auto bind_vm = [&](Deployment &dep, int node_idx) {
        Node &node = nodes[node_idx];
        const int workers = dep.service->params().workersPerVm;
        VmBinding binding;
        binding.nodeIdx = node_idx;
        binding.groupId = node.server->addGroup(
            workers, 0.0, power::kTurboMHz, /*priority=*/1);
        binding.instanceId = dep.service->addInstance();
        dep.vms.push_back(binding);
        routing[node_idx][binding.groupId] = &dep;
        dep.wi->addVm(std::make_unique<core::LocalWiAgent>(
            static_cast<int>(dep.vms.size()) - 1, node.soa,
            binding.groupId, workers));
    };

    for (int i = 0; i < config.socialNetServers; ++i) {
        auto dep = std::make_unique<Deployment>();
        dep->index = i;
        dep->loadClass = (i * 3) / config.socialNetServers;
        dep->homeNode = i;
        const auto &params = catalog[i % catalog.size()];
        dep->service = std::make_unique<workload::QueueingService>(
            simulator, params, config.seed * 977 + i);
        const double frac = dep->loadClass == 0
            ? config.lowFrac
            : (dep->loadClass == 1 ? config.medFrac
                                   : config.highFrac);
        dep->baseRate = frac *
            dep->service->instanceCapacity(power::kTurboMHz);
        dep->unfixable = workload::unloadedP99Ms(params) >=
            dep->service->sloMs();
        dep->wi = std::make_unique<core::GlobalWiAgent>(
            params.name,
            wiConfigFor(config, dep->service->sloMs(),
                        workload::unloadedP99Ms(params)));
        deployments.push_back(std::move(dep));
    }

    // Scale actuators.
    for (auto &dep_ptr : deployments) {
        Deployment &dep = *dep_ptr;
        bind_vm(dep, dep.homeNode);
        dep.wi->setScaleOutHandler([&](int n) {
            for (int k = 0; k < n; ++k) {
                const int node_idx = place_vm(dep);
                if (node_idx < 0)
                    return;
                bind_vm(dep, node_idx);
            }
        });
        dep.wi->setScaleInHandler([&](int n) {
            for (int k = 0; k < n && dep.vms.size() > 1; ++k) {
                VmBinding binding = dep.vms.back();
                dep.vms.pop_back();
                auto vm = dep.wi->removeLastVm(simulator.now());
                dep.service->retireInstance();
                routing[binding.nodeIdx].erase(binding.groupId);
                nodes[binding.nodeIdx].soa->stopOverclock(
                    binding.groupId, simulator.now());
                nodes[binding.nodeIdx].server->removeGroup(
                    binding.groupId);
            }
        });
    }

    // Exhaustion signal routing.
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        auto *soa = nodes[n].soa;
        auto &table = routing[n];
        soa->setExhaustionCallback(
            [&table, &simulator](const core::ExhaustionSignal &sig) {
            auto it = table.find(sig.groupId);
            if (it != table.end())
                it->second->wi->onExhaustion(simulator.now(), sig);
        });
    }

    // --- Periodic control tasks --------------------------------------
    ServiceSimResult result;
    const double dt_s =
        static_cast<double>(config.controlPeriod) / sim::kSecond;
    std::uint64_t eval_windows = 0;
    std::uint64_t eval_windows_missed = 0;

    // Fault bookkeeping: merged crash schedule over both racks
    // (node index order) and the in-flight budget pushes per gOA.
    std::vector<std::pair<sim::Tick, int>> crash_schedule;
    for (const auto &event : plans[0].crashes()) {
        if (event.server < rack1_servers)
            crash_schedule.emplace_back(event.at, event.server);
    }
    for (const auto &event : plans[1].crashes()) {
        if (event.server < config.spareServers) {
            crash_schedule.emplace_back(
                event.at, rack1_servers + event.server);
        }
    }
    std::sort(crash_schedule.begin(), crash_schedule.end());
    std::size_t next_crash = 0;
    std::array<std::vector<core::PendingAssignment>, 2> in_flight;
    std::array<std::size_t, 2> next_delivery{};

    simulator.every(config.controlPeriod, [&](sim::Tick now) {
        const bool in_eval = now >= config.warmup;

        // Scheduled sOA crash-restarts due by now.
        while (next_crash < crash_schedule.size() &&
               crash_schedule[next_crash].first <= now) {
            const int node_idx = crash_schedule[next_crash].second;
            nodes[node_idx].soa->crashRestart(now);
            ++result.faults.soaCrashes;
            ++next_crash;
        }

        // Deliver budget pushes whose flight time is up.
        for (int r = 0; r < 2; ++r) {
            auto &queue = in_flight[r];
            auto &cursor = next_delivery[r];
            auto &goa = r == 0 ? goa1 : goa2;
            while (cursor < queue.size() &&
                   queue[cursor].deliverAt <= now) {
                goa.deliver(queue[cursor], now);
                ++cursor;
            }
        }

        // Offered load follows the phase profile.
        const double phase =
            loadPhase(now, config.duration) * config.peakMultiplier;
        for (auto &dep : deployments) {
            const double rate = dep->baseRate * phase;
            if (std::abs(rate - dep->service->arrivalRate()) >
                1e-9 * std::max(1.0, rate)) {
                dep->service->setArrivalRate(rate);
            }
        }

        // Sync layer state: utilization up, frequency down.
        for (auto &dep : deployments) {
            for (const auto &binding : dep->vms) {
                Node &node = nodes[binding.nodeIdx];
                const double busy =
                    dep->service->instantUtilization(
                        binding.instanceId);
                node.server->setUtil(
                    binding.groupId,
                    config.vmOverheadUtil +
                        (1.0 - config.vmOverheadUtil) * busy);
                const auto *group =
                    node.server->group(binding.groupId);
                if (group != nullptr) {
                    dep->service->setFrequency(
                        binding.instanceId, group->effectiveMHz());
                }
            }
            if (in_eval) {
                dep->instanceIntegral +=
                    static_cast<double>(
                        dep->service->instanceCount()) * dt_s;
            }
        }

        // MLTrain progress + utilization noise.
        for (auto &ml : ml_nodes) {
            Node &node = nodes[ml.nodeIdx];
            auto *group = node.server->group(ml.groupId);
            if (group == nullptr)
                continue;
            const double util = std::clamp(
                ml.archetype.utilAt(now) +
                    ml.noise.normal(0.0, 0.01),
                0.0, 1.0);
            node.server->setUtil(ml.groupId, util);
            if (in_eval)
                ml.job.advance(config.controlPeriod,
                               group->effectiveMHz());
        }

        // Agents and safety.
        for (auto &soa : soas)
            soa->tick(now);
        manager1.tick(now);
        if (config.spareServers > 0)
            manager2.tick(now);

        // Energy accounting.
        if (in_eval) {
            for (auto &node : nodes)
                node.energyJ += power::energyOver(
                    node.server->powerWatts(), dt_s);
        }
    });

    // Hint channel (DESIGN.md §12): when enabled, the metric pump
    // serializes each deployment's poll window as a wire frame
    // through one cluster-level bounded ingress instead of calling
    // the WI agents directly; the deployment index doubles as the
    // wire "server" field.  Storm frames pour into the same queue.
    std::unique_ptr<core::HintIngress> hint_ingress;
    sim::HintStormGenerator hint_storm;
    std::vector<std::uint64_t> hint_seq(deployments.size(), 0);
    if (config.ingress.enabled) {
        hint_ingress =
            std::make_unique<core::HintIngress>(config.ingress);
        if (config.storm.enabled) {
            hint_storm = sim::HintStormGenerator(
                config.storm, config.seed, /*rack=*/0,
                static_cast<int>(deployments.size()),
                config.maxInstances);
        }
    }

    simulator.every(config.pollPeriod, [&](sim::Tick now) {
        const bool in_eval = now >= config.warmup;
        for (auto &dep : deployments) {
            auto window = dep->service->drainWindow();
            core::VmMetrics metrics;
            metrics.p99LatencyMs = window.latencyMs.p99();
            metrics.meanLatencyMs = window.latencyMs.mean();
            metrics.utilization = window.utilization;
            metrics.completed = window.completed;
            if (hint_ingress) {
                const auto d =
                    static_cast<std::size_t>(dep->index);
                if (hint_storm.enabled()) {
                    hint_storm.generate(
                        dep->index, now,
                        [&](const core::wire::Frame &frame) {
                            hint_ingress->offer(frame, now);
                        });
                }
                core::wire::HintHeader hdr;
                hdr.server = dep->index;
                hdr.vmId = dep->index;
                hdr.seq = hint_seq[d]++;
                hdr.issuedAt = now;
                hint_ingress->offer(
                    core::wire::encodeMetricsWindow(hdr, metrics),
                    now);
            } else {
                for (std::size_t v = 0; v < dep->wi->vmCount(); ++v)
                    dep->wi->vm(v).lastMetrics = metrics;
                dep->wi->onMetrics(now, metrics);
                dep->wi->tick(now);
            }

            if (in_eval && window.completed > 0) {
                dep->evalLatency.merge(window.latencyMs);
                dep->evalViolations +=
                    window.violations + window.dropped;
                dep->evalCompleted += window.completed;
                if (!dep->unfixable) {
                    ++dep->evalWindows;
                    ++eval_windows;
                    if (metrics.p99LatencyMs >
                        dep->service->sloMs()) {
                        ++dep->evalMissedWindows;
                        ++eval_windows_missed;
                    }
                }
            }
        }

        if (hint_ingress) {
            // One batched drain dispatches the surviving hints into
            // the WI agents; the sink bounds-checks the addressed
            // deployment (forged frames may name anything).
            hint_ingress->drain(
                now, [&](const core::wire::ParsedHint &hint) {
                    if (hint.server < 0 ||
                        hint.server >=
                            static_cast<int>(deployments.size()))
                        return false;
                    Deployment &dep =
                        *deployments[static_cast<std::size_t>(
                            hint.server)];
                    switch (hint.kind) {
                    case core::wire::HintKind::MetricsWindow:
                        for (std::size_t v = 0;
                             v < dep.wi->vmCount(); ++v)
                            dep.wi->vm(v).lastMetrics = hint.metrics;
                        dep.wi->onMetrics(now, hint.metrics);
                        return true;
                    case core::wire::HintKind::ScheduleDeclaration:
                        // A declared high-traffic window replaces
                        // the deployment's schedule.
                        dep.wi->mutableConfig().windows = {
                            hint.window};
                        return true;
                    case core::wire::HintKind::ExhaustionSignal:
                        dep.wi->onExhaustion(now, hint.exhaustion);
                        return true;
                    default:
                        // Start/stop hints have no consumer here:
                        // the WI agents drive the sOAs directly.
                        return false;
                    }
                });
            for (auto &dep : deployments)
                dep->wi->tick(now);
        }
    });

    // Each gOA splits a constant row of its rack's usable watts;
    // one row buffer serves every recompute.
    std::vector<double> usable_row;
    auto run_goa = [&](core::GlobalOverclockingAgent &goa,
                       const sim::FaultPlan &plan, int rack_idx,
                       sim::Tick now) {
        usable_row.assign(
            static_cast<std::size_t>(sim::kSlotsPerWeek),
            goa.usableWatts().count());
        if (!plan.enabled()) {
            goa.pullProfiles();
            goa.recomputeWithBudget(now, usable_row);
            return;
        }
        if (plan.goaDown(now)) {
            // Outage: no budget update this period; the sOAs keep
            // enforcing their last assignments until the lease
            // expires, then decay toward the safe floor (§III-Q5).
            ++result.faults.recomputesSkipped;
            return;
        }
        core::RecomputeFaults rf;
        rf.telemetryAttempts = config.faults.telemetryAttempts;
        rf.telemetryLost = [&plan, now](int server, int attempt) {
            return plan.telemetryLost(server, now, attempt);
        };
        rf.budgetLost = [&plan, now](int server) {
            return plan.budgetLost(server, now);
        };
        rf.budgetDelay = [&plan, now](int server) {
            return plan.budgetDelay(server, now);
        };
        rf.budgetCorrupt = [&plan, now](int server) {
            return plan.budgetCorrupted(server, now)
                ? plan.corruptionKind(server, now)
                : -1;
        };
        goa.pullProfiles(rf);
        auto batch = goa.recomputeWithBudget(now, usable_row, rf);
        auto &queue = in_flight[rack_idx];
        for (auto &pending : batch)
            queue.push_back(std::move(pending));
        std::stable_sort(
            queue.begin() + static_cast<std::ptrdiff_t>(
                                next_delivery[rack_idx]),
            queue.end(),
            [](const core::PendingAssignment &a,
               const core::PendingAssignment &b) {
                return a.deliverAt < b.deliverAt;
            });
    };

    simulator.every(config.goaPeriod, [&](sim::Tick now) {
        run_goa(goa1, plans[0], 0, now);
        if (config.spareServers > 0)
            run_goa(goa2, plans[1], 1, now);
    });

    simulator.runUntil(config.duration);

    // --- Aggregate results -------------------------------------------
    const double eval_s = static_cast<double>(
        config.duration - config.warmup) / sim::kSecond;

    std::array<sim::Percentiles, 3> class_latency;
    std::array<double, 3> class_instances{};
    std::array<power::Joules, 3> class_energy{};
    std::array<int, 3> class_count{};
    std::array<std::uint64_t, 3> class_windows{};
    std::array<std::uint64_t, 3> class_missed{};

    double instances_all = 0.0;
    for (auto &dep : deployments) {
        const int c = dep->loadClass;
        class_latency[c].merge(dep->evalLatency);
        result.byClass[c].completed += dep->evalCompleted;
        result.byClass[c].violations += dep->evalViolations;
        const double mean_instances =
            dep->instanceIntegral / eval_s;
        class_instances[c] += mean_instances;
        instances_all += mean_instances;
        class_energy[c] += nodes[dep->homeNode].energyJ;
        class_windows[c] += dep->evalWindows;
        class_missed[c] += dep->evalMissedWindows;
        ++class_count[c];

        result.scaleOuts += dep->wi->stats().scaleOuts;
        result.proactiveScaleOuts +=
            dep->wi->stats().proactiveScaleOuts;
        result.overclockStarts += dep->wi->stats().overclockStarts;
        result.denials += dep->wi->stats().denials;
        result.rejectedMetrics += dep->wi->stats().rejectedMetrics;
    }
    if (hint_ingress)
        result.ingress.merge(hint_ingress->stats());

    for (int c = 0; c < 3; ++c) {
        auto &out = result.byClass[c];
        out.p99Ms = class_latency[c].p99();
        out.meanMs = class_latency[c].mean();
        const int n = std::max(1, class_count[c]);
        out.meanInstances = class_instances[c] / n;
        out.energyPerServerJ =
            (class_energy[c] / static_cast<double>(n)).count();
        out.missedSloTimeFrac = class_windows[c] > 0
            ? static_cast<double>(class_missed[c]) /
                static_cast<double>(class_windows[c])
            : 0.0;
    }

    for (auto &node : nodes) {
        result.totalEnergyJ += node.energyJ;
        if (node.kind == Node::Kind::SocialHome ||
            node.kind == Node::Kind::Spare) {
            result.socialEnergyJ += node.energyJ;
        }
    }

    double ml_throughput = 0.0;
    for (auto &ml : ml_nodes)
        ml_throughput += ml.job.meanThroughput();
    result.mlThroughputNorm = ml_nodes.empty()
        ? 0.0
        : ml_throughput /
            (static_cast<double>(ml_nodes.size()) *
             workload::MlTrainJob().throughput(power::kTurboMHz));

    result.capEvents = manager1.stats().capEvents +
        manager2.stats().capEvents;
    if (config.faults.enabled) {
        for (const auto *goa : {&goa1, &goa2}) {
            const core::GoaStats &gs = goa->stats();
            result.faults.telemetryRetries += gs.telemetryRetries;
            result.faults.telemetryDrops += gs.staleProfiles;
            result.faults.budgetDrops += gs.assignmentsDropped;
            result.faults.budgetDelays += gs.assignmentsDelayed;
            result.faults.budgetRejects += gs.assignmentsRejected;
        }
        for (const auto &plan : plans) {
            for (const auto &outage : plan.outages())
                if (outage.start < config.duration)
                    ++result.faults.goaOutages;
        }
    }
    result.meanInstancesAll = instances_all /
        std::max<std::size_t>(1, deployments.size());
    result.missedSloTimeFrac = eval_windows > 0
        ? static_cast<double>(eval_windows_missed) /
            static_cast<double>(eval_windows)
        : 0.0;
    return result;
}

std::vector<ServiceSimResult>
runServiceSimBatch(const std::vector<ServiceSimConfig> &configs,
                   int threads)
{
    int requested = threads;
    if (requested <= 0) {
        for (const auto &cfg : configs)
            requested = std::max(requested, cfg.threads);
    }
    std::vector<ServiceSimResult> results(configs.size());
    sim::ThreadPool pool(std::min<int>(
        sim::ThreadPool::resolveThreads(requested),
        static_cast<int>(std::max<std::size_t>(1, configs.size()))));
    // Grain 1 chunked dispatch: runs are heavyweight, so the atomic
    // cursor balances them individually; per-config result slots
    // keep the output independent of scheduling.
    pool.parallelForChunked(
        configs.size(), 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                results[i] = runServiceSim(configs[i]);
        });
    return results;
}

} // namespace cluster
} // namespace soc
