#include "replica.hh"

#include <algorithm>
#include <bit>
#include <memory>

#include "cluster/fleet_state.hh"
#include "core/budget_hierarchy.hh"
#include "core/goa.hh"
#include "core/hint_ingress.hh"
#include "core/soa.hh"
#include "core/wire.hh"
#include "power/rack.hh"
#include "power/rack_manager.hh"
#include "sim/hint_storm.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "telemetry/time_series.hh"
#include "workload/trace_generator.hh"

namespace socbench
{

using namespace soc;
using cluster::TraceSimConfig;
using cluster::TraceSimResult;

namespace
{

/** What one rack accumulates; merged in rack order like the
 *  program's per-rack outcomes. */
struct RackTally {
    std::uint64_t capEvents = 0;
    std::uint64_t cappedTicks = 0;
    std::uint64_t warnings = 0;
    std::uint64_t requests = 0;
    std::uint64_t wantSteps = 0;
    std::uint64_t successSteps = 0;
    power::Joules energyJoules{0.0};
    sim::OnlineStats penalty;
    sim::OnlineStats rackUtil;
    sim::OnlineStats perf;
    core::IngressStats ingress;
    std::uint64_t flapDenied = 0;
};

bool
isCandidate(const workload::VmMix &vm, double threshold)
{
    if (vm.archetype.kind == workload::ShapeKind::ConstantHigh ||
        vm.archetype.kind == workload::ShapeKind::LowIdle) {
        return false;
    }
    return vm.archetype.peakUtil >= threshold;
}

/** One rack of the replica: build, resumable step loop, boundary
 *  halves for the zone path, tail accounting. */
class ReplicaRack
{
  public:
    ReplicaRack(const TraceSimConfig &config,
                const power::PowerModel &model,
                const core::SoaConfig &soaCfg, int rackIndex,
                RackTally &out, Tracer &tracer, LayerCounts &counts)
        : config_(config),
          model_(model),
          soaCfg_(soaCfg),
          rackIndex_(rackIndex),
          out_(out),
          tracer_(tracer),
          counts_(counts),
          end_(config.warmup + config.duration),
          dtS_(static_cast<double>(config.controlStep) / sim::kSecond)
    {
    }

    void build();
    void advance(sim::Tick until);
    void collect(sim::Tick t, core::ProfileAggregator &agg);
    void finishZone(const core::BudgetHierarchy &hier,
                    std::vector<double> &usable);
    void finish();

    power::Watts limitWatts() const { return rack_->limitWatts(); }
    core::ServerProfile &aggregateSlot() { return aggregate_; }

  private:
    void stepProlog(sim::Tick t);
    void maybeRecompute(sim::Tick t);
    void stepMain(sim::Tick t);
    void generate(std::size_t n);
    void refillWindow();
    void request(core::ServerOverclockingAgent &soa,
                 const core::OverclockRequest &request, sim::Tick t);

    const TraceSimConfig &config_;
    const power::PowerModel &model_;
    const core::SoaConfig &soaCfg_;
    const int rackIndex_;
    RackTally &out_;
    Tracer &tracer_;
    LayerCounts &counts_;
    const sim::Tick end_;
    const double dtS_;

    std::vector<std::vector<workload::VmMix>> mixes_;
    std::vector<workload::ServerTraceStream> streams_;
    std::unique_ptr<power::Rack> rack_;
    std::unique_ptr<power::RackManager> manager_;
    std::unique_ptr<core::GlobalOverclockingAgent> goa_;
    std::vector<std::unique_ptr<core::ServerOverclockingAgent>> soas_;
    std::unique_ptr<cluster::FleetState> fleet_;
    std::vector<std::vector<bool>> candidate_;
    std::unique_ptr<core::HintIngress> ingress_;
    sim::HintStormGenerator storm_;
    std::vector<std::vector<std::uint64_t>> seq_;

    std::size_t slotsTotal_ = 0;
    std::size_t windowSlots_ = 0;
    sim::Tick t_ = 0;
    sim::Tick nextRecompute_ = 0;
    std::uint64_t capBase_ = 0;
    std::uint64_t cappedTickBase_ = 0;
    std::uint64_t warnBase_ = 0;
    std::uint64_t reqBase_ = 0;
    std::size_t lastSlot_ = static_cast<std::size_t>(-1);
    std::vector<std::uint64_t> activeMask_;
    core::ServerProfile aggregate_;
    std::vector<double> usableScratch_;
};

void
ReplicaRack::generate(std::size_t n)
{
    const std::size_t stride = fleet_->totalVms();
    std::uint16_t *util = fleet_->utilWindow();
    float *watts = fleet_->wattsWindow();
    for (std::size_t s = 0; s < streams_.size(); ++s) {
        const std::size_t off = fleet_->serverOffset(s);
        Span span(tracer_, "workload.gen");
        streams_[s].generateQuantized(n, util + off, watts + off, stride);
        counts_.samples += n * streams_[s].vms();
    }
}

void
ReplicaRack::build()
{
    Span build_span(tracer_, "cluster.rack_build", true);
    workload::TraceConfig trace_cfg;
    trace_cfg.end = end_;
    workload::TraceGenerator gen(
        sim::deriveSeed(config_.seed,
                        static_cast<std::uint64_t>(rackIndex_)),
        trace_cfg);
    {
        Span span(tracer_, "workload.mix");
        for (int s = 0; s < config_.serversPerRack; ++s) {
            mixes_.push_back(gen.randomVmMix(config_.hardware.cores));
            streams_.push_back(gen.serverTraceStream(mixes_.back(), model_));
            std::vector<bool> server_candidates;
            server_candidates.reserve(mixes_.back().size());
            for (const auto &vm : mixes_.back())
                server_candidates.push_back(
                    isCandidate(vm, config_.ocUtilThreshold));
            candidate_.push_back(std::move(server_candidates));
        }
    }

    slotsTotal_ =
        static_cast<std::size_t>((end_ + sim::kSlot - 1) / sim::kSlot);
    windowSlots_ = config_.streamWindow == 0
        ? slotsTotal_
        : static_cast<std::size_t>(config_.streamWindow / sim::kSlot);

    fleet_ = std::make_unique<cluster::FleetState>(config_.ocUtilThreshold);
    for (int s = 0; s < config_.serversPerRack; ++s) {
        fleet_->addServer(mixes_[static_cast<std::size_t>(s)].size(),
                          candidate_[static_cast<std::size_t>(s)]);
    }
    fleet_->setHorizon(slotsTotal_);

    // Limit pass: stream the horizon once and sum the rack's
    // baseline power per slot, servers ascending, exactly as the
    // program does before replay.
    const std::size_t stride = fleet_->totalVms();
    std::vector<double> rack_power_values(slotsTotal_, 0.0);
    while (fleet_->windowEnd() < slotsTotal_) {
        const std::size_t first = fleet_->windowEnd();
        const std::size_t n = fleet_->beginWindow(first, windowSlots_);
        generate(n);
        const float *watts = fleet_->wattsWindow();
        for (std::size_t i = 0; i < n; ++i) {
            const float *wrow = watts + i * stride;
            power::Watts rack_watts{0.0};
            for (std::size_t s = 0; s < streams_.size(); ++s) {
                power::Watts server_watts = model_.params().idleWatts;
                const std::size_t off = fleet_->serverOffset(s);
                const std::size_t vms = streams_[s].vms();
                for (std::size_t v = 0; v < vms; ++v)
                    server_watts +=
                        power::Watts{static_cast<double>(wrow[off + v])};
                if (s == 0)
                    rack_watts = server_watts;
                else
                    rack_watts += server_watts;
            }
            rack_power_values[first + i] = rack_watts.count();
        }
    }
    power::Watts limit{0.0};
    {
        Span span(tracer_, "telemetry.limit");
        const telemetry::TimeSeries rack_power(
            0, sim::kSlot, std::move(rack_power_values));
        limit = power::Watts{rack_power.quantile(0.99) *
                             config_.limitFactor};
    }
    for (auto &stream : streams_)
        stream.reset();
    fleet_->resetWindows();

    Span agents(tracer_, "core.agent_setup");
    rack_ = std::make_unique<power::Rack>(rackIndex_, limit);
    manager_ = std::make_unique<power::RackManager>(*rack_);
    core::GoaConfig goa_cfg;
    goa_cfg.recomputePeriod = config_.recomputePeriod;
    goa_ = std::make_unique<core::GlobalOverclockingAgent>(*rack_, model_,
                                                           goa_cfg);
    for (int s = 0; s < config_.serversPerRack; ++s) {
        power::Server &server = rack_->addServer(&model_);
        for (const auto &vm : mixes_[static_cast<std::size_t>(s)])
            server.addGroup(vm.cores, 0.0, power::kTurboMHz,
                            /*priority=*/1);
        soas_.push_back(std::make_unique<core::ServerOverclockingAgent>(
            server, soaCfg_, rack_.get()));
        manager_->addListener(soas_.back().get());
        goa_->addAgent(soas_.back().get());
    }
    goa_->assignEvenSplit();

    nextRecompute_ = config_.warmup;
    activeMask_.assign(soas_.size(), 0);

    if (config_.ingress.enabled) {
        ingress_ = std::make_unique<core::HintIngress>(config_.ingress);
        seq_.resize(mixes_.size());
        std::size_t max_vms = 1;
        for (std::size_t s = 0; s < mixes_.size(); ++s) {
            seq_[s].assign(mixes_[s].size(), 0);
            max_vms = std::max(max_vms, mixes_[s].size());
        }
        if (config_.storm.enabled) {
            storm_ = sim::HintStormGenerator(
                config_.storm, config_.seed,
                static_cast<std::uint64_t>(rackIndex_),
                config_.serversPerRack, static_cast<int>(max_vms));
        }
    }
}

void
ReplicaRack::refillWindow()
{
    Span span(tracer_, "cluster.window", true);
    const std::size_t first = fleet_->windowEnd();
    const std::size_t n = fleet_->beginWindow(first, windowSlots_);
    generate(n);
    fleet_->finalizeWindow();
}

void
ReplicaRack::stepProlog(sim::Tick t)
{
    if (t == config_.warmup) {
        capBase_ = manager_->stats().capEvents;
        cappedTickBase_ = manager_->stats().cappedTicks;
        warnBase_ = manager_->stats().warnings;
        for (auto &soa : soas_)
            reqBase_ += soa->stats().requests;
    }
}

void
ReplicaRack::maybeRecompute(sim::Tick t)
{
    if (t < nextRecompute_)
        return;
    Span span(tracer_, "core.recompute", true);
    {
        Span pull(tracer_, "core.goa_pull");
        goa_->pullProfiles();
    }
    Span split(tracer_, "core.goa_split");
    usableScratch_.assign(
        static_cast<std::size_t>(sim::kSlotsPerWeek),
        rack_->limitWatts().count() *
            (1.0 - goa_->config().budget.safetyFraction));
    goa_->recomputeWithBudget(t, usableScratch_);
    nextRecompute_ += config_.recomputePeriod;
}

void
ReplicaRack::request(core::ServerOverclockingAgent &soa,
                     const core::OverclockRequest &request, sim::Tick t)
{
    Span span(tracer_, "core.soa_request");
    if (soa.requestOverclock(request, t).granted)
        ++counts_.grants;
}

void
ReplicaRack::stepMain(sim::Tick t)
{
    Span step(tracer_, "cluster.step");
    const auto slot = static_cast<std::size_t>(t / sim::kSlot);
    if (slot != lastSlot_) {
        while (slot >= fleet_->windowEnd())
            refillWindow();
        Span span(tracer_, "cluster.apply_slot");
        fleet_->applySlot(*rack_, slot);
        lastSlot_ = slot;
    }

    const bool in_eval = t >= config_.warmup;
    auto account_want = [&](power::Server &server, power::GroupId g) {
        ++out_.wantSteps;
        const auto *group = server.group(g);
        const power::FreqMHz eff =
            group != nullptr ? group->effectiveMHz() : power::kTurboMHz;
        out_.perf.add(eff / power::kTurboMHz);
        if (group != nullptr && group->overclocked())
            ++out_.successSteps;
    };

    if (ingress_) {
        for (std::size_t s = 0; s < soas_.size(); ++s) {
            power::Server &server = rack_->server(s);
            auto &soa = *soas_[s];
            const auto &mix = mixes_[s];
            if (storm_.enabled()) {
                Span span(tracer_, "sim.storm_generate");
                counts_.stormFrames += storm_.generate(
                    static_cast<int>(s), t,
                    [&](const core::wire::Frame &frame) {
                        Span offer(tracer_, "core.ingress_offer");
                        ingress_->offer(frame, t);
                    });
            }
            const std::uint64_t want_mask = fleet_->wantMask(s);
            std::uint64_t pending = want_mask | activeMask_[s];
            while (pending != 0) {
                const int v = std::countr_zero(pending);
                pending &= pending - 1;
                const auto bit = std::uint64_t{1} << v;
                const auto g = static_cast<power::GroupId>(v);
                const bool want = (want_mask & bit) != 0;
                const bool active = soa.isOverclockActive(g);
                core::wire::HintHeader hdr;
                hdr.server = static_cast<int>(s);
                hdr.vmId = g;
                hdr.issuedAt = t;
                if (want && !active) {
                    hdr.seq = seq_[s][static_cast<std::size_t>(v)]++;
                    core::OverclockRequest req;
                    req.groupId = g;
                    req.cores = mix[static_cast<std::size_t>(v)].cores;
                    req.trigger = core::TriggerKind::Metrics;
                    req.duration = config_.requestChunk;
                    req.priority = 1;
                    tracer_.begin("core.wire_encode");
                    const auto frame =
                        core::wire::encodeOverclockRequest(hdr, req);
                    tracer_.end();
                    Span offer(tracer_, "core.ingress_offer");
                    ingress_->offer(frame, t);
                    activeMask_[s] |= bit;
                } else if (!want && active) {
                    hdr.seq = seq_[s][static_cast<std::size_t>(v)]++;
                    tracer_.begin("core.wire_encode");
                    const auto frame = core::wire::encodeStopRequest(hdr);
                    tracer_.end();
                    Span offer(tracer_, "core.ingress_offer");
                    ingress_->offer(frame, t);
                    activeMask_[s] &= ~bit;
                } else if (!active) {
                    activeMask_[s] &= ~bit;
                }
                if (in_eval && want)
                    account_want(server, g);
            }
        }

        {
            Span span(tracer_, "core.ingress_drain");
            ingress_->drain(t, [&](const core::wire::ParsedHint &hint) {
                if (hint.server < 0 ||
                    hint.server >= static_cast<int>(soas_.size()))
                    return false;
                const auto server = static_cast<std::size_t>(hint.server);
                const auto vms =
                    static_cast<std::int32_t>(mixes_[server].size());
                switch (hint.kind) {
                  case core::wire::HintKind::OverclockRequest:
                    if (hint.vmId < 0 || hint.vmId >= vms)
                        return false;
                    request(*soas_[server], hint.request, t);
                    return true;
                  case core::wire::HintKind::StopRequest: {
                    if (hint.vmId < 0 || hint.vmId >= vms)
                        return false;
                    Span stop(tracer_, "core.soa_stop");
                    soas_[server]->stopOverclock(hint.vmId, t);
                    return true;
                  }
                  default:
                    return false;
                }
            });
        }
        for (auto &soa : soas_) {
            Span span(tracer_, "core.soa_tick");
            soa->tick(t);
        }
    } else {
        for (std::size_t s = 0; s < soas_.size(); ++s) {
            power::Server &server = rack_->server(s);
            auto &soa = *soas_[s];
            const auto &mix = mixes_[s];
            const std::uint64_t want_mask = fleet_->wantMask(s);
            std::uint64_t pending = want_mask | activeMask_[s];
            while (pending != 0) {
                const int v = std::countr_zero(pending);
                pending &= pending - 1;
                const auto bit = std::uint64_t{1} << v;
                const auto g = static_cast<power::GroupId>(v);
                const bool want = (want_mask & bit) != 0;
                const bool active = soa.isOverclockActive(g);
                if (want && !active) {
                    core::OverclockRequest req;
                    req.groupId = g;
                    req.cores = mix[static_cast<std::size_t>(v)].cores;
                    req.trigger = core::TriggerKind::Metrics;
                    req.duration = config_.requestChunk;
                    req.priority = 1;
                    request(soa, req, t);
                    activeMask_[s] |= bit;
                } else if (!want && active) {
                    Span stop(tracer_, "core.soa_stop");
                    soa.stopOverclock(g, t);
                    activeMask_[s] &= ~bit;
                } else if (!active) {
                    activeMask_[s] &= ~bit;
                }
                if (in_eval && want)
                    account_want(server, g);
            }
            Span span(tracer_, "core.soa_tick");
            soa.tick(t);
        }
    }
    {
        Span span(tracer_, "power.rack_manager_tick");
        manager_->tick(t);
    }

    if (in_eval) {
        Span span(tracer_, "power.accounting");
        out_.rackUtil.add(rack_->utilization());
        out_.energyJoules += power::energyOver(rack_->powerWatts(), dtS_);
        if (manager_->capping()) {
            double penalty = 0.0;
            int affected = 0;
            for (const auto &server : rack_->servers()) {
                const int cores = server->cappedNonOverclockCores();
                penalty += server->cappingPenalty() * cores;
                affected += cores;
            }
            if (affected > 0)
                out_.penalty.add(penalty / affected);
        }
    }
}

void
ReplicaRack::advance(sim::Tick until)
{
    const bool zone =
        config_.budgetPath == cluster::BudgetPath::HierarchyZone;
    for (; t_ < until; t_ += config_.controlStep) {
        stepProlog(t_);
        if (!zone)
            maybeRecompute(t_);
        stepMain(t_);
    }
}

void
ReplicaRack::collect(sim::Tick t, core::ProfileAggregator &agg)
{
    stepProlog(t);
    const std::vector<core::ServerProfile> *profiles = nullptr;
    {
        Span span(tracer_, "core.goa_pull");
        profiles = &goa_->pullProfiles();
    }
    Span span(tracer_, "core.hier_aggregate");
    agg.aggregate(profiles->data(), profiles->size(), aggregate_);
}

void
ReplicaRack::finishZone(const core::BudgetHierarchy &hier,
                        std::vector<double> &usable)
{
    {
        Span recompute(tracer_, "core.recompute", true);
        {
            Span span(tracer_, "core.hier_budget_row");
            const core::ProfileTemplate &budget =
                hier.rackBudget(rackIndex_);
            usable.resize(static_cast<std::size_t>(sim::kSlotsPerWeek));
            for (std::size_t slot = 0; slot < usable.size(); ++slot) {
                usable[slot] =
                    budget.predict(static_cast<sim::Tick>(slot) * sim::kSlot);
            }
        }
        {
            Span span(tracer_, "core.goa_split");
            goa_->recomputeWithBudget(t_, usable);
        }
        Span span(tracer_, "core.goa_release");
        goa_->releaseProfiles();
    }
    stepMain(t_);
    t_ += config_.controlStep;
}

void
ReplicaRack::finish()
{
    const auto &stats = manager_->stats();
    out_.capEvents = stats.capEvents - capBase_;
    out_.cappedTicks = stats.cappedTicks - cappedTickBase_;
    out_.warnings = stats.warnings - warnBase_;
    std::uint64_t requests = 0;
    for (auto &soa : soas_)
        requests += soa->stats().requests;
    out_.requests = requests - reqBase_;
    if (ingress_) {
        out_.ingress.merge(ingress_->stats());
        for (auto &soa : soas_)
            out_.flapDenied += soa->stats().flapDenied;
    }
    counts_.capEvents += stats.capEvents;
    counts_.warnings += stats.warnings;
}

TraceSimResult
merge(const std::vector<RackTally> &tallies)
{
    TraceSimResult result;
    sim::OnlineStats penalty_stats;
    sim::OnlineStats rack_util_stats;
    sim::OnlineStats perf_stats;
    for (const auto &out : tallies) {
        result.capEvents += out.capEvents;
        result.cappedTicks += out.cappedTicks;
        result.warnings += out.warnings;
        result.requests += out.requests;
        result.wantSteps += out.wantSteps;
        result.successSteps += out.successSteps;
        result.energyJoules += out.energyJoules;
        penalty_stats.merge(out.penalty);
        rack_util_stats.merge(out.rackUtil);
        perf_stats.merge(out.perf);
        result.ingress.merge(out.ingress);
        result.flapDenied += out.flapDenied;
    }
    result.successRate = result.wantSteps > 0
        ? static_cast<double>(result.successSteps) /
            static_cast<double>(result.wantSteps)
        : 1.0;
    result.cappingPenalty = penalty_stats.mean();
    result.normPerformance =
        perf_stats.count() > 0 ? perf_stats.mean() : 1.0;
    result.meanRackUtil = rack_util_stats.mean();
    return result;
}

core::SoaConfig
soaConfigFor(const TraceSimConfig &config)
{
    core::SoaConfig soa_cfg = core::SoaConfig::forPolicy(config.policy);
    soa_cfg.controlPeriod = config.controlStep;
    soa_cfg.overclockFraction = 0.25;
    soa_cfg.templateWindow = config.templateWindow;
    if (config.ingress.enabled)
        soa_cfg.flapHoldoff = config.ingress.flapHoldoff;
    return soa_cfg;
}

/** Independent racks: each built, replayed and freed in turn. */
TraceSimResult
replayIndependent(const TraceSimConfig &config, Tracer &tracer,
                  LayerCounts &counts)
{
    const power::PowerModel model(config.hardware);
    const core::SoaConfig soa_cfg = soaConfigFor(config);
    std::vector<RackTally> tallies(static_cast<std::size_t>(config.racks));
    for (int r = 0; r < config.racks; ++r) {
        ReplicaRack rack(config, model, soa_cfg, r,
                         tallies[static_cast<std::size_t>(r)], tracer,
                         counts);
        rack.build();
        rack.advance(config.warmup + config.duration);
        rack.finish();
    }
    return merge(tallies);
}

/** The lockstep zone path: all racks resident, the hierarchy
 *  recomputed between the two halves of every boundary step. */
TraceSimResult
replayZone(const TraceSimConfig &config, Tracer &tracer,
           LayerCounts &counts)
{
    const power::PowerModel model(config.hardware);
    const core::SoaConfig soa_cfg = soaConfigFor(config);
    const auto n_racks = static_cast<std::size_t>(config.racks);
    std::vector<RackTally> tallies(n_racks);
    std::vector<std::unique_ptr<ReplicaRack>> racks(n_racks);
    for (std::size_t r = 0; r < n_racks; ++r) {
        racks[r] = std::make_unique<ReplicaRack>(
            config, model, soa_cfg, static_cast<int>(r), tallies[r],
            tracer, counts);
        racks[r]->build();
    }

    power::Watts zone_limit{0.0};
    for (const auto &rack : racks)
        zone_limit += rack->limitWatts();
    core::HierarchyConfig hier_cfg;
    hier_cfg.racksPerRow = config.racksPerRow;
    core::BudgetHierarchy hierarchy(model, hier_cfg);
    for (std::size_t r = 0; r < n_racks; ++r)
        hierarchy.addRackAggregate(core::ServerProfile{});

    const sim::Tick end = config.warmup + config.duration;
    const sim::Tick cs = config.controlStep;
    sim::Tick sched = config.warmup;
    sim::Tick prev_boundary = -cs;
    std::uint64_t hier_recomputes = 0;
    core::ProfileAggregator aggregator;
    std::vector<double> usable;
    for (;;) {
        const sim::Tick due_step = ((sched + cs - 1) / cs) * cs;
        const sim::Tick boundary = std::max(due_step, prev_boundary + cs);
        if (boundary >= end)
            break;
        for (auto &rack : racks) {
            rack->advance(boundary);
            rack->collect(boundary, aggregator);
        }
        {
            Span phase(tracer, "core.hierarchy_phase", true);
            {
                Span span(tracer, "core.hier_aggregate");
                for (std::size_t r = 0; r < n_racks; ++r)
                    hierarchy.exchangeRackAggregate(
                        static_cast<int>(r), racks[r]->aggregateSlot());
            }
            Span span(tracer, "core.hier_recompute");
            hierarchy.recompute(zone_limit);
            ++hier_recomputes;
        }
        for (auto &rack : racks)
            rack->finishZone(hierarchy, usable);
        prev_boundary = boundary;
        sched += config.recomputePeriod;
    }
    for (auto &rack : racks) {
        rack->advance(end);
        rack->finish();
        rack.reset();
    }

    TraceSimResult result = merge(tallies);
    result.hierarchyRecomputes = hier_recomputes;
    result.hierarchyStats = hierarchy.stats();
    return result;
}

} // namespace

ReplicaRun
replay(const Plan &plan, Tracer &tracer)
{
    ReplicaRun run;
    Span root(tracer, "cluster.replica", true);
    for (const auto &config : plan.trace) {
        config.validate();
        Span span(tracer, "cluster.run", true);
        run.outcome.trace.push_back(
            config.budgetPath == cluster::BudgetPath::HierarchyZone
                ? replayZone(config, tracer, run.counts)
                : replayIndependent(config, tracer, run.counts));
        run.counts.ingress.merge(run.outcome.trace.back().ingress);
    }
    for (const auto &config : plan.service) {
        Span span(tracer, "cluster.service_run", true);
        run.outcome.service.push_back(cluster::runServiceSim(config));
    }
    return run;
}

} // namespace socbench
