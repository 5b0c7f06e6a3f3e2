#include "cluster/trace_sim.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

#include "cluster/fleet_state.hh"
#include "core/budget_hierarchy.hh"
#include "core/goa.hh"
#include "core/soa.hh"
#include "power/rack.hh"
#include "power/rack_manager.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/thread_pool.hh"
#include "workload/trace_generator.hh"

namespace soc
{
namespace cluster
{

double
TraceSimConfig::tierLimitFactor(PowerTier tier)
{
    // Limit relative to the baseline P99 rack draw.  High-power
    // clusters run close to their limit; low-power clusters have
    // ample headroom (Fig. 5: many racks under 73% utilization).
    switch (tier) {
      case PowerTier::High: return 1.07;
      case PowerTier::Medium: return 1.17;
      case PowerTier::Low: break;
    }
    return 1.45;
}

void
TraceSimConfig::validate() const
{
    auto fail = [](const std::string &what) {
        throw std::invalid_argument("TraceSimConfig: " + what);
    };
    if (racks < 1)
        fail("racks must be >= 1 (got " + std::to_string(racks) +
             ")");
    if (serversPerRack < 1) {
        fail("serversPerRack must be >= 1 (got " +
             std::to_string(serversPerRack) + ")");
    }
    if (hardware.cores < 1) {
        fail("hardware.cores must be >= 1 (got " +
             std::to_string(hardware.cores) + ")");
    }
    if (!(limitFactor > 0.0)) {
        fail("limitFactor must be > 0 (got " +
             std::to_string(limitFactor) + ")");
    }
    if (warmup < 0)
        fail("warmup must be non-negative");
    if (duration < 0)
        fail("duration must be non-negative");
    if (warmup + duration <= 0)
        fail("warmup + duration must be > 0 (nothing to simulate)");
    if (controlStep <= 0)
        fail("controlStep must be > 0");
    if (recomputePeriod <= 0)
        fail("recomputePeriod must be > 0");
    if (templateWindow <= 0 || templateWindow % sim::kSlot != 0) {
        fail("templateWindow must be a positive multiple of the "
             "telemetry slot");
    }
    if (streamWindow < 0 ||
        (streamWindow > 0 && streamWindow % sim::kSlot != 0)) {
        fail("streamWindow must be 0 or a positive multiple of "
             "the telemetry slot");
    }
    if (racksPerRow < 1) {
        fail("racksPerRow must be >= 1 (got " +
             std::to_string(racksPerRow) + ")");
    }
    if (budgetPath == BudgetPath::HierarchyZone && faults.enabled) {
        fail("budgetPath = HierarchyZone does not support fault "
             "injection (the lockstep recompute has no outage-retry "
             "path); use budgetPath = PerRack with faults");
    }
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

/** How long after a discrete fault a cap event is still blamed on
 *  it (crash fallout: revoked grants, cold telemetry). */
constexpr sim::Tick kFaultAttribution = sim::kHour;

/**
 * Metrics one rack accumulates over its control loop.  Every rack
 * owns one instance, so the loops can run on different threads; the
 * instances are merged in rack order afterwards, which makes the
 * result independent of how racks were scheduled over threads.
 */
struct RackOutcome {
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
    sim::FaultStats faults;
    std::uint64_t capEventsFaultAttributed = 0;
    std::uint64_t staleLeaseTicks = 0;
    std::uint64_t recoveries = 0;
    sim::Tick recoverySum = 0;
    core::IngressStats ingress;
    std::uint64_t flapDenied = 0;
    /** Wall-clock accounting (not simulation state). */
    double genSeconds = 0.0;
    double simSeconds = 0.0;
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

// Wall-clock here measures *our own* speed (gen/sim seconds in the
// result), never simulation time: soclint:allow(DET-001)
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/**
 * One rack's build state plus its resumable control loop.
 *
 * The former buildRack/simulateRack pair, reshaped so the loop can
 * pause at recompute boundaries: the independent paths run build()
 * + advance(end) + finish() in one go (racks fully independent,
 * built and freed inside their chunk), while the HierarchyZone
 * orchestrator keeps every rack resident and alternates parallel
 * advance/boundary phases with the serial zone recompute (see
 * runLockstepZone).
 *
 * Traces are streamed: build() creates one ServerTraceStream per
 * server, derives the rack limit from a first streaming pass over
 * the full horizon (bit-identical to the materialized
 * rackPower-quantile path), then rewinds; replay regenerates the
 * samples window by window into the FleetState buffers, so a rack
 * holds O(VMs x streamWindow) samples instead of the whole horizon.
 */
class RackRuntime
{
  public:
    RackRuntime(const TraceSimConfig &config,
                const power::PowerModel &model,
                const core::SoaConfig &soaCfg, int rackIndex,
                RackOutcome &out)
        : config_(config),
          model_(model),
          soaCfg_(soaCfg),
          rackIndex_(rackIndex),
          out_(out),
          end_(config.warmup + config.duration),
          dtS_(static_cast<double>(config.controlStep) /
               sim::kSecond)
    {
    }

    /** Generate streams, size the limit, wire servers/agents. */
    void build();

    /** Run control steps while t < @p until. */
    void advance(sim::Tick until);

    /**
     * First half of a lockstep boundary step at time @p t (== the
     * rack's current step, asserted): step prolog, then pull this
     * rack's profiles and reduce them into the aggregate slot via
     * @p agg (shared per worker chunk — scratch only).
     */
    void boundaryCollect(sim::Tick t, core::ProfileAggregator &agg);

    /**
     * Second half of a lockstep boundary step: fetch this rack's
     * budget from @p hier (read-only — safe concurrently), push it
     * through the gOA, then run the remainder of the step.
     * @p usable is per-worker scratch for the per-slot budget row.
     */
    void boundaryFinishZone(const core::BudgetHierarchy &hier,
                            std::vector<double> &usable);

    /** Tail accounting into the outcome (end of the horizon). */
    void finish();

    power::Watts limitWatts() const { return rack_->limitWatts(); }

    /** Exchange slot for hier.exchangeRackAggregate. */
    core::ServerProfile &aggregateSlot() { return aggregate_; }

  private:
    void stepProlog(sim::Tick t);
    void maybeRecompute(sim::Tick t);
    void stepMain(sim::Tick t);
    /** Stream windows forward until @p slot is materialized. */
    void ensureSlot(std::size_t slot);
    void refillWindow();

    const TraceSimConfig &config_;
    const power::PowerModel &model_;
    const core::SoaConfig &soaCfg_;
    const int rackIndex_;
    RackOutcome &out_;
    const sim::Tick end_;
    const double dtS_;

    // Build state.
    std::vector<std::vector<workload::VmMix>> mixes_;
    std::vector<workload::ServerTraceStream> streams_;
    std::unique_ptr<power::Rack> rack_;
    std::unique_ptr<power::RackManager> manager_;
    std::unique_ptr<core::GlobalOverclockingAgent> goa_;
    std::vector<std::unique_ptr<core::ServerOverclockingAgent>>
        soas_;
    /** Windowed SoA replay state over the streams.  VM v of server
     *  s is core group v of that server (asserted at build); the
     *  fleet masks rely on that identity. */
    std::unique_ptr<FleetState> fleet_;
    /** Deterministic fault schedule (inert when faults disabled). */
    sim::FaultPlan plan_;
    /** Bounded hint queue (null when the ingress is disabled). */
    std::unique_ptr<core::HintIngress> ingress_;
    /** Deterministic adversarial frame source (inert when off). */
    sim::HintStormGenerator storm_;
    /** seq[s][v]: next wire sequence number for server s, VM v. */
    std::vector<std::vector<std::uint64_t>> seq_;

    std::size_t slotsTotal_ = 0;
    std::size_t windowSlots_ = 0;

    // Loop state (resumable across advance/boundary calls).
    sim::Tick t_ = 0;
    sim::Tick nextRecompute_ = 0;
    std::uint64_t capBase_ = 0;
    std::uint64_t cappedTickBase_ = 0;
    std::uint64_t warnBase_ = 0;
    std::uint64_t reqBase_ = 0;
    std::size_t nextCrash_ = 0;
    /** First recompute time missed to the current outage (-1 when
     *  the gOA is reachable). */
    sim::Tick outageFirstMissed_ = -1;
    /** Per-server crash time awaiting a fresh accepted budget. */
    std::vector<sim::Tick> crashSince_;
    /** Cap events up to here are blamed on a discrete fault. */
    sim::Tick faultAttributionUntil_ = -1;
    /** Last telemetry slot pushed into the servers. */
    std::size_t lastSlot_ = static_cast<std::size_t>(-1);
    /** Per-server superset of VMs holding an active grant. */
    std::vector<std::uint64_t> activeMask_;
    /** This rack's aggregated profile (HierarchyZone exchange
     *  slot). */
    core::ServerProfile aggregate_;
    /** Constant row of this rack's usable watts: the budget its
     *  PerRack recomputes split.  Held by the rack because a fresh
     *  row per recompute tripled the page faults of one-step runs. */
    std::vector<double> ownRow_;
    /** Refill seconds inside the current timed sim method, so they
     *  are booked as generation, not replay. */
    double pendingRefillS_ = 0.0;
};

void
RackRuntime::build()
{
    const auto t0 = Clock::now();

    workload::TraceConfig trace_cfg;
    trace_cfg.end = end_;
    // Per-rack stream: adding or reordering racks never perturbs
    // the draws of the others, and racks can generate in parallel.
    workload::TraceGenerator gen(
        sim::deriveSeed(config_.seed,
                        static_cast<std::uint64_t>(rackIndex_)),
        trace_cfg);

    // One mix + stream per server, interleaved exactly like the
    // materialized serverTrace path consumed the generator, so the
    // streamed samples are bit-identical to the former
    // generate-everything-up-front flow.
    fleet_ = std::make_unique<FleetState>(config_.ocUtilThreshold);
    std::vector<bool> candidate;
    for (int s = 0; s < config_.serversPerRack; ++s) {
        mixes_.push_back(gen.randomVmMix(config_.hardware.cores));
        streams_.push_back(
            gen.serverTraceStream(mixes_.back(), model_));
        candidate.clear();
        for (const auto &vm : mixes_.back())
            candidate.push_back(
                isCandidate(vm, config_.ocUtilThreshold));
        fleet_->addServer(mixes_.back().size(), candidate);
    }

    slotsTotal_ = static_cast<std::size_t>(
        (end_ + sim::kSlot - 1) / sim::kSlot);
    windowSlots_ = config_.streamWindow == 0
        ? slotsTotal_
        : static_cast<std::size_t>(config_.streamWindow /
                                   sim::kSlot);
    fleet_->setHorizon(slotsTotal_);

    // First pass: stream the whole horizon once to derive the rack
    // limit from the baseline power profile, accumulating the rack
    // power series in the same order TimeSeries::sum reduced the
    // materialized per-server traces (servers ascending per slot).
    // The summands are the compact columns' float turbo-watts
    // hints, so the P99 limit is window-size and thread-count
    // invariant (the per-sample quantization is), though it differs
    // from the materialized traces' rackPower in the last float bits.
    const std::size_t stride = fleet_->totalVms();
    std::vector<double> rack_power_values(slotsTotal_, 0.0);
    while (fleet_->windowEnd() < slotsTotal_) {
        const std::size_t first = fleet_->windowEnd();
        const std::size_t n = fleet_->beginWindow(first,
                                                  windowSlots_);
        std::uint16_t *util = fleet_->utilWindow();
        float *watts = fleet_->wattsWindow();
        for (std::size_t s = 0; s < streams_.size(); ++s) {
            const std::size_t off = fleet_->serverOffset(s);
            streams_[s].generateQuantized(n, util + off, watts + off,
                                          stride);
        }
        for (std::size_t i = 0; i < n; ++i) {
            const float *wrow = watts + i * stride;
            power::Watts rack_watts{0.0};
            for (std::size_t s = 0; s < streams_.size(); ++s) {
                power::Watts server_watts =
                    model_.params().idleWatts;
                const std::size_t off = fleet_->serverOffset(s);
                const std::size_t vms = streams_[s].vms();
                for (std::size_t v = 0; v < vms; ++v)
                    server_watts += power::Watts{
                        static_cast<double>(wrow[off + v])};
                if (s == 0)
                    rack_watts = server_watts;
                else
                    rack_watts += server_watts;
            }
            rack_power_values[first + i] = rack_watts.count();
        }
    }
    const telemetry::TimeSeries rack_power(
        0, sim::kSlot, std::move(rack_power_values));
    const power::Watts limit{rack_power.quantile(0.99) *
                             config_.limitFactor};

    // Rewind for replay: the same windows stream again on demand.
    for (auto &stream : streams_)
        stream.reset();
    fleet_->resetWindows();

    rack_ = std::make_unique<power::Rack>(rackIndex_, limit);
    manager_ = std::make_unique<power::RackManager>(*rack_);

    core::GoaConfig goa_cfg;
    goa_cfg.recomputePeriod = config_.recomputePeriod;
    if (config_.faults.enabled) {
        // Leases sized to tolerate one missed recompute before the
        // sOAs start decaying toward the safe floor.
        goa_cfg.leaseTtl = 2 * config_.recomputePeriod;
        plan_ = sim::FaultPlan::generate(
            config_.faults, config_.seed,
            static_cast<std::uint64_t>(rackIndex_),
            config_.serversPerRack, end_);
    }
    goa_ = std::make_unique<core::GlobalOverclockingAgent>(
        *rack_, model_, goa_cfg);

    const bool faulty_sensor = config_.faults.enabled &&
        (config_.faults.sensorNoiseStd > 0.0 ||
         config_.faults.sensorBias != 0.0);

    for (int s = 0; s < config_.serversPerRack; ++s) {
        power::Server &server = rack_->addServer(&model_);
        const auto &mix = mixes_[static_cast<std::size_t>(s)];
        for (std::size_t v = 0; v < mix.size(); ++v) {
            const power::GroupId g = server.addGroup(
                mix[v].cores, 0.0, power::kTurboMHz, /*priority=*/1);
            // The fleet bitmasks identify VM v with group id v.
            assert(g == static_cast<power::GroupId>(v));
            (void)g;
        }

        soas_.push_back(
            std::make_unique<core::ServerOverclockingAgent>(
                server, soaCfg_, rack_.get()));
        if (faulty_sensor) {
            // The runtime owns its plan for its whole lifetime, so
            // the plan's address is stable for the run.
            const sim::FaultPlan *plan = &plan_;
            soas_.back()->setPowerSensor(
                [plan, s](power::Watts watts, sim::Tick now) {
                    return watts * plan->sensorFactor(s, now);
                });
        }
        manager_->addListener(soas_.back().get());
        goa_->addAgent(soas_.back().get());
    }
    goa_->assignEvenSplit();

    nextRecompute_ = config_.warmup;
    crashSince_.assign(soas_.size(), -1);
    activeMask_.assign(soas_.size(), 0);

    if (config_.ingress.enabled) {
        ingress_ =
            std::make_unique<core::HintIngress>(config_.ingress);
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

    out_.genSeconds += secondsSince(t0);
}

void
RackRuntime::refillWindow()
{
    const auto t0 = Clock::now();
    const std::size_t first = fleet_->windowEnd();
    const std::size_t n = fleet_->beginWindow(first, windowSlots_);
    const std::size_t stride = fleet_->totalVms();
    std::uint16_t *util = fleet_->utilWindow();
    float *watts = fleet_->wattsWindow();
    for (std::size_t s = 0; s < streams_.size(); ++s) {
        const std::size_t off = fleet_->serverOffset(s);
        streams_[s].generateQuantized(n, util + off, watts + off,
                                      stride);
    }
    fleet_->finalizeWindow();
    const double spent = secondsSince(t0);
    out_.genSeconds += spent;
    pendingRefillS_ += spent;
}

void
RackRuntime::ensureSlot(std::size_t slot)
{
    while (slot >= fleet_->windowEnd())
        refillWindow();
}

void
RackRuntime::stepProlog(sim::Tick t)
{
    if (t == config_.warmup) {
        // Snapshot warm-up counters so metrics cover only the
        // evaluation window.
        capBase_ = manager_->stats().capEvents;
        cappedTickBase_ = manager_->stats().cappedTicks;
        warnBase_ = manager_->stats().warnings;
        for (auto &soa : soas_)
            reqBase_ += soa->stats().requests;
    }

    // Scheduled sOA crash-restarts due by now.
    const auto &crashes = plan_.crashes();
    while (nextCrash_ < crashes.size() &&
           crashes[nextCrash_].at <= t) {
        const auto &event = crashes[nextCrash_];
        if (event.server >= 0 &&
            event.server < static_cast<int>(soas_.size())) {
            soas_[static_cast<std::size_t>(event.server)]
                ->crashRestart(t);
            ++out_.faults.soaCrashes;
            if (crashSince_[static_cast<std::size_t>(
                    event.server)] < 0)
                crashSince_[static_cast<std::size_t>(event.server)] =
                    t;
            faultAttributionUntil_ = std::max(
                faultAttributionUntil_, t + kFaultAttribution);
        }
        ++nextCrash_;
    }
}

void
RackRuntime::maybeRecompute(sim::Tick t)
{
    if (t < nextRecompute_)
        return;
    if (plan_.goaDown(t)) {
        // gOA outage: the recompute is skipped and retried every
        // step; sOAs keep enforcing their last budgets, decaying
        // once the lease goes stale (§III-Q5).
        ++out_.faults.recomputesSkipped;
        if (outageFirstMissed_ < 0)
            outageFirstMissed_ = t;
        faultAttributionUntil_ = std::max(
            faultAttributionUntil_, t + kFaultAttribution);
        nextRecompute_ = t + config_.controlStep;
        return;
    }
    // The rack splits its own limit, through the two-phase
    // recompute the zone path feeds a hierarchy share.
    ownRow_.assign(static_cast<std::size_t>(sim::kSlotsPerWeek),
                   goa_->usableWatts().count());
    if (!plan_.enabled()) {
        goa_->pullProfiles();
        goa_->recomputeWithBudget(t, ownRow_);
    } else {
        // Telemetry faults during the pull; the gOA queues the
        // pushes (maybe lost, delayed or corrupted) for deliverDue.
        const auto rf = core::RecomputeFaults::at(plan_, t);
        goa_->pullProfiles(rf);
        goa_->recomputeWithBudget(t, ownRow_, rf);
    }
    if (outageFirstMissed_ >= 0) {
        out_.recoverySum += t - outageFirstMissed_;
        ++out_.recoveries;
        outageFirstMissed_ = -1;
    }
    nextRecompute_ += config_.recomputePeriod;
}

void
RackRuntime::stepMain(sim::Tick t)
{
    // soclint:hot-begin(PERF-001) — the replay inner loop: runs
    // once per control step per rack (millions of times at paper
    // scale); window refills are the only allocation-bearing calls
    // and amortize per streamWindow, inside ensureSlot.

    // Deliver queued budget pushes whose flight time is up.
    goa_->deliverDue(t);

    // A crashed sOA has recovered once it holds a budget accepted
    // after the crash.
    if (plan_.enabled()) {
        for (std::size_t s = 0; s < soas_.size(); ++s) {
            if (crashSince_[s] < 0)
                continue;
            if (soas_[s]->lastAssignmentAt() >= crashSince_[s]) {
                out_.recoverySum += t - crashSince_[s];
                ++out_.recoveries;
                crashSince_[s] = -1;
            }
        }
    }

    // Utilization is slot-constant (5-minute telemetry), so the SoA
    // gather — batch util/turbo-watts push plus want-mask rebuild —
    // runs only when the slot rolls over, not every control step.
    // The stream windows are generated to cover [0, warmup +
    // duration), so the slot is always coverable; a short stream
    // trips the FleetState window assert instead of silently
    // replaying the final sample (see TimeSeries::atTime policy).
    const auto slot = static_cast<std::size_t>(t / sim::kSlot);
    if (slot != lastSlot_) {
        ensureSlot(slot);
        fleet_->applySlot(*rack_, slot);
        lastSlot_ = slot;
    }

    const bool in_eval = t >= config_.warmup;
    // One walk per server over the VMs that want to overclock this
    // slot or may still hold a grant (activeMask_ is a conservative
    // superset: set when a start is issued, cleared once a processed
    // VM is inactive; a dropped ingress start is re-issued next
    // step).  A transition goes straight to the sOA, and sOA s ticks
    // right after its own VMs because Central's oracle admission
    // reads rack power; or, through the ingress (DESIGN.md §12), as
    // a wire frame next to this step's storm frames, and every sOA
    // ticks after one batched drain.
    core::HintIngress *const ingress = ingress_.get();
    for (std::size_t s = 0; s < soas_.size(); ++s) {
        power::Server &server = rack_->server(s);
        auto &soa = *soas_[s];
        if (storm_.enabled()) {
            storm_.generate(static_cast<int>(s), t,
                            [&](const core::wire::Frame &frame) {
                                ingress->offer(frame, t);
                            });
        }
        const std::uint64_t want_mask = fleet_->wantMask(s);
        std::uint64_t pending = want_mask | activeMask_[s];
        while (pending != 0) {
            const int v = std::countr_zero(pending);
            pending &= pending - 1;
            const auto bit = std::uint64_t{1} << v;
            const auto vi = static_cast<std::size_t>(v);
            const power::GroupId g = v;
            const bool want = (want_mask & bit) != 0;
            const bool active = soa.isOverclockActive(g);
            // Wire header of this VM's next hint (ingress only).
            const auto header = [&] {
                core::wire::HintHeader hdr;
                hdr.server = static_cast<int>(s);
                hdr.vmId = g;
                hdr.seq = seq_[s][vi]++;
                hdr.issuedAt = t;
                return hdr;
            };
            if (want && !active) {
                core::OverclockRequest request;
                request.groupId = g;
                request.cores = mixes_[s][vi].cores;
                request.trigger = core::TriggerKind::Metrics;
                request.duration = config_.requestChunk;
                request.priority = 1;
                if (ingress != nullptr) {
                    ingress->offer(core::wire::encodeOverclockRequest(
                                       header(), request),
                                   t);
                } else {
                    soa.requestOverclock(request, t);
                }
                activeMask_[s] |= bit;
            } else if (!want && active) {
                if (ingress != nullptr)
                    ingress->offer(
                        core::wire::encodeStopRequest(header()), t);
                else
                    soa.stopOverclock(g, t);
                activeMask_[s] &= ~bit;
            } else if (!active) {
                activeMask_[s] &= ~bit;
            }

            if (in_eval && want) {
                ++out_.wantSteps;
                const auto *group = server.group(g);
                const power::FreqMHz eff = group != nullptr
                    ? group->effectiveMHz()
                    : power::kTurboMHz;
                out_.perf.add(eff / power::kTurboMHz);
                if (group != nullptr && group->overclocked())
                    ++out_.successSteps;
            }
        }
        if (ingress == nullptr)
            soa.tick(t);
    }

    if (ingress != nullptr) {
        // The sink bounds-checks the addressed server/group (a
        // forged frame may name anything); hints it cannot place
        // are sink drops.
        ingress->drain(
            t, [&](const core::wire::ParsedHint &hint) {
                if (hint.server < 0 ||
                    hint.server >= static_cast<int>(soas_.size()))
                    return false;
                const auto vms = static_cast<std::int32_t>(
                    mixes_[static_cast<std::size_t>(hint.server)]
                        .size());
                switch (hint.kind) {
                case core::wire::HintKind::OverclockRequest:
                    if (hint.vmId < 0 || hint.vmId >= vms)
                        return false;
                    soas_[static_cast<std::size_t>(hint.server)]
                        ->requestOverclock(hint.request, t);
                    return true;
                case core::wire::HintKind::StopRequest:
                    if (hint.vmId < 0 || hint.vmId >= vms)
                        return false;
                    soas_[static_cast<std::size_t>(hint.server)]
                        ->stopOverclock(hint.vmId, t);
                    return true;
                default:
                    // Metrics/schedule/exhaustion hints have no
                    // consumer in the trace sim (no WI layer);
                    // counted as sink drops, not crashes.
                    return false;
                }
            });
        for (auto &soa : soas_)
            soa->tick(t);
    }
    const std::uint64_t cap_before = manager_->stats().capEvents;
    manager_->tick(t);

    if (in_eval && plan_.enabled()) {
        const std::uint64_t cap_delta =
            manager_->stats().capEvents - cap_before;
        if (cap_delta > 0) {
            bool attributed = t <= faultAttributionUntil_ ||
                plan_.goaDown(t);
            for (std::size_t s = 0;
                 !attributed && s < soas_.size(); ++s) {
                attributed = soas_[s]->leaseStale(t);
            }
            if (attributed)
                out_.capEventsFaultAttributed += cap_delta;
        }
    }

    if (in_eval) {
        out_.rackUtil.add(rack_->utilization());
        out_.energyJoules +=
            power::energyOver(rack_->powerWatts(), dtS_);
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
    // soclint:hot-end(PERF-001)
}

void
RackRuntime::advance(sim::Tick until)
{
    const auto t0 = Clock::now();
    pendingRefillS_ = 0.0;
    for (; t_ < until; t_ += config_.controlStep) {
        stepProlog(t_);
        if (config_.budgetPath != BudgetPath::HierarchyZone)
            maybeRecompute(t_);
        stepMain(t_);
    }
    out_.simSeconds += secondsSince(t0) - pendingRefillS_;
}

void
RackRuntime::boundaryCollect(sim::Tick t,
                             core::ProfileAggregator &agg)
{
    assert(t == t_ && "lockstep boundary out of phase");
    assert(config_.budgetPath == BudgetPath::HierarchyZone);
    const auto t0 = Clock::now();
    pendingRefillS_ = 0.0;
    stepProlog(t);
    const auto &profiles = goa_->pullProfiles();
    agg.aggregate(profiles.data(), profiles.size(), aggregate_);
    out_.simSeconds += secondsSince(t0) - pendingRefillS_;
}

void
RackRuntime::boundaryFinishZone(const core::BudgetHierarchy &hier,
                                std::vector<double> &usable)
{
    const auto t0 = Clock::now();
    pendingRefillS_ = 0.0;
    const core::ProfileTemplate &budget =
        hier.rackBudget(rackIndex_);
    usable.resize(static_cast<std::size_t>(sim::kSlotsPerWeek));
    for (std::size_t slot = 0; slot < usable.size(); ++slot) {
        usable[slot] = budget.predict(
            static_cast<sim::Tick>(slot) * sim::kSlot);
    }
    goa_->recomputeWithBudget(t_, usable);
    // Fleet-scale footprint trim: the gOA's profiles and budget
    // copies go until the next boundary re-pulls (cheap,
    // cache-served) and re-splits; the sOAs keep their own budgets.
    // Safe because the hierarchical paths run with faults disabled.
    goa_->releaseProfiles();
    stepMain(t_);
    t_ += config_.controlStep;
    out_.simSeconds += secondsSince(t0) - pendingRefillS_;
}

void
RackRuntime::finish()
{
    const auto t0 = Clock::now();
    out_.capEvents = manager_->stats().capEvents - capBase_;
    out_.cappedTicks =
        manager_->stats().cappedTicks - cappedTickBase_;
    out_.warnings = manager_->stats().warnings - warnBase_;
    std::uint64_t requests = 0;
    for (auto &soa : soas_)
        requests += soa->stats().requests;
    out_.requests = requests - reqBase_;

    if (plan_.enabled()) {
        out_.faults.merge(goa_->stats());
        for (const auto &outage : plan_.outages())
            if (outage.start < end_)
                ++out_.faults.goaOutages;
        for (auto &soa : soas_)
            out_.staleLeaseTicks += soa->stats().staleLeaseTicks;
    }

    if (ingress_) {
        out_.ingress.merge(ingress_->stats());
        for (auto &soa : soas_)
            out_.flapDenied += soa->stats().flapDenied;
    }
    out_.simSeconds += secondsSince(t0);
}

/** Merge per-rack outcomes in rack order: deterministic regardless
 *  of how racks were scheduled over threads. */
TraceSimResult
mergeOutcomes(const std::vector<RackOutcome> &outcomes)
{
    TraceSimResult result;
    sim::OnlineStats penalty_stats;
    sim::OnlineStats rack_util_stats;
    sim::OnlineStats perf_stats;
    sim::Tick recovery_sum = 0;
    for (const auto &out : outcomes) {
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
        result.faults.merge(out.faults);
        result.capEventsFaultAttributed +=
            out.capEventsFaultAttributed;
        result.staleLeaseTicks += out.staleLeaseTicks;
        result.recoveries += out.recoveries;
        recovery_sum += out.recoverySum;
        result.ingress.merge(out.ingress);
        result.flapDenied += out.flapDenied;
        result.genSeconds += out.genSeconds;
        result.simSeconds += out.simSeconds;
    }
    result.meanRecoveryS = result.recoveries > 0
        ? static_cast<double>(recovery_sum) /
            static_cast<double>(result.recoveries) / sim::kSecond
        : 0.0;
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

/** Chunk grain shared by both runners: contiguous rack ranges off
 *  the atomic cursor, sized so each thread claims a few chunks. */
std::size_t
rackGrain(std::size_t n_racks, int threads)
{
    return std::clamp<std::size_t>(
        n_racks / (4 * static_cast<std::size_t>(threads)), 1, 16);
}

/**
 * Independent-racks runner (PerRack and its HierarchyEquivalence
 * alias):
 * each rack is built, simulated and *freed* inside its chunk, so
 * memory stays O(racks in flight x streamWindow), not O(fleet x
 * horizon) — what makes the 7.1k-rack runs of EXPERIMENTS.md
 * feasible.  Outcomes live in per-rack slots merged in rack order,
 * so neither the chunk grain nor the thread count can affect
 * results.
 */
TraceSimResult
runIndependent(const TraceSimConfig &config,
               const power::PowerModel &model,
               const core::SoaConfig &soa_cfg)
{
    const std::size_t n_racks =
        static_cast<std::size_t>(std::max(0, config.racks));
    const int threads = std::min<int>(
        sim::ThreadPool::resolveThreads(config.threads),
        std::max<int>(1, config.racks));
    sim::ThreadPool pool(threads);

    std::vector<RackOutcome> outcomes(n_racks);
    const sim::Tick end = config.warmup + config.duration;
    pool.parallelForChunked(
        n_racks, rackGrain(n_racks, threads),
        [&](std::size_t begin, std::size_t chunk_end) {
            for (std::size_t r = begin; r < chunk_end; ++r) {
                RackRuntime runtime(config, model, soa_cfg,
                                    static_cast<int>(r),
                                    outcomes[r]);
                runtime.build();
                runtime.advance(end);
                runtime.finish();
            }
        });
    return mergeOutcomes(outcomes);
}

/**
 * Lockstep runner (HierarchyZone): every rack stays resident;
 * between recompute boundaries the racks advance in parallel, then
 * each boundary runs three phases — parallel profile pull +
 * per-rack aggregation, the *serial* zone recompute (aggregate
 * exchange in rack order + dirty-tracked hierarchy re-split, timed
 * as hierSeconds), and the parallel budget push + boundary step.
 * Every phase writes only rack-owned state (the hierarchy is
 * written solely by the serial phase), so results are bit-identical
 * at any thread count, like the independent runner.
 */
TraceSimResult
runLockstepZone(const TraceSimConfig &config,
                const power::PowerModel &model,
                const core::SoaConfig &soa_cfg)
{
    const std::size_t n_racks =
        static_cast<std::size_t>(std::max(0, config.racks));
    const int threads = std::min<int>(
        sim::ThreadPool::resolveThreads(config.threads),
        std::max<int>(1, config.racks));
    sim::ThreadPool pool(threads);
    const std::size_t grain = rackGrain(n_racks, threads);

    std::vector<RackOutcome> outcomes(n_racks);
    std::vector<std::unique_ptr<RackRuntime>> runtimes(n_racks);
    pool.parallelForChunked(
        n_racks, grain,
        [&](std::size_t begin, std::size_t chunk_end) {
            for (std::size_t r = begin; r < chunk_end; ++r) {
                runtimes[r] = std::make_unique<RackRuntime>(
                    config, model, soa_cfg, static_cast<int>(r),
                    outcomes[r]);
                runtimes[r]->build();
            }
        });

    // Zone limit: the sum of the rack limits, in rack order.
    power::Watts zone_limit{0.0};
    for (const auto &runtime : runtimes)
        zone_limit += runtime->limitWatts();

    core::HierarchyConfig hier_cfg;
    hier_cfg.racksPerRow = config.racksPerRow;
    core::BudgetHierarchy hierarchy(model, hier_cfg);
    for (std::size_t r = 0; r < n_racks; ++r)
        hierarchy.addRackAggregate(core::ServerProfile{});

    const sim::Tick end = config.warmup + config.duration;
    const sim::Tick cs = config.controlStep;
    // The recompute schedule every rack shares: due times start at
    // warmup and advance by recomputePeriod per executed recompute,
    // executing at the first control step at/after the due time —
    // exactly the per-rack `t >= next_recompute` cadence.
    sim::Tick sched = config.warmup;
    sim::Tick prev_boundary = -cs;
    double hier_seconds = 0.0;
    std::uint64_t hier_recomputes = 0;
    for (;;) {
        const sim::Tick due_step = ((sched + cs - 1) / cs) * cs;
        const sim::Tick boundary =
            std::max(due_step, prev_boundary + cs);
        if (boundary >= end)
            break;

        pool.parallelForChunked(
            n_racks, grain,
            [&](std::size_t begin, std::size_t chunk_end) {
                core::ProfileAggregator aggregator;
                for (std::size_t r = begin; r < chunk_end; ++r) {
                    runtimes[r]->advance(boundary);
                    runtimes[r]->boundaryCollect(boundary,
                                                 aggregator);
                }
            });

        {
            const auto t0 = Clock::now();
            for (std::size_t r = 0; r < n_racks; ++r)
                hierarchy.exchangeRackAggregate(
                    static_cast<int>(r),
                    runtimes[r]->aggregateSlot());
            hierarchy.recompute(zone_limit);
            hier_seconds += secondsSince(t0);
            ++hier_recomputes;
        }

        pool.parallelForChunked(
            n_racks, grain,
            [&](std::size_t begin, std::size_t chunk_end) {
                std::vector<double> usable;
                for (std::size_t r = begin; r < chunk_end; ++r)
                    runtimes[r]->boundaryFinishZone(hierarchy,
                                                    usable);
            });

        prev_boundary = boundary;
        sched += config.recomputePeriod;
    }

    pool.parallelForChunked(
        n_racks, grain,
        [&](std::size_t begin, std::size_t chunk_end) {
            for (std::size_t r = begin; r < chunk_end; ++r) {
                runtimes[r]->advance(end);
                runtimes[r]->finish();
                runtimes[r].reset();
            }
        });

    TraceSimResult result = mergeOutcomes(outcomes);
    result.hierSeconds = hier_seconds;
    result.hierarchyRecomputes = hier_recomputes;
    result.hierarchyStats = hierarchy.stats();
    return result;
}

} // namespace

TraceSimResult
runTraceSim(const TraceSimConfig &config)
{
    config.validate();
    const power::PowerModel model(config.hardware);
    core::SoaConfig soa_cfg =
        core::SoaConfig::forPolicy(config.policy);
    soa_cfg.controlPeriod = config.controlStep;
    // Trace studies stress the power path; keep the lifetime budget
    // generous enough that peaks fit (the paper's operators size the
    // budget to the workloads' requirements).
    soa_cfg.overclockFraction = 0.25;
    soa_cfg.templateWindow = config.templateWindow;
    if (config.ingress.enabled)
        soa_cfg.flapHoldoff = config.ingress.flapHoldoff;

    if (config.budgetPath == BudgetPath::HierarchyZone)
        return runLockstepZone(config, model, soa_cfg);
    return runIndependent(config, model, soa_cfg);
}

std::vector<TraceSimResult>
runTraceSimBatch(const std::vector<TraceSimConfig> &configs,
                 int threads)
{
    std::vector<TraceSimResult> results(configs.size());
    sim::ThreadPool pool(std::min<int>(
        sim::ThreadPool::resolveThreads(threads),
        static_cast<int>(std::max<std::size_t>(1, configs.size()))));
    // Grain 1: configs are few and heavyweight (whole runs), so the
    // atomic cursor load-balances them individually; each result
    // lands in its own slot, keeping output order-independent.
    pool.parallelForChunked(
        configs.size(), 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                TraceSimConfig cfg = configs[i];
                cfg.threads = 1; // the batch pool is the parallelism
                results[i] = runTraceSim(cfg);
            }
        });
    return results;
}

} // namespace cluster
} // namespace soc
