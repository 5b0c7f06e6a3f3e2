#include "core/soa.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace soc
{
namespace core
{

namespace
{

/** Entry for @p key in the key-sorted flat vector @p flat, or the
 *  position it would be inserted at. */
template <typename Flat>
auto
lowerBoundKey(Flat &flat, int key)
{
    return std::lower_bound(
        flat.begin(), flat.end(), key,
        [](const auto &e, int k) { return e.first < k; });
}

/** Set @p key's value in the key-sorted flat vector @p flat. */
template <typename Flat, typename Value>
void
assignKey(Flat &flat, int key, const Value &value)
{
    const auto at = lowerBoundKey(flat, key);
    if (at != flat.end() && at->first == key)
        at->second = value;
    else
        flat.emplace(at, key, value);
}

} // namespace

SoaConfig
SoaConfig::forPolicy(PolicyKind kind)
{
    SoaConfig config;
    switch (kind) {
      case PolicyKind::Central:
        config.oracleMode = true;
        config.admission.checkLifetime = false;
        config.exploreEnabled = false;
        break;
      case PolicyKind::NaiveOClock:
        config.admission.checkPower = false;
        config.admission.checkLifetime = false;
        config.exploreEnabled = false;
        config.enforceBudget = false;
        break;
      case PolicyKind::NoFeedback:
        config.exploreEnabled = false;
        break;
      case PolicyKind::NoWarning:
        config.respectWarnings = false;
        break;
      case PolicyKind::SmartOClock:
        break;
    }
    return config;
}

ServerOverclockingAgent::ServerOverclockingAgent(
    power::Server &server, SoaConfig config,
    const power::Rack *oracle_rack)
    : server_(server),
      config_(config),
      oracleRack_(oracle_rack),
      admission_(server.model(), config.admission),
      lifetime_(config.budgetEpoch, config.overclockFraction,
                server.totalCores(), config.carryoverCap),
      journal_(server.totalCores(), config.budgetEpoch),
      coreUsedEpoch_(server.totalCores(), 0),
      regularAgg_(config.templateWindow),
      powerAgg_(config.templateWindow),
      utilAgg_(config.templateWindow),
      grantedCoresAgg_(config.templateWindow),
      requestedCoresAgg_(config.templateWindow)
{
    assert(!config_.oracleMode || oracleRack_ != nullptr);
    allowancePerCore_ = static_cast<sim::Tick>(
        config_.overclockFraction *
        static_cast<double>(config_.budgetEpoch));
}

void
ServerOverclockingAgent::assignBudget(ProfileTemplate budget)
{
    budget_ = std::move(budget);
    budgetAssigned_ = true;
    leaseUntil_ = 0;
}

bool
ServerOverclockingAgent::assignBudget(
    const BudgetAssignment &assignment, sim::Tick now)
{
    ++stats_.budgetAssignments;
    const double peak = assignment.budget.peak();
    const double trough = assignment.budget.trough();
    BudgetReject reject = BudgetReject::None;
    if (!std::isfinite(peak) || !std::isfinite(trough))
        reject = BudgetReject::NotFinite;
    else if (trough < 0.0)
        reject = BudgetReject::Negative;
    else if (assignment.rackLimitWatts > power::Watts{0.0} &&
             power::Watts{peak} > assignment.rackLimitWatts)
        reject = BudgetReject::AboveRackLimit;
    else if (assignment.leaseUntil != 0 &&
             assignment.leaseUntil < assignment.issuedAt)
        reject = BudgetReject::LeaseBeforeIssue;
    lastBudgetReject_ = reject;
    if (reject != BudgetReject::None) {
        ++stats_.budgetRejects;
        return false;
    }
    budget_ = assignment.budget;
    budgetAssigned_ = true;
    leaseUntil_ = assignment.leaseUntil;
    lastAssignmentAt_ = now;
    return true;
}

power::Watts
ServerOverclockingAgent::measuredWatts(sim::Tick now) const
{
    const power::Watts watts = server_.powerWatts();
    return sensor_ ? sensor_(watts, now) : watts;
}

power::Watts
ServerOverclockingAgent::budgetWatts(sim::Tick now) const
{
    if (!budgetAssigned_) {
        // No assignment at all: run on the safe floor if the gOA
        // declared one, else behave as if granted the server's TDP
        // until real budgets arrive (agent-only bootstrap).
        const power::Watts base = safeBudgetWatts_ > power::Watts{0.0}
            ? safeBudgetWatts_
            : server_.model().params().tdpWatts;
        return base + bonusWatts_;
    }
    const power::Watts fresh{budget_.predict(now)};
    if (!leaseStale(now))
        return fresh + bonusWatts_;
    // Degraded mode: the gOA failed to refresh the lease.  Keep
    // enforcing, but decay the stale prediction linearly toward the
    // guaranteed-safe floor; after staleDecayTime the agent is fully
    // conservative no matter how wrong the stale budget was.
    const double frac = std::min(
        1.0, static_cast<double>(now - leaseUntil_) /
                 static_cast<double>(
                     std::max<sim::Tick>(1, config_.staleDecayTime)));
    const power::Watts base =
        fresh + (std::min(safeBudgetWatts_, fresh) - fresh) * frac;
    return base + bonusWatts_;
}

AdmissionDecision
ServerOverclockingAgent::requestOverclock(
    const OverclockRequest &request, sim::Tick now)
{
    ++stats_.requests;

    // Re-requests for an already-granted group just extend it.  The
    // group's cores are already counted through the granted side of
    // the telemetry, so they must not also be counted as fresh
    // demand (requested = granted + requestedCoresNow_).
    auto it = activeFind(request.groupId);
    if (it != active_.end()) {
        AdmissionDecision decision;
        decision.granted = true;
        decision.grantedMHz = it->second.request.desiredMHz;
        decision.grantedUntil = std::max(it->second.grantedUntil,
                                         now + request.duration);
        it->second.grantedUntil = decision.grantedUntil;
        decision.reason = AdmissionReason::Extended;
        return decision;
    }

    // Flap hysteresis (DESIGN.md §12): a group that just stopped
    // must sit out the holdoff window before re-requesting.  Checked
    // before the requested-core accounting so a flap storm cannot
    // inflate apparent demand and steal budget from steady groups.
    if (config_.flapHoldoff > 0) {
        const auto stop = lowerBoundKey(lastStopAt_, request.groupId);
        if (stop != lastStopAt_.end() &&
            stop->first == request.groupId &&
            now - stop->second < config_.flapHoldoff) {
            ++stats_.rejects;
            ++stats_.flapDenied;
            AdmissionDecision denied;
            denied.granted = false;
            denied.reason = AdmissionReason::FlapHysteresis;
            return denied;
        }
    }

    requestedCoresNow_ += request.cores;

    AdmissionDecision decision;
    if (config_.oracleMode) {
        // Central: perfect knowledge of the rack's current draw.
        const power::Watts extra = admission_.surchargeWatts(request);
        if (oracleRack_->powerWatts() + extra >
            oracleRack_->limitWatts()) {
            decision.granted = false;
            decision.reason = AdmissionReason::OracleRackWouldCap;
        } else {
            decision.granted = true;
            decision.grantedMHz = request.desiredMHz;
            decision.grantedUntil = now + request.duration;
            decision.reason = AdmissionReason::OracleFits;
        }
    } else {
        AdmissionInputs in;
        in.now = now;
        in.measuredWatts = measuredWatts(now);
        in.budget = budgetAssigned_ ? &budget_ : nullptr;
        in.bonusWatts = bonusWatts_;
        in.serverPower = ownTemplateValid_ ? &ownPower_ : nullptr;
        in.lifetime = &lifetime_;
        decision = admission_.decide(request, in);
    }

    if (!decision.granted) {
        ++stats_.rejects;
        assignKey(recentDenied_, request.groupId,
                  std::pair<int, sim::Tick>{
                      request.cores, now + 2 * config_.controlPeriod});
        if (decision.reason ==
            AdmissionReason::PowerBudgetInsufficient) {
            powerDenialUntil_ = now + 2 * config_.warningWindow;
        }
        return decision;
    }

    ++stats_.grants;
    ActiveOverclock oc;
    oc.request = request;
    oc.grantedUntil = decision.grantedUntil;
    oc.startedAt = now;
    oc.coreSet = pickCores(request.cores, now);
    active_.emplace(lowerBoundKey(active_, request.groupId),
                    request.groupId, std::move(oc));

    // Begin the ramp one step above turbo; the feedback loop takes
    // it the rest of the way.
    server_.setTarget(request.groupId,
                      server_.ladder().up(power::kTurboMHz));
    if (!config_.enforceBudget) {
        // Naive policy: jump straight to the desired frequency.
        server_.setTarget(request.groupId, request.desiredMHz);
    }
    return decision;
}

sim::Tick
ServerOverclockingAgent::chargeWear(ActiveOverclock &oc,
                                    sim::Tick from, sim::Tick until,
                                    sim::Tick now)
{
    // Wear accrues only while the grant is live.
    const sim::Tick delta = std::min(until, oc.grantedUntil) -
        std::max(from, oc.startedAt);
    if (delta <= 0)
        return 0;
    const auto *group = server_.group(oc.request.groupId);
    if (group == nullptr || !group->overclocked())
        return 0; // held at/below turbo: no wear consumed
    rollCoreEpoch(now);
    const auto cores = static_cast<sim::Tick>(oc.coreSet.size());
    stats_.overclockedCoreTime += delta * cores;
    lifetime_.consume(delta * cores, now);
    for (int core : oc.coreSet)
        coreUsedEpoch_[core] += delta;
    // Durable record: wear must survive an agent crash.
    journal_.append(oc.coreSet, delta, now);
    return delta;
}

void
ServerOverclockingAgent::stopOverclock(int group_id, sim::Tick now)
{
    auto it = activeFind(group_id);
    if (it == active_.end())
        return;

    ActiveOverclock &oc = it->second;
    // Charge the partial interval since the last accounting tick;
    // without this, a group stopped between ticks never pays for
    // its final stretch of overclocked time.
    chargeWear(oc, lastAccounting_, now, now);
    // Release any still-reserved schedule budget.
    if (oc.request.trigger == TriggerKind::Schedule &&
        oc.grantedUntil > now) {
        lifetime_.release(
            (oc.grantedUntil - now) * oc.request.cores, now);
    }
    releaseCores(std::move(oc.coreSet));
    server_.setTarget(group_id, power::kTurboMHz);
    active_.erase(it);
    if (config_.flapHoldoff > 0)
        assignKey(lastStopAt_, group_id, now);
}

bool
ServerOverclockingAgent::isOverclockActive(int group_id) const
{
    // Sorted and small: a linear scan with early exit beats a
    // binary search for a handful of grants.
    for (const auto &e : active_) {
        if (e.first >= group_id)
            return e.first == group_id;
    }
    return false;
}

std::span<const std::uint16_t>
ServerOverclockingAgent::coreSet(int group_id) const
{
    const auto it = lowerBoundKey(active_, group_id);
    if (it == active_.end() || it->first != group_id)
        return {};
    return it->second.coreSet;
}

sim::Tick
ServerOverclockingAgent::coreUsed(int core, sim::Tick now) const
{
    // An epoch this agent has not rolled into yet starts unworn.
    return now / config_.budgetEpoch == coreEpochIndex_
        ? coreUsedEpoch_[core]
        : 0;
}

std::vector<std::pair<int, ServerOverclockingAgent::ActiveOverclock>>
    ::iterator
ServerOverclockingAgent::activeFind(int group_id)
{
    const auto it = lowerBoundKey(active_, group_id);
    return it != active_.end() && it->first == group_id
        ? it
        : active_.end();
}

void
ServerOverclockingAgent::revoke(ActiveOverclock &oc, sim::Tick now)
{
    ++stats_.revocations;
    stopOverclock(oc.request.groupId, now);
}

bool
ServerOverclockingAgent::constrained(sim::Tick now) const
{
    if (now < powerDenialUntil_)
        return true;
    for (const auto &[group_id, oc] : active_) {
        const auto *group = server_.group(group_id);
        if (group != nullptr &&
            group->targetMHz < oc.request.desiredMHz) {
            return true;
        }
    }
    return false;
}

std::vector<std::uint16_t>
ServerOverclockingAgent::pickCores(int count, sim::Tick now)
{
    rollCoreEpoch(now);
    const int total = server_.totalCores();
    if (holders_.empty()) {
        // Built here rather than in the constructor, so agents that
        // never grant add nothing to set-up.
        holders_.assign(static_cast<std::size_t>(total), 0);
        freeCores_.reserve(static_cast<std::size_t>(total));
        sortFreeCores();
    }
    std::vector<std::uint16_t> picked;
    if (!corePool_.empty()) {
        picked = std::move(corePool_.back());
        corePool_.pop_back();
    }

    // The least-worn free cores are the front of freeCores_.
    const auto want = static_cast<std::size_t>(std::max(count, 0));
    const std::size_t from_free = std::min(want, freeCores_.size());
    const auto free_end =
        freeCores_.begin() + static_cast<std::ptrdiff_t>(from_free);
    picked.assign(freeCores_.begin(), free_end);

    // If the server is fully busy with overclocks, reuse cores (the
    // request would have been capacity-checked at the cluster
    // layer): a k-selection over the held cores, kept in
    // (wear, index) order, so it matches filtering a full sort.
    if (picked.size() < want) {
        const std::size_t room = want - from_free;
        for (int core = 0; core < total; ++core) {
            if (holders_[core] == 0)
                continue;
            if (picked.size() - from_free < room) {
                picked.push_back(static_cast<std::uint16_t>(core));
            } else if (wearBefore(core, picked.back())) {
                picked.back() = static_cast<std::uint16_t>(core);
            } else {
                continue;
            }
            for (std::size_t i = picked.size() - 1;
                 i > from_free && wearBefore(picked[i], picked[i - 1]);
                 --i)
                std::swap(picked[i], picked[i - 1]);
        }
    }

    for (const std::uint16_t core : picked)
        ++holders_[core];
    freeCores_.erase(freeCores_.begin(), free_end);
    return picked;
}

void
ServerOverclockingAgent::releaseCores(std::vector<std::uint16_t> &&cores)
{
    for (const std::uint16_t core : cores) {
        if (--holders_[core] != 0)
            continue; // still carrying another grant (reuse path)
        freeCores_.insert(
            std::lower_bound(freeCores_.begin(), freeCores_.end(),
                             core,
                             [this](int a, int b) {
                                 return wearBefore(a, b);
                             }),
            core);
    }
    cores.clear();
    corePool_.push_back(std::move(cores));
}

void
ServerOverclockingAgent::sortFreeCores()
{
    freeCores_.clear();
    for (std::size_t core = 0; core < holders_.size(); ++core)
        if (holders_[core] == 0)
            freeCores_.push_back(static_cast<std::uint16_t>(core));
    std::sort(freeCores_.begin(), freeCores_.end(),
              [this](int a, int b) { return wearBefore(a, b); });
}

void
ServerOverclockingAgent::rollCoreEpoch(sim::Tick now)
{
    const std::int64_t epoch = now / config_.budgetEpoch;
    if (epoch != coreEpochIndex_) {
        coreEpochIndex_ = epoch;
        std::fill(coreUsedEpoch_.begin(), coreUsedEpoch_.end(), 0);
        // All wear is zero again: free cores fall back to index order.
        sortFreeCores();
    }
}

void
ServerOverclockingAgent::tick(sim::Tick now)
{
    // Expire stale denial records.
    std::erase_if(recentDenied_, [now](const auto &entry) {
        return entry.second.second <= now;
    });
    // A stop older than the flap window can deny nothing any more.
    std::erase_if(lastStopAt_, [&](const auto &entry) {
        return now - entry.second >= config_.flapHoldoff;
    });

    if (leaseStale(now)) {
        // Degraded mode: the budget can no longer be trusted, so
        // exploring beyond it is off the table and any banked bonus
        // is surrendered.  budgetWatts() handles the decay itself.
        ++stats_.staleLeaseTicks;
        if (bonusWatts_ > power::Watts{0.0} ||
            state_ != ExploreState::Normal) {
            bonusWatts_ = power::Watts{0.0};
            state_ = ExploreState::Normal;
        }
    }

    lifetimeAccounting(now);
    feedbackLoop(now);
    explorationStep(now);
    exhaustionPrediction(now);
    telemetryCollection(now);
    requestedCoresNow_ = 0;
}

void
ServerOverclockingAgent::feedbackLoop(sim::Tick now)
{
    if (active_.empty())
        return;

    if (!config_.enforceBudget) {
        // NaiveOClock: hold every grant at its desired frequency.
        for (auto &[group_id, oc] : active_)
            server_.setTarget(group_id, oc.request.desiredMHz);
        return;
    }

    power::Watts draw;
    power::Watts limit;
    if (config_.oracleMode) {
        draw = oracleRack_->powerWatts();
        limit = oracleRack_->limitWatts() * 0.995;
    } else {
        draw = measuredWatts(now);
        limit = budgetWatts(now);
    }
    const power::Watts threshold = limit - config_.bufferWatts;

    if (draw > limit) {
        // Step down, lowest priority first, multiple steps per tick
        // so abrupt budget cuts converge quickly.
        for (int step = 0; step < config_.stepsPerTick; ++step) {
            ActiveOverclock *victim = nullptr;
            power::CoreGroup *victim_group = nullptr;
            for (auto &[group_id, oc] : active_) {
                auto *group = server_.group(group_id);
                if (group == nullptr ||
                    group->targetMHz <= power::kTurboMHz) {
                    continue;
                }
                if (victim == nullptr ||
                    oc.request.priority < victim->request.priority) {
                    victim = &oc;
                    victim_group = group;
                }
            }
            if (victim == nullptr)
                break;
            server_.setTarget(victim->request.groupId,
                              server_.ladder().down(
                                  victim_group->targetMHz));
            const power::Watts new_draw = config_.oracleMode
                ? oracleRack_->powerWatts()
                : measuredWatts(now);
            if (new_draw <= limit)
                break;
        }
    } else if (draw < threshold) {
        // Step up constrained groups, highest priority first, while
        // the predicted draw stays under the limit.
        for (int step = 0; step < config_.stepsPerTick; ++step) {
            ActiveOverclock *best = nullptr;
            power::CoreGroup *best_group = nullptr;
            for (auto &[group_id, oc] : active_) {
                auto *group = server_.group(group_id);
                if (group == nullptr ||
                    group->targetMHz >= oc.request.desiredMHz) {
                    continue;
                }
                if (best == nullptr ||
                    oc.request.priority > best->request.priority) {
                    best = &oc;
                    best_group = group;
                }
            }
            if (best == nullptr)
                break;
            const power::FreqMHz next =
                server_.ladder().up(best_group->targetMHz);
            const power::Watts predicted = server_.powerWattsIf(
                best->request.groupId, next);
            const bool fits = config_.oracleMode
                ? (oracleRack_->powerWatts() +
                   (predicted - server_.powerWatts())) <= limit
                : predicted <= limit;
            if (!fits)
                break;
            server_.setTarget(best->request.groupId, next);
        }
    }
}

void
ServerOverclockingAgent::explorationStep(sim::Tick now)
{
    if (!config_.exploreEnabled || leaseStale(now))
        return;

    switch (state_) {
      case ExploreState::Normal:
        if (constrained(now) && now >= nextExploreAllowed_ &&
            bonusWatts_ < config_.maxBonusWatts) {
            state_ = ExploreState::Exploring;
            bonusWatts_ += config_.exploreStepWatts;
            stateDeadline_ = now + config_.warningWindow;
            ++stats_.explorationsStarted;
        }
        break;
      case ExploreState::Exploring:
        if (now >= stateDeadline_) {
            if (!constrained(now)) {
                // Everyone reached the desired frequency: bank the
                // discovered budget and exploit it.
                state_ = ExploreState::Exploiting;
                stateDeadline_ = now + config_.exploitTime;
                backoffExp_ = 0;
            } else if (bonusWatts_ < config_.maxBonusWatts) {
                bonusWatts_ += config_.exploreStepWatts;
                stateDeadline_ = now + config_.warningWindow;
            } else {
                state_ = ExploreState::Exploiting;
                stateDeadline_ = now + config_.exploitTime;
            }
        }
        break;
      case ExploreState::Exploiting:
        if (now >= stateDeadline_)
            state_ = ExploreState::Normal;
        break;
    }
}

void
ServerOverclockingAgent::onWarning(sim::Tick now)
{
    if (!config_.respectWarnings)
        return;
    if (state_ != ExploreState::Exploring)
        return; // §IV-D: ignore unless exploring
    ++stats_.warningsHeeded;
    bonusWatts_ = std::max(power::Watts{0.0},
                           bonusWatts_ - config_.exploreStepWatts);
    backoffExp_ = std::min(backoffExp_ + 1, config_.maxBackoffExp);
    nextExploreAllowed_ = now +
        config_.backoffBase * (sim::Tick{1} << backoffExp_);
    state_ = ExploreState::Normal;
}

void
ServerOverclockingAgent::onCapEvent(sim::Tick now)
{
    // §IV-D: a capping event resets the sOA to its initial budget.
    if (bonusWatts_ > power::Watts{0.0} ||
        state_ != ExploreState::Normal)
        ++stats_.capResets;
    bonusWatts_ = power::Watts{0.0};
    state_ = ExploreState::Normal;
    backoffExp_ = std::min(backoffExp_ + 1, config_.maxBackoffExp);
    nextExploreAllowed_ = std::max(
        nextExploreAllowed_,
        now + config_.backoffBase * (sim::Tick{1} << backoffExp_));
}

void
ServerOverclockingAgent::lifetimeAccounting(sim::Tick now)
{
    const sim::Tick prev = lastAccounting_;
    lastAccounting_ = now;
    if (now - prev <= 0)
        return;
    rollCoreEpoch(now);

    bool revoke_due = false;
    for (auto &[group_id, oc] : active_) {
        // Natural expiry of the grant: charge the final partial
        // interval [prev, grantedUntil) before letting it go, or
        // the last stretch of wear is never accounted.
        if (now >= oc.grantedUntil) {
            chargeWear(oc, prev, now, now);
            oc.revokeDue = revoke_due = true;
            continue;
        }

        if (chargeWear(oc, prev, now, now) <= 0)
            continue; // held at/below turbo: no wear consumed

        bool exhausted_core = false;
        for (int core : oc.coreSet) {
            if (coreUsedEpoch_[core] >= allowancePerCore_)
                exhausted_core = true;
        }
        if (!exhausted_core)
            continue;

        if (!config_.admission.checkLifetime)
            continue; // policies without lifetime enforcement

        // §IV-D: explore whether other cores still have budget and
        // reschedule the VM there; otherwise revoke.
        // The old cores stay held while the fresh ones are picked.
        std::vector<std::uint16_t> fresh =
            pickCores(static_cast<int>(oc.coreSet.size()), now);
        bool viable = true;
        for (int core : fresh)
            if (coreUsedEpoch_[core] >= allowancePerCore_)
                viable = false;
        if (viable && fresh.size() == oc.coreSet.size()) {
            releaseCores(std::move(oc.coreSet));
            oc.coreSet = std::move(fresh);
            ++stats_.coreReschedules;
        } else {
            releaseCores(std::move(fresh));
            oc.revokeDue = revoke_due = true;
        }
    }

    // Revoke in group order; each revoke erases its own entry.
    for (std::size_t i = 0; revoke_due && i < active_.size();) {
        if (active_[i].second.revokeDue)
            revoke(active_[i].second, now);
        else
            ++i;
    }
}

void
ServerOverclockingAgent::exhaustionPrediction(sim::Tick now)
{
    if (!exhaustionCallback_ || active_.empty())
        return;

    // Lifetime exhaustion: shared budget divided by the burn rate.
    int burning_cores = 0;
    for (const auto &[group_id, oc] : active_)
        burning_cores += static_cast<int>(oc.coreSet.size());
    const sim::Tick lifetime_eta = burning_cores > 0
        ? lifetime_.timeToExhaustion(now, burning_cores)
        : std::numeric_limits<sim::Tick>::max();

    for (auto &[group_id, oc] : active_) {
        if (oc.exhaustionSignaled)
            continue;

        if (config_.admission.checkLifetime &&
            lifetime_eta < config_.exhaustionWindow) {
            ExhaustionSignal signal;
            signal.groupId = group_id;
            signal.kind = ExhaustionKind::OverclockBudget;
            signal.eta = now + lifetime_eta;
            oc.exhaustionSignaled = true;
            ++stats_.exhaustionSignals;
            exhaustionCallback_(signal);
            continue;
        }

        if (config_.admission.checkPower && budgetAssigned_ &&
            ownTemplateValid_) {
            const power::Watts extra = admission_.surchargeWatts(
                oc.request);
            for (sim::Tick t = now;
                 t < now + config_.exhaustionWindow;
                 t += sim::kSlot) {
                if (power::Watts{ownPower_.predict(t)} + extra >
                    power::Watts{budget_.predict(t)}) {
                    ExhaustionSignal signal;
                    signal.groupId = group_id;
                    signal.kind = ExhaustionKind::PowerBudget;
                    signal.eta = t;
                    oc.exhaustionSignaled = true;
                    ++stats_.exhaustionSignals;
                    exhaustionCallback_(signal);
                    break;
                }
            }
        }
    }
}

void
ServerOverclockingAgent::telemetryCollection(sim::Tick now)
{
    const std::int64_t slot = now / sim::kSlot;
    if (currentSlot_ < 0)
        currentSlot_ = slot;

    if (slot != currentSlot_) {
        // Each sample goes in at the wall-clock start of its slot,
        // so it lands in the time-of-day and day-of-week buckets it
        // was measured in, also after a crashRestart.
        const double n = std::max(1, slotSamples_);
        const sim::Tick t = currentSlot_ * sim::kSlot;
        regularAgg_.add(t, slotRegularSum_ / n);
        powerAgg_.add(t, slotPowerSum_ / n);
        utilAgg_.add(t, slotUtilSum_ / n);
        grantedCoresAgg_.add(t, slotGrantedSum_ / n);
        requestedCoresAgg_.add(t, slotRequestedSum_ / n);
        slotRegularSum_ = slotPowerSum_ = slotUtilSum_ = 0.0;
        slotGrantedSum_ = slotRequestedSum_ = 0.0;
        slotSamples_ = 0;
        // Gaps (no ticks during a slot) replay the last averages so
        // every aggregator sees consecutive slots.
        while (++currentSlot_ < slot) {
            const sim::Tick gap = currentSlot_ * sim::kSlot;
            for (SlotAggregator *agg :
                 {&regularAgg_, &powerAgg_, &utilAgg_,
                  &grantedCoresAgg_, &requestedCoresAgg_})
                agg->add(gap, agg->latest());
        }
    }

    int granted = 0;
    for (const auto &[group_id, oc] : active_)
        granted += oc.request.cores;
    int requested = granted + requestedCoresNow_;
    for (const auto &[group_id, entry] : recentDenied_)
        requested += entry.first;

    slotRegularSum_ += server_.regularPowerWatts().count();
    slotPowerSum_ += measuredWatts(now).count();
    slotUtilSum_ += server_.utilization();
    slotGrantedSum_ += granted;
    slotRequestedSum_ += requested;
    ++slotSamples_;
}

void
ServerOverclockingAgent::crashRestart(sim::Tick now)
{
    // Wear up to the crash instant is physically real: charge the
    // final partial interval so the journal is complete before the
    // volatile state is discarded.  The platform watchdog drops all
    // frequencies back to turbo when the agent dies.
    for (auto &[group_id, oc] : active_) {
        chargeWear(oc, lastAccounting_, now, now);
        releaseCores(std::move(oc.coreSet));
        server_.setTarget(group_id, power::kTurboMHz);
    }
    stats_.revocations += active_.size();
    active_.clear();
    recentDenied_.clear();
    lastStopAt_.clear();
    powerDenialUntil_ = 0;

    // Volatile exploration/back-off state is lost.
    state_ = ExploreState::Normal;
    bonusWatts_ = power::Watts{0.0};
    stateDeadline_ = 0;
    nextExploreAllowed_ = 0;
    backoffExp_ = 0;

    // The budget assignment and its lease lived in process memory:
    // until the gOA pushes again, the agent runs on the safe floor
    // (budgetWatts falls back to safeBudgetWatts_, which is static
    // per-rack configuration and survives).
    budget_ = ProfileTemplate();
    budgetAssigned_ = false;
    leaseUntil_ = 0;
    lastAssignmentAt_ = -1;
    lastBudgetReject_ = BudgetReject::None;
    ownPower_ = ProfileTemplate();
    ownTemplateValid_ = false;
    ownPowerVersion_ = 0;

    // Telemetry accumulators restart empty (history is agent-local;
    // the next recompute sees a short history, which is the real
    // cost of a crash).
    regularAgg_.clear();
    powerAgg_.clear();
    utilAgg_.clear();
    grantedCoresAgg_.clear();
    requestedCoresAgg_.clear();
    currentSlot_ = -1;
    slotRegularSum_ = slotPowerSum_ = slotUtilSum_ = 0.0;
    slotGrantedSum_ = slotRequestedSum_ = 0.0;
    slotSamples_ = 0;
    requestedCoresNow_ = 0;

    // Wear state is rebuilt from the durable journal — the
    // in-memory budget is deliberately discarded so recovery is
    // exercised for real, not faked by object survival.
    lifetime_ = OverclockBudget(config_.budgetEpoch,
                                config_.overclockFraction,
                                server_.totalCores(),
                                config_.carryoverCap);
    std::fill(coreUsedEpoch_.begin(), coreUsedEpoch_.end(), 0);
    coreEpochIndex_ = now / config_.budgetEpoch;
    journal_.replay(lifetime_, coreUsedEpoch_, now);
    // No grant survived: every core is free, in its replayed order.
    sortFreeCores();
    lastAccounting_ = now;
    ++stats_.crashRestarts;
}

void
ServerOverclockingAgent::refreshOwnTemplate(TemplateStrategy strategy)
{
    if (regularAgg_.empty())
        return;
    if (ownTemplateValid_ && strategy == ownPowerStrategy_ &&
        regularAgg_.version() == ownPowerVersion_) {
        // No slot closed since the last refresh: the template is
        // already current, leave it untouched.
        ++stats_.templateCacheHits;
        return;
    }
    ownPower_ = regularAgg_.build(strategy);
    ownPowerStrategy_ = strategy;
    ownPowerVersion_ = regularAgg_.version();
    ownTemplateValid_ = true;
    ++stats_.templateRebuilds;
}

void
ServerOverclockingAgent::readProfile(ServerProfile &out,
                                     TemplateStrategy strategy)
{
    refreshOwnTemplate(strategy);
    const std::uint64_t misses_before = powerAgg_.rebuildCount() +
        utilAgg_.rebuildCount() + grantedCoresAgg_.rebuildCount() +
        requestedCoresAgg_.rebuildCount();
    out.power = powerAgg_.build(strategy);
    out.utilization = utilAgg_.build(strategy);
    out.overclockedCores = grantedCoresAgg_.build(strategy);
    out.requestedCores = requestedCoresAgg_.build(strategy);
    const std::uint64_t misses = powerAgg_.rebuildCount() +
        utilAgg_.rebuildCount() + grantedCoresAgg_.rebuildCount() +
        requestedCoresAgg_.rebuildCount() - misses_before;
    stats_.templateRebuilds += misses;
    stats_.templateCacheHits += 4 - misses;
}

} // namespace core
} // namespace soc
