#include "power/server.hh"

#include <algorithm>
#include <cassert>

#include "sim/quant.hh"

namespace soc
{
namespace power
{

Server::Server(int id, const PowerModel *model, FrequencyLadder ladder)
    : id_(id), model_(model), ladder_(ladder)
{
    assert(model_ != nullptr);
}

int
Server::usedCores() const
{
    int used = 0;
    for (const auto &g : groups_)
        used += g.cores;
    return used;
}

std::size_t
Server::groupIndex(GroupId id) const
{
    // Ids are handed out sequentially, so in the common case (no
    // removals) a group sits at position == id; fall back to the
    // linear scan only when removals have shifted positions.
    const auto pos = static_cast<std::size_t>(id);
    if (id >= 0 && pos < groups_.size() && groups_[pos].id == id)
        return pos;
    for (std::size_t i = 0; i < groups_.size(); ++i)
        if (groups_[i].id == id)
            return i;
    return groups_.size();
}

void
Server::refreshContrib(std::size_t pos)
{
    const CoreGroup &g = groups_[pos];
    const FreqMHz eff = g.effectiveMHz();
    const Watts power = g.cores * model_->corePower(g.util, eff);
    powerContrib_[pos] = power.count();
    if (eff <= kTurboMHz) {
        regularContrib_[pos] = power.count();
    } else {
        regularContrib_[pos] =
            (g.cores * model_->corePower(g.util, kTurboMHz)).count();
    }
}

void
Server::refreshSums()
{
    double power = 0.0;
    double regular = 0.0;
    double weighted = 0.0;
    for (std::size_t i = 0; i < groups_.size(); ++i) {
        power += powerContrib_[i];
        regular += regularContrib_[i];
        weighted += groups_[i].cores * groups_[i].util;
    }
    powerSum_ = power;
    regularSum_ = regular;
    utilWeighted_ = weighted;
}

GroupId
Server::addGroup(int cores, double util, FreqMHz target, int priority)
{
    assert(cores > 0);
    if (cores > freeCores())
        return -1;
    CoreGroup g;
    g.id = nextGroup_++;
    g.cores = cores;
    g.util = std::clamp(util, 0.0, 1.0);
    g.targetMHz = ladder_.clamp(target);
    g.capMHz = ladder_.maxMHz;
    g.priority = priority;
    groups_.push_back(g);
    powerContrib_.push_back(0.0);
    regularContrib_.push_back(0.0);
    refreshContrib(groups_.size() - 1);
    refreshSums();
    return g.id;
}

void
Server::removeGroup(GroupId id)
{
    const std::size_t pos = groupIndex(id);
    if (pos >= groups_.size())
        return;
    const auto at = static_cast<std::ptrdiff_t>(pos);
    if (groups_[pos].capMHz < ladder_.maxMHz)
        --cappedGroups_;
    groups_.erase(groups_.begin() + at);
    powerContrib_.erase(powerContrib_.begin() + at);
    regularContrib_.erase(regularContrib_.begin() + at);
    refreshSums();
}

CoreGroup *
Server::group(GroupId id)
{
    const std::size_t pos = groupIndex(id);
    return pos < groups_.size() ? &groups_[pos] : nullptr;
}

const CoreGroup *
Server::group(GroupId id) const
{
    const std::size_t pos = groupIndex(id);
    return pos < groups_.size() ? &groups_[pos] : nullptr;
}

void
Server::setUtil(GroupId id, double util)
{
    const std::size_t pos = groupIndex(id);
    if (pos >= groups_.size())
        return;
    groups_[pos].util = std::clamp(util, 0.0, 1.0);
    refreshContrib(pos);
    refreshSums();
}

void
Server::setUtilsAndTurboWatts(std::size_t count,
                              const std::uint16_t *utilsQ,
                              const float *turboWatts)
{
    // A dequantized sample is already in [0, 1], so no clamp.
    assert(count == groups_.size());
    double power = 0.0;
    double regular = 0.0;
    double weighted = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        CoreGroup &g = groups_[i];
        g.util = sim::dequantUtil(utilsQ[i]);
        const double hint = static_cast<double>(turboWatts[i]);
        const FreqMHz eff = g.effectiveMHz();
        if (eff == kTurboMHz) {
            // The hint is exactly corePower(util, turbo) scaled by
            // the core count — the value refreshContrib would
            // compute — so the model is not consulted at all.
            powerContrib_[i] = hint;
            regularContrib_[i] = hint;
        } else if (eff > kTurboMHz) {
            powerContrib_[i] =
                (g.cores * model_->corePower(g.util, eff)).count();
            regularContrib_[i] = hint;
        } else {
            const Watts capped =
                g.cores * model_->corePower(g.util, eff);
            powerContrib_[i] = capped.count();
            regularContrib_[i] = capped.count();
        }
        power += powerContrib_[i];
        regular += regularContrib_[i];
        weighted += g.cores * g.util;
    }
    powerSum_ = power;
    regularSum_ = regular;
    utilWeighted_ = weighted;
}

void
Server::setTarget(GroupId id, FreqMHz f)
{
    const std::size_t pos = groupIndex(id);
    if (pos >= groups_.size())
        return;
    groups_[pos].targetMHz = ladder_.clamp(f);
    refreshContrib(pos);
    refreshSums();
}

Watts
Server::powerWatts() const
{
    return model_->params().idleWatts + Watts{powerSum_};
}

Watts
Server::regularPowerWatts() const
{
    return model_->params().idleWatts + Watts{regularSum_};
}

Watts
Server::powerWattsIf(GroupId id, FreqMHz f) const
{
    const std::size_t pos = groupIndex(id);
    if (pos >= groups_.size())
        return powerWatts();
    const CoreGroup &g = groups_[pos];
    const Watts swapped =
        g.cores * model_->corePower(g.util, ladder_.clamp(f));
    return model_->params().idleWatts +
        Watts{powerSum_ - powerContrib_[pos]} + swapped;
}

double
Server::utilization() const
{
    return utilWeighted_ / totalCores();
}

int
Server::overclockedCores() const
{
    int cores = 0;
    for (const auto &g : groups_)
        if (g.overclocked())
            cores += g.cores;
    return cores;
}

bool
Server::throttleOneStep()
{
    // Pick the lowest-priority group whose *effective* frequency can
    // still go down; ties broken towards the fastest group so the
    // overclocked ones lose their boost first.
    std::size_t victim = groups_.size();
    for (std::size_t i = 0; i < groups_.size(); ++i) {
        const CoreGroup &g = groups_[i];
        const FreqMHz eff = g.effectiveMHz();
        if (eff <= ladder_.minMHz)
            continue;
        if (victim == groups_.size() ||
            g.priority < groups_[victim].priority ||
            (g.priority == groups_[victim].priority &&
             eff > groups_[victim].effectiveMHz())) {
            victim = i;
        }
    }
    if (victim == groups_.size())
        return false;
    setCap(victim, ladder_.down(groups_[victim].effectiveMHz()));
    refreshContrib(victim);
    refreshSums();
    return true;
}

bool
Server::unthrottleOneStep()
{
    if (cappedGroups_ == 0)
        return false;
    std::size_t candidate = groups_.size();
    for (std::size_t i = 0; i < groups_.size(); ++i) {
        const CoreGroup &g = groups_[i];
        if (g.capMHz >= ladder_.maxMHz)
            continue;
        // Only useful to raise caps that actually bind.
        if (g.capMHz >= g.targetMHz)
            continue;
        if (candidate == groups_.size() ||
            g.priority > groups_[candidate].priority) {
            candidate = i;
        }
    }
    if (candidate == groups_.size()) {
        // Raise any remaining (non-binding) caps so state converges
        // back to uncapped.
        for (std::size_t i = 0; i < groups_.size(); ++i) {
            if (groups_[i].capMHz < ladder_.maxMHz) {
                setCap(i, ladder_.up(groups_[i].capMHz));
                refreshContrib(i);
                refreshSums();
                return true;
            }
        }
        return false;
    }
    setCap(candidate, ladder_.up(groups_[candidate].capMHz));
    refreshContrib(candidate);
    refreshSums();
    return true;
}

void
Server::setCap(std::size_t pos, FreqMHz cap)
{
    cappedGroups_ += (cap < ladder_.maxMHz ? 1 : 0) -
        (groups_[pos].capMHz < ladder_.maxMHz ? 1 : 0);
    groups_[pos].capMHz = cap;
}

bool
Server::capped() const
{
    return cappedGroups_ > 0;
}

void
Server::clearCaps()
{
    if (cappedGroups_ == 0)
        return; // every cap already at the ladder max
    for (std::size_t i = 0; i < groups_.size(); ++i) {
        groups_[i].capMHz = ladder_.maxMHz;
        refreshContrib(i);
    }
    cappedGroups_ = 0;
    refreshSums();
}

double
Server::cappingPenalty() const
{
    double penalty = 0.0;
    int affected = 0;
    for (const auto &g : groups_) {
        if (FrequencyLadder::isOverclocked(g.targetMHz))
            continue; // overclock seekers are not "penalized"
        const FreqMHz eff = g.effectiveMHz();
        const FreqMHz base = std::min(g.targetMHz, kTurboMHz);
        if (base > FreqMHz{0} && eff < base) {
            // Quantity / Quantity yields the dimensionless ratio.
            penalty += g.cores * ((base - eff) / base);
            affected += g.cores;
        }
    }
    return affected > 0 ? penalty / affected : 0.0;
}

int
Server::cappedNonOverclockCores() const
{
    int affected = 0;
    for (const auto &g : groups_) {
        if (FrequencyLadder::isOverclocked(g.targetMHz))
            continue;
        const FreqMHz base = std::min(g.targetMHz, kTurboMHz);
        if (base > FreqMHz{0} && g.effectiveMHz() < base)
            affected += g.cores;
    }
    return affected;
}

} // namespace power
} // namespace soc
