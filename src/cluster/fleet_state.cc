#include "cluster/fleet_state.hh"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "power/server.hh"
#include "sim/quant.hh"

namespace soc
{
namespace cluster
{

namespace
{

/** Smallest q with dequantUtil(q) >= threshold (65536 when no
 *  uint16 reaches it), so `q >= qThreshold` is exactly
 *  `dequantUtil(q) >= threshold`. */
std::uint32_t
quantThreshold(double threshold)
{
    if (!(threshold > 0.0))
        return 0; // every sample wants (or threshold is NaN: none
                  // would pass a double compare either — but a NaN
                  // threshold is rejected by config validation)
    if (threshold > 1.0)
        return static_cast<std::uint32_t>(sim::kUtilQuantMax) + 1;
    std::uint32_t q = static_cast<std::uint32_t>(
        std::ceil(threshold * 65535.0));
    // ceil() in FP can land one step off the exact boundary; nudge
    // with the real dequantization expression.
    while (q > 0 &&
           sim::dequantUtil(static_cast<std::uint16_t>(q - 1)) >=
               threshold)
        --q;
    while (q <= sim::kUtilQuantMax &&
           sim::dequantUtil(static_cast<std::uint16_t>(q)) <
               threshold)
        ++q;
    return q;
}

} // namespace

FleetState::FleetState(double ocUtilThreshold)
    : qThreshold_(quantThreshold(ocUtilThreshold))
{
}

void
FleetState::addServer(std::size_t vms,
                      const std::vector<bool> &candidate)
{
    // Checked in every build: a VM past bit 63 would alias another
    // VM's want/active bit instead of failing.
    if (vms > kMaxVmsPerServer) {
        throw std::invalid_argument(
            "FleetState: " + std::to_string(vms) +
            " VMs on one server exceed the 64-bit VM masks");
    }
    if (candidate.size() != vms) {
        throw std::invalid_argument(
            "FleetState: one candidate flag per VM required");
    }
    assert(windowSlots_ == 0 &&
           "FleetState: addServer after beginWindow");

    offsets_.push_back(totalVms());
    counts_.push_back(vms);

    std::uint64_t mask = 0;
    for (std::size_t v = 0; v < vms; ++v)
        if (candidate[v])
            mask |= std::uint64_t{1} << v;
    candidate_.push_back(mask);
    want_.push_back(0);
}

void
FleetState::setHorizon(std::size_t slots)
{
    assert(slots > 0);
    slots_ = slots;
}

std::size_t
FleetState::beginWindow(std::size_t firstSlot, std::size_t maxSlots)
{
    assert(slots_ > 0 && "FleetState: setHorizon before windows");
    assert(maxSlots > 0);
    assert(firstSlot == windowEnd() &&
           "FleetState: windows must be streamed in order");
    assert(firstSlot < slots_);

    windowBegin_ = firstSlot;
    windowSlots_ = std::min(maxSlots, slots_ - firstSlot);
    windowFinal_ = false;
    const std::size_t total = totalVms();
    utilBySlot_.resize(windowSlots_ * total);
    wattsBySlot_.resize(windowSlots_ * total);
    wantBySlot_.resize(windowSlots_ * counts_.size());
    return windowSlots_;
}

void
FleetState::finalizeWindow()
{
    assert(windowSlots_ > 0);
    const std::size_t total = totalVms();
    const std::size_t servers = counts_.size();
    for (std::size_t slot = 0; slot < windowSlots_; ++slot) {
        const std::uint16_t *urow = utilBySlot_.data() + slot * total;
        for (std::size_t s = 0; s < servers; ++s) {
            const std::size_t base = offsets_[s];
            std::uint64_t above = 0;
            for (std::size_t v = 0; v < counts_[s]; ++v)
                if (urow[base + v] >= qThreshold_)
                    above |= std::uint64_t{1} << v;
            wantBySlot_[slot * servers + s] = above & candidate_[s];
        }
    }
    windowFinal_ = true;
}

void
FleetState::resetWindows()
{
    windowBegin_ = 0;
    windowSlots_ = 0;
    windowFinal_ = false;
}

void
FleetState::applySlot(power::Rack &rack, std::size_t slot)
{
    // Same out-of-range stance as TimeSeries::atTime: the windows
    // are streamed to span the whole horizon by construction, so
    // replaying outside the current one is a bug, caught loudly here
    // rather than replaying stale samples.
    assert(windowFinal_ && "FleetState: applySlot before finalize");
    assert(slot >= windowBegin_ && slot < windowEnd() &&
           "FleetState: slot outside the streamed window");
    const std::size_t row = slot - windowBegin_;
    const std::size_t total = totalVms();
    const std::size_t servers = counts_.size();
    // soclint:hot-begin(PERF-001) — once per closed telemetry slot,
    // the replay inner loop's data feed: no per-call allocation.
    const std::uint16_t *urow = utilBySlot_.data() + row * total;
    const float *wrow = wattsBySlot_.data() + row * total;
    const std::uint64_t *wants = wantBySlot_.data() + row * servers;
    for (std::size_t s = 0; s < servers; ++s) {
        want_[s] = wants[s];
        rack.server(s).setUtilsAndTurboWatts(
            counts_[s], urow + offsets_[s], wrow + offsets_[s]);
    }
    // soclint:hot-end(PERF-001)
}

} // namespace cluster
} // namespace soc
