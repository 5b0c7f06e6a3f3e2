/**
 * @file
 * Struct-of-arrays replay state for one rack of the trace simulator.
 *
 * The per-object hot loop walked every VM of every server on every
 * control step: a TimeSeries::atTime division, a linear group lookup
 * and a full power-model evaluation per VM, with the per-server
 * state scattered across Server/CoreGroup objects.  FleetState
 * flattens the replay inputs into parallel arrays indexed by a
 * per-server [offset, offset+count) range:
 *
 *  - slot-major sample windows (all VMs' utilization and turbo-watts
 *    samples for one slot contiguous), filled window by window from
 *    the streaming trace generator;
 *  - per-server candidate bitmasks (VMs that ever request
 *    overclocking);
 *  - contiguous rows handed to Server::setUtilsAndTurboWatts, the
 *    batch update that reuses the generator's precomputed turbo
 *    watts instead of re-evaluating the power model.
 *
 * Utilization is slot-constant (5-minute telemetry), so applySlot()
 * runs once per closed slot, not once per control step, and also
 * publishes each server's *want* bitmask (candidate VMs whose
 * utilization crosses the overclock threshold).  The step loop then
 * touches only the set bits of want|active instead of every VM.
 *
 * Windows replaced the former whole-horizon transpose: the replay
 * opens a window (beginWindow), streams samples into the exposed
 * slot-major buffers, finalizes it (per-slot want masks), and
 * replays it to the end before opening the next one.  The buffers
 * are recycled across windows, so a rack's replay footprint is
 * O(VMs x window slots) regardless of the simulated horizon — what
 * lets the 7.1k-rack, 6-week study fit in memory (DESIGN.md §13).
 */

#ifndef SOC_CLUSTER_FLEET_STATE_HH
#define SOC_CLUSTER_FLEET_STATE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "power/rack.hh"

namespace soc
{
namespace cluster
{

/** SoA replay state for one rack; see the file comment. */
class FleetState
{
  public:
    /** VM bitmasks are 64-bit; servers host far fewer VMs. */
    static constexpr std::size_t kMaxVmsPerServer = 64;

    /**
     * @param ocUtilThreshold Utilization at/above which a candidate
     *        VM wants to overclock (TraceSimConfig::ocUtilThreshold).
     */
    explicit FleetState(double ocUtilThreshold);

    /**
     * Register one server's VM layout: @p vms VM columns whose
     * samples will arrive through the window buffers, and
     * @p candidate flagging which VMs ever request overclocking.
     * Servers must be added in rack order, before setHorizon().
     * Throws std::invalid_argument for more than kMaxVmsPerServer
     * VMs or a @p candidate that is not @p vms long.
     */
    void addServer(std::size_t vms,
                   const std::vector<bool> &candidate);

    std::size_t servers() const { return counts_.size(); }

    /** Flat VM count across all registered servers (the slot-major
     *  row width of the window buffers). */
    std::size_t totalVms() const { return offsets_.empty()
            ? 0
            : offsets_.back() + counts_.back(); }

    /** First flat VM index of @p server (its window column base). */
    std::size_t serverOffset(std::size_t server) const
    {
        return offsets_[server];
    }

    /** Fix the replay horizon in slots; must precede beginWindow. */
    void setHorizon(std::size_t slots);

    /** Number of telemetry slots the replay horizon covers. */
    std::size_t slots() const { return slots_; }

    /**
     * Open the window starting at @p firstSlot, covering up to
     * @p maxSlots slots (clamped to the horizon), and return the
     * number of slots actually covered.  Windows must be opened in
     * order, each starting where the previous ended (asserted); the
     * caller then fills utilWindow()/wattsWindow() — slot i of the
     * window at row i * totalVms() — and calls finalizeWindow().
     */
    std::size_t beginWindow(std::size_t firstSlot,
                            std::size_t maxSlots);

    /** Slot-major utilization buffer of the open window, in uint16
     *  fixed point (sim::quantizeUtil). */
    std::uint16_t *utilWindow() { return utilBySlot_.data(); }
    /** Slot-major turbo-watts buffer of the open window (float
     *  hints, computed from the dequantized utilization). */
    float *wattsWindow() { return wattsBySlot_.data(); }

    /** Compute the open window's per-slot want masks; applySlot may
     *  then replay any slot of the window. */
    void finalizeWindow();

    /** One past the last slot of the current window (0 before the
     *  first beginWindow). */
    std::size_t windowEnd() const
    {
        return windowBegin_ + windowSlots_;
    }

    /** Forget all window state: the next beginWindow must restart
     *  at slot 0 (a fresh replay pass over the same layout). */
    void resetWindows();

    /**
     * Push slot @p slot's utilizations (with turbo-power hints) into
     * every server of @p rack and rebuild the want masks.  Servers
     * are updated in rack order.  @p slot must lie inside the
     * current finalized window: the windows are streamed to cover
     * the full sim horizon, so an out-of-window slot is a caller bug
     * (asserted), mirroring the TimeSeries out-of-range policy.
     */
    void applySlot(power::Rack &rack, std::size_t slot);

    /** Candidate VMs of @p server above threshold at the last
     *  applied slot (bit v == VM v == core-group id v). */
    std::uint64_t wantMask(std::size_t server) const
    {
        return want_[server];
    }

  private:
    /** Smallest quantized utilization whose dequantized value
     *  reaches the overclock threshold (65536 when the threshold
     *  exceeds 1, so no sample ever wants): finalizeWindow's integer
     *  want compare is exactly the dequantize-then-compare it
     *  replaces. */
    std::uint32_t qThreshold_;
    std::size_t slots_ = 0;

    /** Per-server [offset, offset+count) range into the VM columns. */
    std::vector<std::size_t> offsets_;
    std::vector<std::size_t> counts_;
    /** Candidate VMs per server, as a bitmask. */
    std::vector<std::uint64_t> candidate_;
    /** Want mask per server at the last applied slot. */
    std::vector<std::uint64_t> want_;

    std::size_t windowBegin_ = 0;
    std::size_t windowSlots_ = 0;
    bool windowFinal_ = false;
    /** Slot-major sample windows: row `slot - windowBegin_` holds
     *  every VM's sample for that slot, in flat VM-index order.
     *  Compact columns — uint16 fixed-point utilization and float
     *  turbo-watts (sim/quant.hh) — so a resident fleet's windows
     *  cost 6 bytes per sample instead of 16.  Capacity is recycled
     *  across windows. */
    std::vector<std::uint16_t> utilBySlot_;
    std::vector<float> wattsBySlot_;
    /** Per-slot want masks of the window, servers-major per row. */
    std::vector<std::uint64_t> wantBySlot_;
};

} // namespace cluster
} // namespace soc

#endif // SOC_CLUSTER_FLEET_STATE_HH
