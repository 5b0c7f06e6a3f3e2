/**
 * @file
 * Physical server model: a set of cores grouped into allocations
 * (one group per VM at the cluster layer), each with a utilization,
 * a *target* frequency chosen by the software agents, and a *cap*
 * imposed by the rack's power-capping mechanism.  The effective
 * frequency of a group is min(target, cap).
 */

#ifndef SOC_POWER_SERVER_HH
#define SOC_POWER_SERVER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "power/frequency.hh"
#include "power/power_model.hh"

namespace soc
{
namespace power
{

/** Identifier of a core group (VM slot) within a server. */
using GroupId = int;

/**
 * A contiguous allocation of cores sharing frequency and utilization.
 */
struct CoreGroup {
    GroupId id = -1;
    int cores = 0;
    /** Per-core utilization in [0, 1]. */
    double util = 0.0;
    /** Frequency requested by the managing agent. */
    FreqMHz targetMHz = kTurboMHz;
    /** Frequency ceiling imposed by power capping. */
    FreqMHz capMHz = kOverclockMHz;
    /** Larger values are throttled last during capping (§II). */
    int priority = 0;

    /** Frequency the cores actually run at. */
    FreqMHz
    effectiveMHz() const
    {
        return std::min(targetMHz, capMHz);
    }

    /** @return true when the group currently runs beyond turbo. */
    bool
    overclocked() const
    {
        return FrequencyLadder::isOverclocked(effectiveMHz());
    }
};

/**
 * Server hardware model.  Owns its core groups; power is computed
 * from the shared PowerModel.  Thread-unsafe by design: each
 * simulation runs single-threaded over the event queue.
 */
class Server
{
  public:
    /**
     * @param id     Stable identifier within the cluster.
     * @param model  Shared hardware power model (not owned).
     * @param ladder Frequency ladder of this hardware generation.
     */
    Server(int id, const PowerModel *model,
           FrequencyLadder ladder = {});

    int id() const { return id_; }
    const PowerModel &model() const { return *model_; }
    const FrequencyLadder &ladder() const { return ladder_; }

    int totalCores() const { return model_->params().cores; }
    int usedCores() const;
    int freeCores() const { return totalCores() - usedCores(); }

    /**
     * Allocate a core group.
     *
     * @return the new group's id, or -1 if not enough free cores.
     */
    GroupId addGroup(int cores, double util,
                     FreqMHz target = kTurboMHz, int priority = 0);

    /** Remove a group; invalid ids are ignored. */
    void removeGroup(GroupId id);

    /** @return the group, or nullptr when absent. */
    CoreGroup *group(GroupId id);
    const CoreGroup *group(GroupId id) const;

    const std::vector<CoreGroup> &groups() const { return groups_; }

    /** Set a group's utilization (clamped to [0, 1]). */
    void setUtil(GroupId id, double util);

    /**
     * Batch utilization update by group *position* (not id), the
     * fleet-replay fast path.  @p count must equal groups().size().
     * utilsQ[i] is groups()[i]'s new utilization in uint16 fixed
     * point (sim/quant.hh), dequantized exactly once here — the only
     * place a stored window sample is widened back to double.
     * turboWatts[i] is its precomputed turbo-frequency power
     * contribution, cores * corePower(dequantUtil(utilsQ[i]),
     * kTurboMHz), as ServerTraceStream::generateQuantized emits it
     * beside each sample.  Groups whose effective frequency is turbo
     * (the common case) reuse the hint and cost zero corePower
     * evaluations here; overclocked or capped groups cost one.
     */
    void setUtilsAndTurboWatts(std::size_t count,
                               const std::uint16_t *utilsQ,
                               const float *turboWatts);

    /** Set a group's target frequency (clamped to the ladder). */
    void setTarget(GroupId id, FreqMHz f);

    /** Current server power draw. */
    Watts powerWatts() const;

    /**
     * Power the server would draw if every group ran at min(turbo,
     * effective frequency) — i.e. the draw with all overclocking
     * surcharge removed.  The sOA records this "regular power" for
     * its own look-ahead templates.
     */
    Watts regularPowerWatts() const;

    /**
     * Hypothetical power if the given group ran at @p f instead of
     * its effective frequency.  Used by admission control.
     */
    Watts powerWattsIf(GroupId id, FreqMHz f) const;

    /** Core-weighted average utilization (unallocated cores = 0). */
    double utilization() const;

    /** Number of cores currently running beyond turbo. */
    int overclockedCores() const;

    /**
     * Throttle one step for capping: lower the cap of the
     * lowest-priority group whose cap is above the ladder floor.
     *
     * @return true if any group was throttled.
     */
    bool throttleOneStep();

    /**
     * Release capping one step: raise the cap of the
     * highest-priority capped group.
     *
     * @return true if any cap was raised.
     */
    bool unthrottleOneStep();

    /** @return true when any group is capped below the ladder max. */
    bool capped() const;

    /** Remove all caps instantly. */
    void clearCaps();

    /**
     * Mean frequency degradation, relative to turbo, of the
     * non-overclock-target cores that are currently being throttled
     * below their target.  0 when no such core exists.  This is the
     * "penalty on power cap" metric of Table I.
     */
    double cappingPenalty() const;

    /** Cores of non-overclock groups currently throttled below
     *  their target (the cores cappingPenalty() averages over). */
    int cappedNonOverclockCores() const;

  private:
    /** Position of the group with @p id, or groups_.size(). */
    std::size_t groupIndex(GroupId id) const;

    /** Recompute groups_[pos]'s cached power contributions. */
    void refreshContrib(std::size_t pos);

    /** Write groups_[pos].capMHz, keeping cappedGroups_ exact. */
    void setCap(std::size_t pos, FreqMHz cap);

    /** Re-fold the cached sums from the per-group contributions,
     *  always in group order so results are deterministic and free
     *  of incremental-update drift. */
    void refreshSums();

    int id_;
    const PowerModel *model_;
    FrequencyLadder ladder_;
    GroupId nextGroup_ = 0;
    std::vector<CoreGroup> groups_;

    /**
     * Struct-of-arrays cache, parallel to groups_: each group's
     * power contribution at its effective frequency and at
     * min(effective, turbo), plus their folds and the core-weighted
     * utilization sum.  Every mutator routes through
     * refreshContrib/refreshSums, making powerWatts(),
     * regularPowerWatts() and utilization() O(1) reads — the hot
     * queries of the per-tick rack loop.
     */
    std::vector<double> powerContrib_;
    std::vector<double> regularContrib_;
    double powerSum_ = 0.0;
    double regularSum_ = 0.0;
    double utilWeighted_ = 0.0;

    /** Groups with capMHz below the ladder max, maintained at every
     *  cap mutation so the per-step "is anything capped?" checks of
     *  the rack manager are O(1) instead of a group scan. */
    int cappedGroups_ = 0;
};

} // namespace power
} // namespace soc

#endif // SOC_POWER_SERVER_HH
