/**
 * @file
 * Component-lifetime management (§II, §III-Q2, §IV-B, Fig. 7).
 *
 * Three pieces:
 *
 *  - LifetimeModel: substitutes for the TSMC 7nm composite
 *    reliability model.  Aging rate is exponential in voltage and
 *    temperature (gate-oxide breakdown, refs [27],[92],[95]) and
 *    proportional to activity.  Rate 1.0 == the vendor's rated
 *    wall-clock aging at 100% utilization at max turbo; the fleet's
 *    under-utilization accrues "lifetime credits" that overclocking
 *    consumes.  Calibration anchors (§III-Q2 / Fig. 7) are recorded
 *    in DESIGN.md.
 *
 *  - OverclockBudget: the epoch-divided overclocking time budget
 *    (e.g. 10% of a 5-year horizon, split into weekly epochs with
 *    per-weekday allowances and carry-over of unused budget).
 *
 *  - WearJournal: the crash-safe record of consumed budget.  With
 *    the sOA's per-core epoch usage it stands in for the Intel PMT /
 *    AMD HSMP time-in-state counters.
 */

#ifndef SOC_CORE_LIFETIME_HH
#define SOC_CORE_LIFETIME_HH

#include <cstdint>
#include <span>
#include <vector>

#include "power/power_model.hh"
#include "sim/time.hh"

namespace soc
{
namespace core
{

/** Calibration constants of the wear-out model. */
struct LifetimeParams {
    /** Voltage acceleration (1/V) of gate-oxide wear-out.
     *  Calibrated so the Fig. 7 anchors hold: always-overclocking a
     *  diurnal workload ages >2x wall clock, and the overclock-aware
     *  duty that meets the rated budget lands near 25%. */
    double betaVolts = 5.5;
    /** Thermal acceleration (1/degC). */
    double betaTemp = 0.02;
    /** Aging of an idle-but-powered core relative to a busy one. */
    double utilFloor = 0.10;
};

/**
 * Voltage/temperature/activity wear-out model.
 */
class LifetimeModel
{
  public:
    /**
     * @param power Hardware power model supplying V(f) and T(u, f).
     * @param params Acceleration constants.
     */
    explicit LifetimeModel(const power::PowerModel &power,
                           LifetimeParams params = {});

    const LifetimeParams &params() const { return params_; }

    /**
     * Instantaneous aging rate; 1.0 means one second of wall time
     * ages the part by one rated second.
     *
     * @param util Core utilization in [0, 1].
     * @param f    Core frequency.
     */
    double agingRate(double util, power::FreqMHz f) const;

    /**
     * Aging accumulated over @p span at constant (util, f),
     * expressed in rated time (same unit as @p span).
     */
    double agingOver(sim::Tick span, double util,
                     power::FreqMHz f) const;

    /**
     * Largest overclocking duty cycle d such that
     * d*rate(util, f_oc) + (1-d)*rate(util, turbo) <= budget_rate.
     * This is the "Overclock-aware" policy of Fig. 7.
     *
     * @return duty in [0, 1].
     */
    double maxOverclockDuty(double util, power::FreqMHz f_oc,
                            double budget_rate) const;

  private:
    const power::PowerModel &power_;
    LifetimeParams params_;
    double refVolts_;
    power::Celsius refTempC_;
};

/**
 * Epoch-divided overclocking time budget (core-time accounting).
 *
 * The total allowance is `fraction` of each epoch times the managed
 * core count; unused budget carries over to the next epoch up to
 * `carryoverCap` extra epochs' worth (§IV-B: weekend budget flows to
 * weekdays via week-long epochs, and unused budgets carry to the
 * next epoch).
 */
class OverclockBudget
{
  public:
    /**
     * @param epoch     Epoch length (the paper uses one week).
     * @param fraction  Fraction of time each core may overclock.
     * @param cores     Number of cores covered by this budget.
     * @param carryover_cap Max carried-over budget, in epochs.
     * @throws std::invalid_argument unless epoch > 0, fraction is
     *         in [0, 1] and cores > 0.
     */
    OverclockBudget(sim::Tick epoch, double fraction, int cores,
                    double carryover_cap = 1.0);

    sim::Tick epoch() const { return epoch_; }
    double fraction() const { return fraction_; }

    /** Core-time allowance granted per epoch. */
    sim::Tick allowancePerEpoch() const { return allowance_; }

    /** Remaining core-time in the epoch containing @p now. */
    sim::Tick remaining(sim::Tick now);

    /**
     * Consume @p core_time of budget (cores x wall time).  Clamps
     * at zero; over-consumption indicates an enforcement bug and is
     * reported by overdraft().
     */
    void consume(sim::Tick core_time, sim::Tick now);

    /**
     * Try to reserve @p core_time ahead of time (schedule-based
     * admission).  Reservations reduce remaining() but can be
     * released if unused.
     */
    bool tryReserve(sim::Tick core_time, sim::Tick now);

    /** Return unused reserved core-time to the budget. */
    void release(sim::Tick core_time, sim::Tick now);

    /** Reserved-but-unconsumed core-time in the current epoch. */
    sim::Tick reserved(sim::Tick now);

    /**
     * Predicted time until exhaustion at @p burn_rate cores
     * overclocking continuously; returns a very large value when
     * the budget outlives the epoch at that rate.
     */
    sim::Tick timeToExhaustion(sim::Tick now, double burn_rate);

    /** Core-time consumed beyond the allowance (should stay 0). */
    sim::Tick overdraft() const { return overdraft_; }

    /** Total core-time consumed over all epochs. */
    sim::Tick totalConsumed() const { return totalConsumed_; }

  private:
    /** Roll into the epoch containing @p now, applying carry-over. */
    void rollTo(sim::Tick now);

    sim::Tick epoch_;
    double fraction_;
    sim::Tick allowance_;
    sim::Tick carryCap_;

    std::int64_t currentEpoch_ = 0;
    sim::Tick available_ = 0;
    sim::Tick reserved_ = 0;
    sim::Tick overdraft_ = 0;
    sim::Tick totalConsumed_ = 0;
};

/**
 * Crash-safe wear journal: the durable record of consumed
 * overclocking budget.  The sOA writes an entry behind every wear
 * charge — the simulated analogue of an append log on NVRAM/flash
 * that survives an agent crash.  After a crash-restart the agent
 * replays the journal to reconstruct its OverclockBudget and its
 * per-core epoch usage; everything not journaled (exploration
 * state, in-flight grants, budget leases) is lost by design.
 *
 * The journal is stored compacted — per-epoch consumption totals
 * plus the per-core breakdown of the latest epoch — which is exactly
 * the information replay needs (carry-over depends only on per-epoch
 * totals), so it stays O(epochs + cores) regardless of run length.
 */
class WearJournal
{
  public:
    /**
     * @param cores     Cores covered (width of the per-core record).
     * @param epoch_len Epoch length of the budget being journaled.
     * @throws std::invalid_argument unless 0 < cores <= 65,536
     *         (core indices are 16-bit) and epoch_len > 0.
     */
    WearJournal(int cores, sim::Tick epoch_len);

    /** Record each of @p cores consuming @p core_time of wear at
     *  @p at, as one entry.  Appends must be in non-decreasing time
     *  order. */
    void append(std::span<const std::uint16_t> cores,
                sim::Tick core_time, sim::Tick at);

    /** Record @p core consuming @p core_time of wear at @p at. */
    void append(int core, sim::Tick core_time, sim::Tick at);

    /** Number of entries recorded (tests/diagnostics). */
    std::uint64_t appends() const { return appends_; }

    /** Total journaled core-time over all epochs. */
    sim::Tick totalCoreTime() const;

    /**
     * Crash recovery: replay the journal into a freshly constructed
     * budget and a zeroed per-core usage array, reproducing the
     * carry-over trajectory the live budget followed.  @p core_used
     * receives the usage of the epoch containing @p now (zeros when
     * the journal's last activity is from an older epoch).
     */
    void replay(OverclockBudget &budget,
                std::vector<sim::Tick> &core_used,
                sim::Tick now) const;

  private:
    struct EpochRecord {
        std::int64_t epoch = 0;
        sim::Tick coreTime = 0;
    };

    sim::Tick epochLen_;
    std::vector<EpochRecord> epochs_;
    std::vector<sim::Tick> coreUsedLatest_;
    std::int64_t latestEpoch_ = 0;
    std::uint64_t appends_ = 0;
};

} // namespace core
} // namespace soc

#endif // SOC_CORE_LIFETIME_HH
