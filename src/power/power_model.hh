/**
 * @file
 * Analytical CPU power, voltage and temperature model.
 *
 * The large-scale evaluation in the paper uses exactly this kind of
 * model: "Models are used to estimate the power impact of
 * overclocking; CPU utilization and core frequency are the input.
 * We validate the model for each server generation." (§V-B).
 *
 * Structure:
 *   - V(f): piecewise-linear voltage/frequency curve, steeper beyond
 *     max turbo (overclocking pushes the upper end of the V/f curve).
 *   - Core dynamic power: c_dyn * util * f * V^2 (classic CMOS).
 *   - Core leakage: grows linearly with voltage.
 *   - Server power: idle + sum over cores.
 *   - T(util, f): linear in the core's relative dynamic power — feeds
 *     the lifetime model's thermal acceleration.
 *
 * Default calibration: a 64-core server idles at 120 W and reaches
 * its 420 W TDP at 100% utilization at max turbo.
 *
 * All power values are the unit-safe power::Watts strong type; raw
 * doubles never cross this interface.
 */

#ifndef SOC_POWER_POWER_MODEL_HH
#define SOC_POWER_POWER_MODEL_HH

#include "power/frequency.hh"
#include "power/units.hh"

namespace soc
{
namespace power
{

/** Tunable parameters; defaults model the paper's AMD 64-core SKU. */
struct PowerModelParams {
    int cores = 64;
    Watts idleWatts{120.0};
    Watts tdpWatts{420.0};

    /** Voltage at the base frequency. */
    double baseVolts = 0.95;
    /** Voltage at max turbo. */
    double turboVolts = 1.10;
    /** Extra volts per GHz beyond turbo (steep end of the curve). */
    double overclockVoltsPerGHz = 0.50;

    /** Fraction of the per-core budget that is leakage at turbo. */
    double leakageFraction = 0.15;

    /**
     * Fraction of a core's dynamic power drawn even when the core
     * is allocated but idle.  Servers are not energy-proportional
     * (clock trees, uncore activity): two half-utilized VMs draw
     * more than one fully utilized VM.  This is what makes
     * scale-out cost energy relative to overclocking (Fig. 14).
     */
    double activityFloor = 0.25;

    /** Ambient-equivalent die temperature at idle. */
    Celsius ambientCelsius{45.0};
    /** Temperature rise from idle to TDP-level activity. */
    Celsius thermalRangeCelsius{35.0};
};

/**
 * Immutable power model; one instance is shared by every server of a
 * hardware generation.  The constructor throws std::invalid_argument
 * in every build unless cores > 0 and tdpWatts > idleWatts (NaN
 * included).
 */
class PowerModel
{
  public:
    explicit PowerModel(const PowerModelParams &params = {});

    const PowerModelParams &params() const { return params_; }

    /** Supply voltage for a core running at @p f. */
    double voltage(FreqMHz f) const;

    /**
     * Power of one core.
     *
     * @param util Core utilization in [0, 1].
     * @param f    Core frequency.
     */
    Watts corePower(double util, FreqMHz f) const;

    /**
     * Whole-server power: idle + per-core power where all @p cores
     * share the same utilization and frequency.
     */
    Watts serverPower(double util, FreqMHz f, int cores) const;

    /** serverPower() with the model's full core count. */
    Watts serverPower(double util, FreqMHz f) const;

    /**
     * Additional watts drawn by overclocking @p cores cores from
     * turbo to @p f at utilization @p util.  This is the quantity
     * the sOA reserves during admission control.
     */
    Watts overclockExtraPower(double util, FreqMHz f, int cores) const;

    /**
     * Estimated die temperature of a core (feeds the aging model).
     */
    Celsius temperature(double util, FreqMHz f) const;

    /**
     * Largest ladder frequency such that a server at utilization
     * @p util with @p activeCores stays within @p budget.
     * Returns the ladder floor when even that exceeds the budget.
     */
    FreqMHz maxFrequencyWithin(double util, int activeCores,
                               Watts budget,
                               const FrequencyLadder &ladder) const;

  private:
    PowerModelParams params_;
    /** Dynamic-power coefficient calibrated so that serverPower
     *  (1.0, turbo) == TDP. */
    double dynCoeff_;
    /** Leakage coefficient (watts per volt per core). */
    double leakCoeff_;
};

} // namespace power
} // namespace soc

#endif // SOC_POWER_POWER_MODEL_HH
