#include "power/power_model.hh"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace soc
{
namespace power
{

PowerModel::PowerModel(const PowerModelParams &params)
    : params_(params)
{
    // Checked in every build: the per-core budget divides by the
    // core count and must be positive (a NaN fails the comparison).
    if (params_.cores <= 0)
        throw std::invalid_argument("PowerModel: cores must be > 0");
    if (!(params_.tdpWatts > params_.idleWatts))
        throw std::invalid_argument(
            "PowerModel: tdpWatts must exceed idleWatts");

    // Per-core budget at TDP (util = 1, turbo frequency).
    const Watts core_budget =
        (params_.tdpWatts - params_.idleWatts) /
        static_cast<double>(params_.cores);
    const Watts leak_budget = core_budget * params_.leakageFraction;
    const Watts dyn_budget = core_budget - leak_budget;

    const double v_turbo = params_.turboVolts;
    dynCoeff_ = dyn_budget.count() /
        (static_cast<double>(kTurboMHz.count()) * v_turbo * v_turbo);
    leakCoeff_ = leak_budget.count() / v_turbo;
}

double
PowerModel::voltage(FreqMHz f) const
{
    // The V/f-curve coefficients are genuinely mixed-unit (volts
    // per GHz / per MHz); frequency deltas drop to raw counts at
    // this audited boundary, hence the UNIT-003 waivers.
    if (f >= kTurboMHz) {
        // soclint:allow(UNIT-003)
        const double ghz_over =
            static_cast<double>((f - kTurboMHz).count()) / 1000.0;
        return params_.turboVolts +
            params_.overclockVoltsPerGHz * ghz_over;
    }
    // Linear between base and turbo; clamp at the base voltage for
    // deep-throttle frequencies.
    // soclint:allow(UNIT-003)
    const double slope = (params_.turboVolts - params_.baseVolts) /
        static_cast<double>((kTurboMHz - kBaseMHz).count());
    // soclint:allow(UNIT-003)
    const double v = params_.turboVolts +
        slope * static_cast<double>((f - kTurboMHz).count());
    return std::max(v, params_.baseVolts);
}

Watts
PowerModel::corePower(double util, FreqMHz f) const
{
    const double v = voltage(f);
    const double activity = params_.activityFloor +
        (1.0 - params_.activityFloor) * util;
    // dynCoeff_ carries the units (W per MHz per V^2), so the
    // frequency drops to a raw count inside the CMOS formula.
    // soclint:allow(UNIT-003)
    const double dynamic =
        dynCoeff_ * activity * static_cast<double>(f.count()) * v * v;
    const double leakage = leakCoeff_ * v;
    return Watts{dynamic + leakage};
}

Watts
PowerModel::serverPower(double util, FreqMHz f, int cores) const
{
    assert(cores >= 0 && cores <= params_.cores);
    return params_.idleWatts + cores * corePower(util, f);
}

Watts
PowerModel::serverPower(double util, FreqMHz f) const
{
    return serverPower(util, f, params_.cores);
}

Watts
PowerModel::overclockExtraPower(double util, FreqMHz f,
                                int cores) const
{
    if (f <= kTurboMHz)
        return Watts{0.0};
    return cores * (corePower(util, f) - corePower(util, kTurboMHz));
}

Celsius
PowerModel::temperature(double util, FreqMHz f) const
{
    // Relative activity compared to a fully utilized turbo core.
    const Watts ref = corePower(1.0, kTurboMHz);
    const double rel =
        ref > Watts{0.0} ? corePower(util, f) / ref : 0.0;
    return params_.ambientCelsius + params_.thermalRangeCelsius * rel;
}

FreqMHz
PowerModel::maxFrequencyWithin(double util, int activeCores,
                               Watts budget,
                               const FrequencyLadder &ladder) const
{
    FreqMHz best = ladder.minMHz;
    for (FreqMHz f = ladder.minMHz; f <= ladder.maxMHz;
         f += ladder.stepMHz) {
        if (serverPower(util, f, activeCores) <= budget)
            best = f;
        else
            break;
    }
    return best;
}

} // namespace power
} // namespace soc
