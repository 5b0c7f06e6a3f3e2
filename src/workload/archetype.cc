#include "workload/archetype.hh"

#include <algorithm>
#include <cmath>

namespace soc
{
namespace workload
{

namespace
{

constexpr double kPi = 3.14159265358979323846;

/** Smooth bump centered at @p center hours, half-width @p width. */
double
bump(double hour, double center, double width)
{
    const double dist = std::abs(hour - center);
    if (dist >= width)
        return 0.0;
    return 0.5 * (1.0 + std::cos(kPi * dist / width));
}

/*
 * Per-kind shape kernels, the only definition of the shapes:
 * shapeValue dispatches to them per call, and the minute-of-day
 * table behind Archetype::utilFill is filled from them.
 */

double
shapeMorningPeak(double hour)
{
    // Ramp from 8am, flat top 10am-noon, decay into afternoon.
    if (hour >= 10.0 && hour <= 12.0)
        return 1.0;
    return std::max(bump(hour, 11.0, 3.5),
                    0.15 * bump(hour, 15.0, 4.0));
}

double
shapeTopOfHour(double hour)
{
    const double minute = (hour - std::floor(hour)) * 60.0;
    const bool spike = minute < 5.0 ||
        (minute >= 30.0 && minute < 35.0);
    // Spikes ride on a business-hours plateau.
    const double plateau = 0.35 * bump(hour, 13.0, 7.0);
    return spike ? std::min(1.0, plateau + 0.65) : plateau;
}

double
shapeBusinessHours(double hour)
{
    if (hour >= 9.0 && hour <= 17.0)
        return 0.85 + 0.15 * bump(hour, 13.0, 4.0);
    return bump(hour, 13.0, 6.5) * 0.5;
}

double
shapeDiurnal(double hour)
{
    return bump(hour, 13.5, 9.0);
}

double
shapeConstantHigh(double)
{
    return 1.0;
}

double
shapeNightBatch(double hour)
{
    return std::max(bump(hour, 2.0, 4.0), bump(hour, 23.5, 2.0));
}

double
shapeLowIdle(double hour)
{
    return 0.2 * bump(hour, 12.0, 8.0);
}

} // namespace

std::string
shapeName(ShapeKind kind)
{
    switch (kind) {
      case ShapeKind::MorningPeak: return "morning-peak";
      case ShapeKind::TopOfHour: return "top-of-hour";
      case ShapeKind::BusinessHours: return "business-hours";
      case ShapeKind::Diurnal: return "diurnal";
      case ShapeKind::ConstantHigh: return "constant-high";
      case ShapeKind::NightBatch: return "night-batch";
      case ShapeKind::LowIdle: return "low-idle";
    }
    return "unknown";
}

double
shapeValue(ShapeKind kind, sim::Tick t)
{
    const double hour = sim::hourOfDay(t);
    switch (kind) {
      case ShapeKind::MorningPeak: return shapeMorningPeak(hour);
      case ShapeKind::TopOfHour: return shapeTopOfHour(hour);
      case ShapeKind::BusinessHours: return shapeBusinessHours(hour);
      case ShapeKind::Diurnal: return shapeDiurnal(hour);
      case ShapeKind::ConstantHigh: return shapeConstantHigh(hour);
      case ShapeKind::NightBatch: return shapeNightBatch(hour);
      case ShapeKind::LowIdle: return shapeLowIdle(hour);
    }
    return 0.0;
}

namespace
{

constexpr int kShapeKinds = static_cast<int>(ShapeKind::LowIdle) + 1;
constexpr int kMinutesPerDay =
    static_cast<int>(sim::kDay / sim::kMinute);

/**
 * Every kind's shape at every minute of the day (7 x 1,440 doubles,
 * 79 KB), evaluated once per process by the kernels themselves.
 */
struct ShapeTable {
    double row[kShapeKinds][kMinutesPerDay];

    ShapeTable()
    {
        for (int kind = 0; kind < kShapeKinds; ++kind)
            for (int m = 0; m < kMinutesPerDay; ++m)
                row[kind][m] = shapeValue(
                    static_cast<ShapeKind>(kind), m * sim::kMinute);
    }
};

const ShapeTable &
shapeTable()
{
    static const ShapeTable table;
    return table;
}

} // namespace

double
Archetype::utilAt(sim::Tick t) const
{
    const sim::Tick shifted = t + phaseShift;
    double amplitude = peakUtil - baseUtil;
    if (sim::isWeekend(shifted) && kind != ShapeKind::ConstantHigh)
        amplitude *= weekendFactor;
    const double util =
        baseUtil + amplitude * shapeValue(kind, shifted);
    return std::clamp(util, 0.0, 1.0);
}

// Cache-line aligned so that the table loop's placement does not
// depend on the code linked before it: a 32-byte shift of the
// function made bench_trace_sim's shape fill read 5.7-9.5x its
// kernel loop instead of 9-12x, on the same code.
[[gnu::aligned(64)]] void
Archetype::utilFill(sim::Tick start, sim::Tick interval,
                    std::size_t n, double *out) const
{
    // Shifted ticks before 0 or off the minute grid have no table
    // entry and take the kernel through utilAt.  Whole-minute steps
    // from a whole-minute tick stay on the grid, so only a prefix of
    // negative ticks can be left over.
    const sim::Tick first = start + phaseShift;
    std::size_t k = n;
    if (interval > 0 && first % sim::kMinute == 0 &&
        interval % sim::kMinute == 0) {
        k = first >= 0
            ? 0
            : std::min(n, static_cast<std::size_t>(
                              (interval - 1 - first) / interval));
    }
    for (std::size_t j = 0; j < k; ++j)
        out[j] = utilAt(start + static_cast<sim::Tick>(j) * interval);

    if (k == n)
        return;
    // The table row holds the kernel at hourOfDay(m * kMinute), and
    // a non-negative whole-minute tick's hourOfDay is exactly that
    // argument, so each read equals the kernel bit for bit.  The
    // minute of day and the day advance by whole steps, so no sample
    // divides; the weekend amplitude changes only with the day.
    const double *row = shapeTable().row[static_cast<int>(kind)];
    const sim::Tick step = interval / sim::kMinute;
    const sim::Tick shifted =
        first + static_cast<sim::Tick>(k) * interval;
    sim::Tick minute = sim::timeOfDay(shifted) / sim::kMinute;
    sim::Tick day = shifted / sim::kDay;
    const double full_amplitude = peakUtil - baseUtil;
    const double weekend_amplitude = full_amplitude * weekendFactor;
    const auto amplitudeOn = [&](sim::Tick d) {
        return kind != ShapeKind::ConstantHigh && d % 7 >= 5
            ? weekend_amplitude
            : full_amplitude;
    };
    double amplitude = amplitudeOn(day);
    for (; k < n; ++k) {
        const double util = baseUtil + amplitude * row[minute];
        out[k] = std::clamp(util, 0.0, 1.0);
        minute += step;
        if (minute >= kMinutesPerDay) {
            day += minute / kMinutesPerDay;
            minute %= kMinutesPerDay;
            amplitude = amplitudeOn(day);
        }
    }
}

Archetype
serviceA()
{
    Archetype a;
    a.kind = ShapeKind::MorningPeak;
    a.baseUtil = 0.18;
    a.peakUtil = 0.88;
    a.noiseSigma = 0.025;
    return a;
}

Archetype
serviceB()
{
    Archetype a;
    a.kind = ShapeKind::TopOfHour;
    a.baseUtil = 0.12;
    a.peakUtil = 0.92;
    a.noiseSigma = 0.035;
    return a;
}

Archetype
serviceC()
{
    Archetype a;
    a.kind = ShapeKind::TopOfHour;
    a.baseUtil = 0.10;
    a.peakUtil = 0.80;
    a.noiseSigma = 0.030;
    a.phaseShift = 7 * sim::kMinute; // staggered spike alignment
    return a;
}

Archetype
mlTraining()
{
    Archetype a;
    a.kind = ShapeKind::ConstantHigh;
    a.baseUtil = 0.82;
    a.peakUtil = 0.92;
    a.weekendFactor = 1.0;
    a.noiseSigma = 0.02;
    return a;
}

} // namespace workload
} // namespace soc
