/**
 * @file
 * Service utilization archetypes.
 *
 * The paper's characterization (Figs. 1, 6, 9) rests on production
 * services with distinct, repeatable load shapes: a morning-peak
 * service (Service A), top/bottom-of-hour spiky services (B and C),
 * business-hours services, constant-high ML training, and nearly
 * idle VMs.  The archetypes below generate those shapes
 * deterministically as a function of time-of-day/day-of-week, with
 * configurable stochastic perturbations layered on by the
 * TraceGenerator.
 */

#ifndef SOC_WORKLOAD_ARCHETYPE_HH
#define SOC_WORKLOAD_ARCHETYPE_HH

#include <cstddef>
#include <string>

#include "sim/time.hh"

namespace soc
{
namespace workload
{

/** Load-shape families observed in the paper's production traces. */
enum class ShapeKind {
    MorningPeak,  ///< Service A: ramp from 8am, peak 10am-noon.
    TopOfHour,    ///< Services B/C: 5-min spikes at :00 and :30.
    BusinessHours,///< Elevated 9am-5pm plateau.
    Diurnal,      ///< Smooth day/night cosine, midday peak.
    ConstantHigh, ///< Throughput ML training: flat and hot.
    NightBatch,   ///< Batch work peaking around 2am.
    LowIdle,      ///< Mostly idle long-lived VM.
};

/** Printable name for tables and traces. */
std::string shapeName(ShapeKind kind);

/**
 * Deterministic base shape in [0, 1] for @p kind at time @p t.
 * 0 maps to the archetype's valley, 1 to its peak.
 */
double shapeValue(ShapeKind kind, sim::Tick t);

/**
 * An archetype: a shape plus the scaling that turns it into CPU
 * utilization.
 */
struct Archetype {
    ShapeKind kind = ShapeKind::Diurnal;
    /** Utilization at the shape's valley. */
    double baseUtil = 0.15;
    /** Utilization at the shape's peak. */
    double peakUtil = 0.75;
    /** Weekend peak amplitude relative to weekdays. */
    double weekendFactor = 0.35;
    /** Std-dev of per-slot multiplicative noise. */
    double noiseSigma = 0.03;
    /** Phase shift applied to the shape (models time zones). */
    sim::Tick phaseShift = 0;

    /**
     * Deterministic utilization (no noise) at time @p t.
     * Clamped to [0, 1].
     */
    double utilAt(sim::Tick t) const;

    /**
     * Batch form of utilAt: out[k] = utilAt(start + k * interval)
     * for k in [0, n), bit-identical to the scalar calls (pinned by
     * test).  Samples whose shifted tick is a non-negative whole
     * minute read the shape from a per-kind minute-of-day table
     * filled once per process by the same kernels; the others
     * evaluate the kernel as utilAt does.
     */
    void utilFill(sim::Tick start, sim::Tick interval, std::size_t n,
                  double *out) const;
};

/** The three services of Fig. 1, as archetypes. */
Archetype serviceA();
Archetype serviceB();
Archetype serviceC();

/** Constant-high ML-training archetype (§V-A's MLTrain servers). */
Archetype mlTraining();

} // namespace workload
} // namespace soc

#endif // SOC_WORKLOAD_ARCHETYPE_HH
