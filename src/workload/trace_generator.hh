/**
 * @file
 * Synthetic production-trace generator.
 *
 * Substitutes for the paper's 6 weeks of 5-minute telemetry from
 * 7.1k dedicated racks (§III).  The generator reproduces the
 * structural properties those analyses rely on:
 *
 *  - long-lived VMs with archetype-driven, week-over-week repeatable
 *    utilization (power predictability, Fig. 8);
 *  - heterogeneous VM mixes per server, so servers in a rack have
 *    diverse power profiles (Fig. 9) while the rack total is smooth
 *    (statistical multiplexing, Fig. 6);
 *  - day-to-day amplitude wobble plus rare outlier days (holidays)
 *    that stress template robustness (§IV-B).
 *
 * The same traces come two ways: materialized in double precision
 * (serverTrace, utilSeries) for the figure benches and as the tests'
 * reference, and streamed window by window in quantized columns
 * (serverTraceStream) for the replay.
 */

#ifndef SOC_WORKLOAD_TRACE_GENERATOR_HH
#define SOC_WORKLOAD_TRACE_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "power/power_model.hh"
#include "sim/rng.hh"
#include "sim/time.hh"
#include "telemetry/time_series.hh"
#include "workload/archetype.hh"

namespace soc
{
namespace workload
{

/** One VM of a server's mix. */
struct VmMix {
    Archetype archetype;
    int cores = 4;
};

/** Generated telemetry for one server. */
struct ServerTrace {
    std::vector<VmMix> mix;
    /** Per-VM utilization series. */
    std::vector<telemetry::TimeSeries> vmUtil;
    /** Core-weighted server utilization (all cores). */
    telemetry::TimeSeries serverUtil;
    /** Server power at max turbo given serverUtil. */
    telemetry::TimeSeries powerWatts;
};

/** Knobs controlling trace realism. */
struct TraceConfig {
    sim::Tick start = 0;
    sim::Tick end = 6 * sim::kWeek;
    sim::Tick interval = sim::kSlot;
    /** Std-dev of the per-day amplitude factor (day-to-day wobble). */
    double dailyAmplitudeSigma = 0.04;
    /** Probability that a day is an outlier (e.g. holiday). */
    double outlierDayProb = 0.01;
    /** Amplitude multiplier on outlier days. */
    double outlierScale = 0.45;
    /** Probability that a day surges above its usual amplitude
     *  (e.g. a viral event) - the underprediction case that stresses
     *  prediction-based admission. */
    double surgeDayProb = 0.01;
    /** Amplitude multiplier on surge days. */
    double surgeScale = 1.30;
};

/**
 * Resumable generator state for one VM's utilization series.
 *
 * Holds a private split of the parent generator's stream plus the
 * per-day amplitude state, so the series can be produced window by
 * window: concatenating generate() calls of any sizes yields exactly
 * the samples TraceGenerator::utilSeries materializes in one shot
 * (bit-identical — same Rng copy, same draw order, including the
 * polar method's cached spare normal carried across windows).
 */
class VmUtilCursor
{
  public:
    /** Batch-fill scratch size: one day of 5-minute slots, so a
     *  same-day segment is almost always a single batch. */
    static constexpr std::size_t kBatch = sim::kSlotsPerDay;

    /** Throws std::invalid_argument on a config TraceGenerator
     *  would reject. */
    VmUtilCursor(sim::Rng rng, const Archetype &archetype,
                 const TraceConfig &cfg);

    /**
     * Produce the next @p n samples of the series into
     * out[0..n).  Throws std::out_of_range, before drawing
     * anything, when @p n exceeds remaining().
     */
    void generate(std::size_t n, double *out);

    /** Samples left before cfg.end. */
    std::size_t remaining() const;

    /** Rewind to the first sample (replays the same series). */
    void reset();

    /** Samples produced since construction / reset(). */
    std::size_t position() const { return produced_; }

  private:
    sim::Rng rng_;
    sim::Rng initialRng_;
    Archetype archetype_;
    TraceConfig cfg_;
    sim::Tick next_;
    std::size_t produced_ = 0;
    long currentDay_ = -1;
    double dayAmplitude_ = 1.0;
};

/**
 * Streaming telemetry source for one server: the windowed
 * counterpart of ServerTrace.  Each generateQuantized() call fills
 * the next window of per-VM utilization and turbo-watts columns of
 * a slot-major buffer, so replay never holds more than one window
 * of samples per rack (peak RSS scales with racks x window instead
 * of racks x horizon).  Created by TraceGenerator::serverTraceStream,
 * which consumes the parent stream exactly like serverTrace does —
 * the two are interchangeable draw-for-draw, and each stored sample
 * is the quantized value of serverTrace's.
 */
class ServerTraceStream
{
  public:
    ServerTraceStream() = default;

    const std::vector<VmMix> &mix() const { return mix_; }
    std::size_t vms() const { return cursors_.size(); }

    /**
     * Fill the next @p n slots of quantized slot-major windows —
     * uint16 fixed-point utilization (sim::quantizeUtil) and float
     * turbo-watts hints.  VM v's sample for the window's slot i
     * lands at util[i * stride + v] (likewise watts): the caller
     * passes pointers already offset to this server's first VM
     * column of a slot-major window with row width @p stride.  The
     * stored sample pair is
     * (q, float(cores * corePower(dequantUtil(q), turbo))), i.e. the
     * watts hint is computed from the *dequantized* utilization —
     * exactly the summand the replay's batch server update consumes,
     * so uncapped groups never re-evaluate the power model
     * (DESIGN.md §14).  Throws std::out_of_range before filling
     * anything when @p n runs past the horizon (every cursor sits
     * at the same sample).
     */
    void generateQuantized(std::size_t n, std::uint16_t *util,
                           float *watts, std::size_t stride);

    /** Rewind every VM cursor to slot 0. */
    void reset();

  private:
    friend class TraceGenerator;
    std::vector<VmMix> mix_;
    const power::PowerModel *model_ = nullptr;
    std::vector<VmUtilCursor> cursors_;
};

/**
 * Deterministic trace generator; a given (seed, config) pair always
 * produces the same traces.
 */
class TraceGenerator
{
  public:
    /** Throws std::invalid_argument unless cfg.end > cfg.start and
     *  cfg.interval > 0, in every build type. */
    explicit TraceGenerator(std::uint64_t seed, TraceConfig cfg = {});

    const TraceConfig &config() const { return cfg_; }

    /** Utilization series for one VM of the given archetype. */
    telemetry::TimeSeries utilSeries(const Archetype &archetype);

    /**
     * Full telemetry for a server hosting @p mix, powered per
     * @p model (power evaluated at max turbo).  Throws
     * std::invalid_argument, in every build type and before drawing
     * anything, when a VM has fewer than one core or the mix needs
     * more cores than the server has.
     */
    ServerTrace serverTrace(const std::vector<VmMix> &mix,
                            const power::PowerModel &model);

    /**
     * Streaming counterpart of serverTrace: same parent-stream
     * consumption (one split per VM, in mix order), but samples are
     * produced lazily through ServerTraceStream::generateQuantized
     * instead of being materialized.  A run that calls
     * serverTraceStream where another called serverTrace leaves this
     * generator in an identical state, and each streamed sample is
     * quantizeUtil of the materialized one, bit for bit.  @p model
     * must outlive the stream.  Rejects the mixes serverTrace
     * rejects, the same way.
     */
    ServerTraceStream
    serverTraceStream(const std::vector<VmMix> &mix,
                      const power::PowerModel &model);

    /**
     * A realistic multi-tenant VM mix for a server with
     * @p server_cores cores: several small (2-8 core) VMs drawn from
     * a weighted archetype catalog with randomized phases.
     */
    std::vector<VmMix> randomVmMix(int server_cores);

    /**
     * Sum of per-server power traces: the rack-level power series
     * used by the rack template experiments.  Throws
     * std::invalid_argument when @p servers is empty.
     */
    static telemetry::TimeSeries
    rackPower(const std::vector<ServerTrace> &servers);

  private:
    sim::Rng rng_;
    TraceConfig cfg_;
};

} // namespace workload
} // namespace soc

#endif // SOC_WORKLOAD_TRACE_GENERATOR_HH
