#include "workload/trace_generator.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/quant.hh"

namespace soc
{
namespace workload
{

namespace
{

/** Fail closed on a horizon no sample fits in or a step that never
 *  advances (a zero interval divides by zero in the cursor and
 *  never ends utilSeries). */
const TraceConfig &
checkedConfig(const TraceConfig &cfg)
{
    if (!(cfg.end > cfg.start))
        throw std::invalid_argument(
            "TraceConfig: end must be after start");
    if (!(cfg.interval > 0))
        throw std::invalid_argument(
            "TraceConfig: interval must be positive");
    return cfg;
}

/** Fail closed on a mix no server can host: a VM without a core, or
 *  more cores than the server has.  Runs before any draw, so a
 *  rejected mix leaves the generator's stream untouched. */
void
checkMix(const std::vector<VmMix> &mix, const power::PowerModel &model)
{
    std::int64_t used_cores = 0;
    for (const auto &vm : mix) {
        if (vm.cores < 1)
            throw std::invalid_argument(
                "VmMix: every VM needs at least one core");
        used_cores += vm.cores;
    }
    if (used_cores > model.params().cores)
        throw std::invalid_argument(
            "VmMix: VMs over-subscribe the server's cores");
}

} // namespace

TraceGenerator::TraceGenerator(std::uint64_t seed, TraceConfig cfg)
    : rng_(seed), cfg_(checkedConfig(cfg))
{
}

VmUtilCursor::VmUtilCursor(sim::Rng rng, const Archetype &archetype,
                           const TraceConfig &cfg)
    : rng_(rng),
      initialRng_(rng),
      archetype_(archetype),
      cfg_(checkedConfig(cfg)),
      next_(cfg.start)
{
}

std::size_t
VmUtilCursor::remaining() const
{
    if (next_ >= cfg_.end)
        return 0;
    return static_cast<std::size_t>(
        (cfg_.end - next_ + cfg_.interval - 1) / cfg_.interval);
}

void
VmUtilCursor::generate(std::size_t n, double *out)
{
    if (n > remaining())
        throw std::out_of_range(
            "VmUtilCursor: generate past the trace horizon");
    // Mirrors TraceGenerator::utilSeries sample for sample (pinned
    // bit-identical by test), but batched: the horizon is cut into
    // same-day segments so the per-day amplitude draws interleave
    // with the noise normals in exactly the scalar order, and within
    // a segment the shape terms (Archetype::utilFill) and the noise
    // normals (Rng::normalFill) fill contiguous arrays the combine
    // loop below consumes straight-line.
    double shaped[kBatch];
    double noise[kBatch];
    std::size_t i = 0;
    while (i < n) {
        const long day = static_cast<long>(next_ / sim::kDay);
        if (day != currentDay_) {
            currentDay_ = day;
            dayAmplitude_ = std::max(
                0.0, rng_.normal(1.0, cfg_.dailyAmplitudeSigma));
            if (rng_.chance(cfg_.outlierDayProb))
                dayAmplitude_ *= cfg_.outlierScale;
            else if (rng_.chance(cfg_.surgeDayProb))
                dayAmplitude_ *= cfg_.surgeScale;
        }
        // Samples of this batch: same day, capped by the request
        // and the scratch size.
        const sim::Tick day_end =
            static_cast<sim::Tick>(day + 1) * sim::kDay;
        const std::size_t to_day_end = static_cast<std::size_t>(
            (day_end - next_ + cfg_.interval - 1) / cfg_.interval);
        const std::size_t seg =
            std::min({n - i, to_day_end, kBatch});

        archetype_.utilFill(next_, cfg_.interval, seg, shaped);
        rng_.normalFill(noise, seg);
        const double base = archetype_.baseUtil;
        const double amp = dayAmplitude_;
        const double sigma = archetype_.noiseSigma;
        double *dst = out + i;
        for (std::size_t k = 0; k < seg; ++k) {
            // Exactly utilSeries' per-sample expression:
            // base + (shaped - base) * amp, then += normal(0, sigma)
            // = 0.0 + sigma * n, then clamp.
            double util = base + (shaped[k] - base) * amp;
            util += 0.0 + sigma * noise[k];
            dst[k] = std::clamp(util, 0.0, 1.0);
        }
        next_ += static_cast<sim::Tick>(seg) * cfg_.interval;
        i += seg;
    }
    produced_ += n;
}

void
VmUtilCursor::reset()
{
    rng_ = initialRng_;
    next_ = cfg_.start;
    produced_ = 0;
    currentDay_ = -1;
    dayAmplitude_ = 1.0;
}

void
ServerTraceStream::generateQuantized(std::size_t n,
                                     std::uint16_t *util,
                                     float *watts,
                                     std::size_t stride)
{
    // Checked up front: the fill below advances in chunks, and a
    // chunk past the horizon must not leave earlier ones consumed.
    if (!cursors_.empty() && n > cursors_.front().remaining())
        throw std::out_of_range(
            "ServerTraceStream: generate past the trace horizon");
    // soclint:hot-begin(PERF-001) — the window-refill path: every
    // streamed slot of every rack funnels through this fill loop,
    // so it must stay allocation-free (the batch scratch lives on
    // the stack).
    double col[VmUtilCursor::kBatch];
    for (std::size_t v = 0; v < cursors_.size(); ++v) {
        const int cores = mix_[v].cores;
        std::size_t done = 0;
        while (done < n) {
            const std::size_t m =
                std::min(n - done, VmUtilCursor::kBatch);
            cursors_[v].generate(m, col);
            for (std::size_t k = 0; k < m; ++k) {
                const std::uint16_t q = sim::quantizeUtil(col[k]);
                const double uq = sim::dequantUtil(q);
                const power::Watts contrib = cores *
                    model_->corePower(uq, power::kTurboMHz);
                const std::size_t at = (done + k) * stride + v;
                util[at] = q;
                watts[at] = static_cast<float>(contrib.count());
            }
            done += m;
        }
    }
    // soclint:hot-end(PERF-001)
}

void
ServerTraceStream::reset()
{
    for (auto &cursor : cursors_)
        cursor.reset();
}

telemetry::TimeSeries
TraceGenerator::utilSeries(const Archetype &archetype)
{
    sim::Rng rng = rng_.split();
    telemetry::TimeSeries series(cfg_.start, cfg_.interval);

    long current_day = -1;
    double day_amplitude = 1.0;
    for (sim::Tick t = cfg_.start; t < cfg_.end; t += cfg_.interval) {
        const long day = static_cast<long>(t / sim::kDay);
        if (day != current_day) {
            current_day = day;
            day_amplitude =
                std::max(0.0,
                         rng.normal(1.0, cfg_.dailyAmplitudeSigma));
            if (rng.chance(cfg_.outlierDayProb))
                day_amplitude *= cfg_.outlierScale;
            else if (rng.chance(cfg_.surgeDayProb))
                day_amplitude *= cfg_.surgeScale;
        }
        const double base = archetype.baseUtil;
        const double shaped = archetype.utilAt(t);
        // Scale only the dynamic part so idle VMs stay idle.
        double util = base + (shaped - base) * day_amplitude;
        util += rng.normal(0.0, archetype.noiseSigma);
        series.append(std::clamp(util, 0.0, 1.0));
    }
    return series;
}

ServerTrace
TraceGenerator::serverTrace(const std::vector<VmMix> &mix,
                            const power::PowerModel &model)
{
    checkMix(mix, model);
    ServerTrace trace;
    trace.mix = mix;

    for (const auto &vm : mix)
        trace.vmUtil.push_back(utilSeries(vm.archetype));

    const std::size_t slots = trace.vmUtil.empty()
        ? 0
        : trace.vmUtil.front().size();
    trace.serverUtil =
        telemetry::TimeSeries(cfg_.start, cfg_.interval);
    trace.powerWatts =
        telemetry::TimeSeries(cfg_.start, cfg_.interval);

    const int total_cores = model.params().cores;
    for (std::size_t i = 0; i < slots; ++i) {
        double weighted = 0.0;
        power::Watts watts = model.params().idleWatts;
        for (std::size_t v = 0; v < mix.size(); ++v) {
            const double util = trace.vmUtil[v].at(i);
            weighted += mix[v].cores * util;
            watts += mix[v].cores *
                model.corePower(util, power::kTurboMHz);
        }
        trace.serverUtil.append(weighted / total_cores);
        trace.powerWatts.append(watts.count());
    }
    return trace;
}

ServerTraceStream
TraceGenerator::serverTraceStream(const std::vector<VmMix> &mix,
                                 const power::PowerModel &model)
{
    checkMix(mix, model);
    ServerTraceStream stream;
    stream.mix_ = mix;
    stream.model_ = &model;
    stream.cursors_.reserve(mix.size());

    for (const auto &vm : mix) {
        // One split per VM in mix order: the same parent-stream
        // consumption as serverTrace's utilSeries calls, so a run
        // may mix the two APIs and stay bit-identical.
        stream.cursors_.emplace_back(rng_.split(), vm.archetype,
                                     cfg_);
    }
    return stream;
}

std::vector<VmMix>
TraceGenerator::randomVmMix(int server_cores)
{
    // Weighted catalog reflecting §III: mostly long-lived service
    // VMs with diverse peak times; a minority of hot batch VMs.
    struct CatalogEntry {
        ShapeKind kind;
        double weight;
        double base_lo, base_hi;
        double peak_lo, peak_hi;
    };
    static const CatalogEntry catalog[] = {
        {ShapeKind::Diurnal, 0.28, 0.08, 0.20, 0.45, 0.85},
        {ShapeKind::BusinessHours, 0.16, 0.08, 0.18, 0.50, 0.85},
        {ShapeKind::MorningPeak, 0.10, 0.10, 0.20, 0.55, 0.90},
        {ShapeKind::TopOfHour, 0.10, 0.08, 0.15, 0.55, 0.95},
        {ShapeKind::NightBatch, 0.11, 0.05, 0.15, 0.45, 0.80},
        {ShapeKind::LowIdle, 0.20, 0.03, 0.10, 0.15, 0.30},
        {ShapeKind::ConstantHigh, 0.05, 0.55, 0.70, 0.70, 0.90},
    };

    std::vector<VmMix> mix;
    int free_cores = server_cores;
    // Leave a little headroom: schedulers rarely pack to 100%.
    const int reserve = std::max(2, server_cores / 16);
    while (free_cores > reserve) {
        const int vm_cores = static_cast<int>(
            std::min<std::int64_t>(rng_.uniformInt(2, 8), free_cores));

        double pick = rng_.uniform();
        const CatalogEntry *chosen = &catalog[0];
        for (const auto &entry : catalog) {
            if (pick < entry.weight) {
                chosen = &entry;
                break;
            }
            pick -= entry.weight;
        }

        Archetype arch;
        arch.kind = chosen->kind;
        arch.baseUtil = rng_.uniform(chosen->base_lo, chosen->base_hi);
        arch.peakUtil = std::max(
            arch.baseUtil,
            rng_.uniform(chosen->peak_lo, chosen->peak_hi));
        arch.weekendFactor = rng_.uniform(0.2, 0.6);
        arch.noiseSigma = rng_.uniform(0.015, 0.05);
        arch.phaseShift = static_cast<sim::Tick>(
            rng_.uniformInt(-3 * 60, 3 * 60)) * sim::kMinute;

        mix.push_back({arch, vm_cores});
        free_cores -= vm_cores;
    }
    return mix;
}

telemetry::TimeSeries
TraceGenerator::rackPower(const std::vector<ServerTrace> &servers)
{
    if (servers.empty())
        throw std::invalid_argument("rackPower: no servers");
    std::vector<const telemetry::TimeSeries *> parts;
    parts.reserve(servers.size());
    for (const auto &server : servers)
        parts.push_back(&server.powerWatts);
    return telemetry::TimeSeries::sum(parts);
}

} // namespace workload
} // namespace soc
