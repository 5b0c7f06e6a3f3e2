/** @file Unit and property tests for the synthetic trace generator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/profile_template.hh"
#include "sim/quant.hh"
#include "workload/trace_generator.hh"

using namespace soc;
using namespace soc::workload;

namespace
{

TraceConfig
shortConfig()
{
    TraceConfig cfg;
    cfg.end = 2 * sim::kWeek;
    return cfg;
}

} // namespace

TEST(TraceGenerator, DeterministicForSeed)
{
    TraceGenerator a(42, shortConfig());
    TraceGenerator b(42, shortConfig());
    const auto sa = a.utilSeries(serviceA());
    const auto sb = b.utilSeries(serviceA());
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i)
        ASSERT_EQ(sa.at(i), sb.at(i));
}

TEST(TraceGenerator, DifferentSeedsDiffer)
{
    TraceGenerator a(1, shortConfig());
    TraceGenerator b(2, shortConfig());
    const auto sa = a.utilSeries(serviceA());
    const auto sb = b.utilSeries(serviceA());
    int diff = 0;
    for (std::size_t i = 0; i < sa.size(); ++i)
        if (sa.at(i) != sb.at(i))
            ++diff;
    EXPECT_GT(diff, static_cast<int>(sa.size()) / 2);
}

TEST(TraceGenerator, SeriesCoversConfiguredSpan)
{
    TraceGenerator gen(3, shortConfig());
    const auto series = gen.utilSeries(serviceB());
    EXPECT_EQ(series.size(),
              static_cast<std::size_t>(2 * sim::kSlotsPerWeek));
    EXPECT_EQ(series.interval(), sim::kSlot);
}

TEST(TraceGenerator, UtilStaysInUnitRange)
{
    TraceGenerator gen(4, shortConfig());
    for (const auto &arch : {serviceA(), serviceB(), mlTraining()}) {
        const auto series = gen.utilSeries(arch);
        for (double v : series.values()) {
            ASSERT_GE(v, 0.0);
            ASSERT_LE(v, 1.0);
        }
    }
}

TEST(TraceGenerator, WeekOverWeekRepeatability)
{
    // The core property behind Fig. 8: a DailyMed template built on
    // week 1 predicts week 2 with small error relative to the mean.
    TraceConfig cfg;
    cfg.end = 2 * sim::kWeek;
    TraceGenerator gen(5, cfg);
    const power::PowerModel model;
    const auto trace = gen.serverTrace(gen.randomVmMix(64), model);

    const auto week1 = trace.powerWatts.slice(0, sim::kWeek);
    const auto week2 =
        trace.powerWatts.slice(sim::kWeek, 2 * sim::kWeek);
    const auto tmpl = core::ProfileTemplate::build(
        core::TemplateStrategy::DailyMed, week1);
    const double err = tmpl.rmseAgainst(week2);
    const double mean = week2.stats().mean();
    EXPECT_LT(err / mean, 0.10)
        << "rmse=" << err << " mean=" << mean;
}

TEST(TraceGenerator, RandomVmMixFitsServer)
{
    TraceGenerator gen(6, shortConfig());
    for (int trial = 0; trial < 20; ++trial) {
        const auto mix = gen.randomVmMix(64);
        ASSERT_FALSE(mix.empty());
        int cores = 0;
        for (const auto &vm : mix) {
            ASSERT_GE(vm.cores, 1);
            ASSERT_LE(vm.cores, 8);
            cores += vm.cores;
        }
        ASSERT_LE(cores, 64);
        ASSERT_GE(cores, 40); // decently packed
    }
}

TEST(TraceGenerator, ServerTraceConsistency)
{
    TraceGenerator gen(8, shortConfig());
    const power::PowerModel model;
    const auto mix = gen.randomVmMix(64);
    const auto trace = gen.serverTrace(mix, model);
    ASSERT_EQ(trace.vmUtil.size(), mix.size());
    ASSERT_EQ(trace.serverUtil.size(), trace.powerWatts.size());

    // Server util must be the core-weighted VM utils.
    for (std::size_t i = 0; i < trace.serverUtil.size(); i += 97) {
        double weighted = 0.0;
        for (std::size_t v = 0; v < mix.size(); ++v)
            weighted += mix[v].cores * trace.vmUtil[v].at(i);
        EXPECT_NEAR(trace.serverUtil.at(i), weighted / 64.0, 1e-9);
    }

    // Power must be above idle and below TDP (at turbo).
    for (double w : trace.powerWatts.values()) {
        ASSERT_GE(w, model.params().idleWatts.count());
        ASSERT_LE(w, model.params().tdpWatts.count() + 1e-9);
    }
}

TEST(TraceGenerator, RackPowerSumsServers)
{
    TraceGenerator gen(9, shortConfig());
    const power::PowerModel model;
    std::vector<ServerTrace> traces;
    for (int s = 0; s < 3; ++s)
        traces.push_back(gen.serverTrace(gen.randomVmMix(64), model));
    const auto rack = TraceGenerator::rackPower(traces);
    for (std::size_t i = 0; i < rack.size(); i += 131) {
        double sum = 0.0;
        for (const auto &t : traces)
            sum += t.powerWatts.at(i);
        EXPECT_NEAR(rack.at(i), sum, 1e-9);
    }
}

TEST(TraceGenerator, ServersInRackAreDiverse)
{
    // Fig. 9's premise: per-server power profiles differ materially.
    TraceGenerator gen(10, shortConfig());
    const power::PowerModel model;
    const auto a = gen.serverTrace(gen.randomVmMix(64), model);
    const auto b = gen.serverTrace(gen.randomVmMix(64), model);
    double diff = 0.0;
    for (std::size_t i = 0; i < a.powerWatts.size(); ++i) {
        diff += std::abs(a.powerWatts.at(i) - b.powerWatts.at(i));
    }
    diff /= static_cast<double>(a.powerWatts.size());
    EXPECT_GT(diff, 5.0); // materially apart on average
}

TEST(TraceGenerator, OutlierDaysReduceLoad)
{
    TraceConfig with;
    with.end = 8 * sim::kWeek;
    with.outlierDayProb = 0.5;
    with.outlierScale = 0.2;
    with.surgeDayProb = 0.0;
    TraceConfig without = with;
    without.outlierDayProb = 0.0;
    TraceGenerator gw(11, with);
    TraceGenerator go(11, without);
    const double mean_with =
        gw.utilSeries(serviceA()).stats().mean();
    const double mean_without =
        go.utilSeries(serviceA()).stats().mean();
    EXPECT_LT(mean_with, mean_without);
}

TEST(TraceGenerator, StreamMatchesMaterializedBitIdentically)
{
    // The streaming path must be a drop-in for the materialized one:
    // same parent-stream consumption (so downstream draws agree), a
    // stored sample that is exactly quantizeUtil of the materialized
    // utilization, and a watts hint that is the power model
    // evaluated at the *dequantized* utilization — the invariant
    // that lets the replay's batch server update reuse the hint
    // verbatim — however the windows are chunked.  Window sizes are
    // deliberately awkward (prime, not slot-aligned to days) to
    // catch any per-window state reset.
    const power::PowerModel model;
    TraceGenerator materialized(77, shortConfig());
    TraceGenerator streamed(77, shortConfig());

    const auto mix_a = materialized.randomVmMix(64);
    const auto mix_b = streamed.randomVmMix(64);
    ASSERT_EQ(mix_a.size(), mix_b.size());

    const auto trace = materialized.serverTrace(mix_a, model);
    auto stream = streamed.serverTraceStream(mix_b, model);
    ASSERT_EQ(stream.vms(), trace.vmUtil.size());

    const std::size_t slots = trace.vmUtil[0].size();
    const std::size_t stride = stream.vms();
    std::vector<std::uint16_t> util(slots * stride);
    std::vector<float> watts(slots * stride);
    for (std::size_t first = 0; first < slots;) {
        const std::size_t n = std::min<std::size_t>(97, slots - first);
        stream.generateQuantized(n, util.data() + first * stride,
                                 watts.data() + first * stride,
                                 stride);
        first += n;
    }
    for (std::size_t v = 0; v < stride; ++v) {
        const int cores = mix_a[v].cores;
        for (std::size_t i = 0; i < slots; ++i) {
            const std::size_t at = i * stride + v;
            ASSERT_EQ(util[at],
                      sim::quantizeUtil(trace.vmUtil[v].at(i)))
                << "vm " << v << " slot " << i;
            const double uq = sim::dequantUtil(util[at]);
            const float want = static_cast<float>(
                (cores *
                 model.corePower(uq, power::kTurboMHz)).count());
            ASSERT_EQ(watts[at], want)
                << "vm " << v << " slot " << i;
        }
    }

    // Both generators must leave the parent stream in the same
    // state: the next draws agree bit for bit.
    const auto next_a = materialized.utilSeries(serviceA());
    const auto next_b = streamed.utilSeries(serviceA());
    ASSERT_EQ(next_a.size(), next_b.size());
    for (std::size_t i = 0; i < next_a.size(); ++i)
        ASSERT_EQ(next_a.at(i), next_b.at(i));
}

TEST(TraceGenerator, StreamResetReplaysIdentically)
{
    const power::PowerModel model;
    TraceGenerator gen(33, shortConfig());
    const auto mix = gen.randomVmMix(64);
    auto stream = gen.serverTraceStream(mix, model);

    const std::size_t stride = stream.vms();
    const std::size_t slots = static_cast<std::size_t>(
        shortConfig().end / sim::kSlot);
    std::vector<std::uint16_t> util_once(slots * stride);
    std::vector<float> watts_once(slots * stride);
    stream.generateQuantized(slots, util_once.data(),
                             watts_once.data(), stride);

    stream.reset();
    std::vector<std::uint16_t> util_again(slots * stride);
    std::vector<float> watts_again(slots * stride);
    for (std::size_t first = 0; first < slots;) {
        const std::size_t n = std::min<std::size_t>(7, slots - first);
        stream.generateQuantized(n, util_again.data() + first * stride,
                                 watts_again.data() + first * stride,
                                 stride);
        first += n;
    }
    ASSERT_EQ(util_once, util_again);
    ASSERT_EQ(watts_once, watts_again);
}

TEST(TraceGenerator, QuantizedStreamResumesBitIdentically)
{
    // The compact-column fill must be as resumable as the double
    // one: however the windows are chunked (awkward prime sizes
    // again), the quantized samples and float watts hints agree bit
    // for bit with a single-shot fill — the VmUtilCursor resume
    // guarantee carried through quantization.
    const power::PowerModel model;
    TraceGenerator whole(55, shortConfig());
    TraceGenerator chunked(55, shortConfig());

    const auto mix_a = whole.randomVmMix(64);
    const auto mix_b = chunked.randomVmMix(64);
    auto stream_a = whole.serverTraceStream(mix_a, model);
    auto stream_b = chunked.serverTraceStream(mix_b, model);

    const std::size_t stride = stream_a.vms();
    const std::size_t slots = static_cast<std::size_t>(
        shortConfig().end / sim::kSlot);
    std::vector<std::uint16_t> util_once(slots * stride);
    std::vector<float> watts_once(slots * stride);
    stream_a.generateQuantized(slots, util_once.data(),
                               watts_once.data(), stride);

    std::vector<std::uint16_t> util_chunked(slots * stride);
    std::vector<float> watts_chunked(slots * stride);
    for (std::size_t first = 0; first < slots;) {
        const std::size_t n =
            std::min<std::size_t>(101, slots - first);
        stream_b.generateQuantized(
            n, util_chunked.data() + first * stride,
            watts_chunked.data() + first * stride, stride);
        first += n;
    }
    ASSERT_EQ(util_once, util_chunked);
    ASSERT_EQ(watts_once, watts_chunked);
}

TEST(TraceGenerator, QuantizedStreamMatchesDoubleStream)
{
    // The quantized fill consumes the RNG exactly like the double
    // series (the materialized trace's utilization columns), its
    // stored sample is quantizeUtil(double sample), and its watts
    // hint is the power model evaluated at the *dequantized*
    // utilization — the invariant that lets the replay's batch
    // server update reuse the hint verbatim.  One single-shot fill
    // that stops mid-day, against the chunked whole-horizon fill of
    // StreamMatchesMaterializedBitIdentically.
    const power::PowerModel model;
    TraceGenerator doubles(91, shortConfig());
    TraceGenerator quantized(91, shortConfig());

    const auto mix_a = doubles.randomVmMix(64);
    const auto mix_b = quantized.randomVmMix(64);
    const auto trace = doubles.serverTrace(mix_a, model);
    auto stream = quantized.serverTraceStream(mix_b, model);
    ASSERT_EQ(stream.vms(), trace.vmUtil.size());

    const std::size_t stride = stream.vms();
    const std::size_t slots = 3 * sim::kSlotsPerDay + 17;
    ASSERT_LT(slots, trace.vmUtil[0].size());
    std::vector<std::uint16_t> util_q(slots * stride);
    std::vector<float> watts_q(slots * stride);
    stream.generateQuantized(slots, util_q.data(), watts_q.data(),
                             stride);

    for (std::size_t v = 0; v < stride; ++v) {
        const int cores = mix_a[v].cores;
        for (std::size_t i = 0; i < slots; ++i) {
            const std::size_t at = i * stride + v;
            ASSERT_EQ(util_q[at],
                      sim::quantizeUtil(trace.vmUtil[v].at(i)))
                << "vm " << v << " slot " << i;
            const double uq = sim::dequantUtil(util_q[at]);
            const float want = static_cast<float>(
                (cores *
                 model.corePower(uq, power::kTurboMHz)).count());
            ASSERT_EQ(watts_q[at], want)
                << "vm " << v << " slot " << i;
        }
    }
}

TEST(TraceGenerator, UtilFillMatchesUtilAt)
{
    // The batched shape fill behind the window fills must agree bit
    // for bit with the scalar utilAt across day, weekend, and
    // phase-shift boundaries for every archetype kind, on both of
    // its paths: the minute-of-day table (non-negative whole-minute
    // shifted ticks) and the kernel (negative or off-minute ones).
    TraceGenerator gen(12, shortConfig());
    std::vector<Archetype> archetypes;
    for (const auto &vm : gen.randomVmMix(64))
        archetypes.push_back(vm.archetype);
    archetypes.push_back(serviceA());
    archetypes.push_back(serviceB());
    archetypes.push_back(serviceC());
    archetypes.push_back(mlTraining());
    // Every kind explicitly, whatever the random mix drew, at phase
    // shifts from -3 h to +3 h: from start 0 the negative ones give
    // negative shifted ticks.
    const sim::Tick shifts[] = {-3 * sim::kHour, -179 * sim::kMinute,
                                -7 * sim::kMinute, -sim::kMinute, 0,
                                7 * sim::kMinute, 3 * sim::kHour};
    for (int kind = 0; kind <= static_cast<int>(ShapeKind::LowIdle);
         ++kind) {
        for (const sim::Tick shift : shifts) {
            Archetype arch;
            arch.kind = static_cast<ShapeKind>(kind);
            arch.baseUtil = 0.1;
            arch.peakUtil = 0.9;
            arch.phaseShift = shift;
            archetypes.push_back(arch);
        }
    }

    struct Window {
        sim::Tick start;
        sim::Tick interval;
        std::size_t n;
    };
    const Window windows[] = {
        // Crosses a weekend, off the slot grid but on the minute one.
        {4 * sim::kDay + 3 * sim::kMinute, sim::kSlot,
         9 * sim::kSlotsPerDay},
        // From tick 0: negative shifts start below zero and cross it.
        {0, sim::kSlot, 2 * sim::kSlotsPerDay},
        // Neither start nor interval a whole minute: kernel only.
        {4 * sim::kDay + 7 * sim::kSecond, 30 * sim::kSecond,
         3 * 2880},
        // Whole-minute start, off-minute interval.
        {5 * sim::kDay, 90 * sim::kSecond, 2000},
    };
    for (const Window &w : windows) {
        std::vector<double> filled(w.n);
        for (const auto &arch : archetypes) {
            arch.utilFill(w.start, w.interval, w.n, filled.data());
            for (std::size_t k = 0; k < w.n; ++k) {
                const sim::Tick t =
                    w.start + static_cast<sim::Tick>(k) * w.interval;
                ASSERT_EQ(filled[k], arch.utilAt(t))
                    << shapeName(arch.kind) << " shift "
                    << arch.phaseShift << " start " << w.start
                    << " interval " << w.interval << " k " << k;
            }
        }
    }
}

TEST(TraceGenerator, RejectsConfigsWithoutSamples)
{
    // Fail closed in every build type: a zero interval would divide
    // by zero in the cursor and never end utilSeries.
    const auto rejects = [](TraceConfig cfg) {
        EXPECT_THROW(TraceGenerator(1, cfg), std::invalid_argument);
        EXPECT_THROW(VmUtilCursor(sim::Rng(1), serviceA(), cfg),
                     std::invalid_argument);
    };
    TraceConfig cfg = shortConfig();
    cfg.interval = 0;
    rejects(cfg);
    cfg.interval = -sim::kSlot;
    rejects(cfg);
    cfg = shortConfig();
    cfg.end = cfg.start;
    rejects(cfg);
    cfg.end = cfg.start - sim::kSlot;
    rejects(cfg);
    EXPECT_NO_THROW(TraceGenerator(1, shortConfig()));
}

TEST(TraceGenerator, GeneratePastHorizonThrowsAndLeavesCursor)
{
    // A request past cfg.end throws before drawing anything: the
    // cursor's position and stream are unchanged, so the samples it
    // then produces are those of an untouched twin.
    TraceConfig cfg = shortConfig();
    cfg.end = sim::kDay + 10 * sim::kSlot; // 298 samples
    VmUtilCursor cursor(sim::Rng(5), serviceA(), cfg);
    VmUtilCursor twin(sim::Rng(5), serviceA(), cfg);
    ASSERT_EQ(cursor.remaining(), 298u);

    std::vector<double> out(300);
    cursor.generate(100, out.data());
    twin.generate(100, out.data());
    EXPECT_THROW(cursor.generate(199, out.data()), std::out_of_range);
    EXPECT_EQ(cursor.position(), 100u);
    EXPECT_EQ(cursor.remaining(), 198u);

    std::vector<double> got(198);
    std::vector<double> want(198);
    cursor.generate(198, got.data());
    twin.generate(198, want.data());
    EXPECT_EQ(got, want);
    EXPECT_EQ(cursor.remaining(), 0u);
    EXPECT_THROW(cursor.generate(1, out.data()), std::out_of_range);
    EXPECT_NO_THROW(cursor.generate(0, out.data()));
}

TEST(TraceGenerator, QuantizedStreamPastHorizonThrowsAndLeavesStream)
{
    // The quantized fill advances in day-sized chunks; a request
    // past the horizon must fail before the first of them.
    const power::PowerModel model;
    TraceConfig cfg = shortConfig();
    cfg.end = 2 * sim::kDay;
    TraceGenerator gen_a(8, cfg);
    TraceGenerator gen_b(8, cfg);
    auto stream =
        gen_a.serverTraceStream(gen_a.randomVmMix(64), model);
    auto twin =
        gen_b.serverTraceStream(gen_b.randomVmMix(64), model);

    const std::size_t stride = stream.vms();
    const std::size_t slots = 2 * sim::kSlotsPerDay;
    std::vector<std::uint16_t> util(slots * stride);
    std::vector<float> watts(slots * stride);
    EXPECT_THROW(stream.generateQuantized(slots + 1, util.data(),
                                          watts.data(), stride),
                 std::out_of_range);

    std::vector<std::uint16_t> twin_util(slots * stride);
    std::vector<float> twin_watts(slots * stride);
    stream.generateQuantized(slots, util.data(), watts.data(),
                             stride);
    twin.generateQuantized(slots, twin_util.data(), twin_watts.data(),
                           stride);
    EXPECT_EQ(util, twin_util);
    EXPECT_EQ(watts, twin_watts);
}

TEST(TraceGenerator, RejectsUnhostableMixesAndLeavesStream)
{
    // Fail closed in every build type, before any draw: a mix that
    // over-subscribes its server or holds a VM without a core is
    // rejected, and the generator then streams exactly what a fresh
    // generator with the same seed streams.
    const power::PowerModel model;
    const int cores = model.params().cores;
    TraceConfig cfg = shortConfig();
    cfg.end = 2 * sim::kDay;
    TraceGenerator gen(31, cfg);
    TraceGenerator fresh(31, cfg);

    const std::vector<std::vector<VmMix>> bad = {
        {{serviceA(), cores}, {serviceA(), 1}},
        {{serviceA(), 4}, {serviceA(), 0}},
        {{serviceA(), -2}},
    };
    for (const auto &mix : bad) {
        EXPECT_THROW(gen.serverTrace(mix, model),
                     std::invalid_argument);
        EXPECT_THROW(gen.serverTraceStream(mix, model),
                     std::invalid_argument);
    }

    const std::vector<VmMix> good = {{serviceA(), cores - 8},
                                     {serviceA(), 8}};
    auto stream = gen.serverTraceStream(good, model);
    auto twin = fresh.serverTraceStream(good, model);
    const std::size_t stride = stream.vms();
    const std::size_t slots = 2 * sim::kSlotsPerDay;
    std::vector<std::uint16_t> util(slots * stride);
    std::vector<float> watts(slots * stride);
    std::vector<std::uint16_t> twin_util(slots * stride);
    std::vector<float> twin_watts(slots * stride);
    stream.generateQuantized(slots, util.data(), watts.data(), stride);
    twin.generateQuantized(slots, twin_util.data(), twin_watts.data(),
                           stride);
    EXPECT_EQ(util, twin_util);
    EXPECT_EQ(watts, twin_watts);
}

TEST(TraceGenerator, RackPowerRejectsEmptyRack)
{
    EXPECT_THROW(TraceGenerator::rackPower({}), std::invalid_argument);
}
