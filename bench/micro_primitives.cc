/**
 * @file
 * Google-benchmark microbenchmarks of the hot library primitives:
 * the event queue, the power model, template construction and the
 * admission decision.  These bound the simulator's throughput and
 * the per-request cost of the control plane.
 */

#include <benchmark/benchmark.h>

#include "core/admission.hh"
#include "core/budget_allocator.hh"
#include "core/profile_template.hh"
#include "core/slot_aggregator.hh"
#include "power/server.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "workload/trace_generator.hh"

using namespace soc;

namespace
{

const power::PowerModel &
model()
{
    static const power::PowerModel instance;
    return instance;
}

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue queue;
        for (int i = 0; i < state.range(0); ++i)
            queue.schedule((i * 7919) % 100000, [](sim::Tick) {});
        queue.run();
        benchmark::DoNotOptimize(queue.executedCount());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void
BM_RngNormal(benchmark::State &state)
{
    sim::Rng rng(1);
    double sink = 0.0;
    for (auto _ : state)
        sink += rng.normal();
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngNormal);

/*
 * gen_batch_vs_scalar: the scalar normal() loop vs the batch
 * normalFill over the same window size the trace generator fills
 * (one day of slots).  items_processed counts normals, so the
 * per-second rates of the two benches are directly comparable; the
 * gated speedup figure lives in BENCH_trace_sim.json
 * (gen_batch_speedup, scripts/bench_check.sh).
 */

void
BM_RngNormalScalarWindow(benchmark::State &state)
{
    sim::Rng rng(2);
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::vector<double> out(n);
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = rng.normal();
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RngNormalScalarWindow)->Arg(288);

void
BM_RngNormalFillWindow(benchmark::State &state)
{
    sim::Rng rng(2);
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::vector<double> out(n);
    for (auto _ : state) {
        rng.normalFill(out.data(), n);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RngNormalFillWindow)->Arg(288);

void
BM_ServerPower(benchmark::State &state)
{
    power::Server server(0, &model());
    for (int i = 0; i < 8; ++i)
        server.addGroup(8, 0.1 * i, power::kTurboMHz, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(server.powerWatts());
}
BENCHMARK(BM_ServerPower);

void
BM_TemplateBuildDailyMed(benchmark::State &state)
{
    workload::TraceConfig cfg;
    cfg.end = 2 * sim::kWeek;
    workload::TraceGenerator gen(5, cfg);
    const auto series = gen.utilSeries(workload::serviceA());
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::ProfileTemplate::build(
            core::TemplateStrategy::DailyMed, series));
    }
}
BENCHMARK(BM_TemplateBuildDailyMed);

/** Random-walk power telemetry of @p slots 5-minute samples. */
telemetry::TimeSeries
walkHistory(int slots)
{
    sim::Rng rng(17);
    telemetry::TimeSeries s(0, sim::kSlot);
    double level = 250.0;
    for (int i = 0; i < slots; ++i) {
        level += rng.uniform(-4.0, 4.0);
        s.append(level);
    }
    return s;
}

/**
 * Batch template construction: one ProfileTemplate::build over the
 * whole history.  Arg = history length in days; cost grows linearly
 * with it (this is the per-recompute cost the slot aggregator
 * replaces).
 */
void
BM_TemplateBuildBatch(benchmark::State &state)
{
    const auto history = walkHistory(
        static_cast<int>(state.range(0)) * sim::kSlotsPerDay);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::ProfileTemplate::build(
            core::TemplateStrategy::DailyMed, history));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TemplateBuildBatch)->Arg(1)->Arg(7)->Arg(42);

/**
 * Incremental steady state: one closed slot arrives, then the
 * template is rebuilt from the aggregator.  Arg = retained history
 * in days (the aggregator's window, so the working set stays pinned
 * while the benchmark streams new slots).  The rebuild is one
 * sort-free pass over the retained ring, so its cost grows with the
 * window: Arg 2 is what the benchmark's zone_fleet retains, Arg 7
 * the paper's prior week.
 */
void
BM_TemplateBuildIncremental(benchmark::State &state)
{
    const sim::Tick window = state.range(0) * sim::kDay;
    const auto history = walkHistory(
        static_cast<int>(state.range(0)) * sim::kSlotsPerDay);
    core::SlotAggregator agg(window);
    for (std::size_t i = 0; i < history.size(); ++i)
        agg.add(history.timeOf(i), history.at(i));
    sim::Tick t = history.end();
    sim::Rng rng(18);
    double level = 250.0;
    for (auto _ : state) {
        level += rng.uniform(-4.0, 4.0);
        agg.add(t, level);
        t += sim::kSlot;
        benchmark::DoNotOptimize(
            agg.build(core::TemplateStrategy::DailyMed));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TemplateBuildIncremental)->Arg(1)->Arg(2)->Arg(7);

core::ServerProfile
syntheticProfile(int seed)
{
    const auto history =
        walkHistory(7 * sim::kSlotsPerDay + 31 * seed);
    core::ServerProfile profile;
    profile.power = core::ProfileTemplate::build(
        core::TemplateStrategy::DailyMed, history);
    profile.utilization = core::ProfileTemplate::flat(0.4);
    profile.overclockedCores = core::ProfileTemplate::flat(2.0);
    profile.requestedCores =
        core::ProfileTemplate::flat(2.0 + seed % 3);
    return profile;
}

/** Allocating split: fresh scratch + output vectors per call. */
void
BM_BudgetSplit(benchmark::State &state)
{
    const core::BudgetAllocator allocator(model());
    std::vector<core::ServerProfile> profiles;
    for (int i = 0; i < state.range(0); ++i)
        profiles.push_back(syntheticProfile(i));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            allocator.split(
                power::Watts{1000.0 * state.range(0)}, profiles));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BudgetSplit)->Arg(8)->Arg(28);

/** Steady-state split: usable row and output buffers reused (the
 *  split's scratch is per thread). */
void
BM_BudgetSplitWeeklyInto(benchmark::State &state)
{
    const core::BudgetAllocator allocator(model());
    std::vector<core::ServerProfile> profiles;
    for (int i = 0; i < state.range(0); ++i)
        profiles.push_back(syntheticProfile(i));
    const power::Watts limit{1000.0 * state.range(0)};
    const std::vector<double> usable(
        static_cast<std::size_t>(sim::kSlotsPerWeek),
        (limit * (1.0 - core::BudgetConfig{}.safetyFraction)).count());
    std::vector<core::ProfileTemplate> out;
    for (auto _ : state) {
        allocator.splitWeeklyInto(usable, profiles, out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BudgetSplitWeeklyInto)->Arg(8)->Arg(28);

void
BM_TemplatePredict(benchmark::State &state)
{
    workload::TraceConfig cfg;
    cfg.end = 2 * sim::kWeek;
    workload::TraceGenerator gen(5, cfg);
    const auto tmpl = core::ProfileTemplate::build(
        core::TemplateStrategy::DailyMed,
        gen.utilSeries(workload::serviceA()));
    sim::Tick t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tmpl.predict(t));
        t += sim::kMinute;
    }
}
BENCHMARK(BM_TemplatePredict);

void
BM_AdmissionDecision(benchmark::State &state)
{
    core::AdmissionController admission(model());
    core::OverclockBudget lifetime(sim::kWeek, 0.25, 64);
    core::ProfileTemplate budget =
        core::ProfileTemplate::flat(500.0);
    core::OverclockRequest request;
    request.groupId = 1;
    request.cores = 8;
    core::AdmissionInputs in;
    in.measuredWatts = power::Watts{300.0};
    in.budget = &budget;
    in.lifetime = &lifetime;
    for (auto _ : state) {
        in.now += sim::kSecond;
        benchmark::DoNotOptimize(admission.decide(request, in));
        lifetime.release(1 << 30, in.now); // undo reservations
    }
}
BENCHMARK(BM_AdmissionDecision);

} // namespace
