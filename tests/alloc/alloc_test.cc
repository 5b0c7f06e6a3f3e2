/**
 * @file
 * Steady-state allocation guard: once warmed up, the hint ingress,
 * the event queue, the sOA's control steps and a microservice's
 * request path must not touch the heap.  This translation unit
 * replaces the global operator new/delete with counting versions,
 * so the binary stands alone (`ctest -L alloc`).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/hint_ingress.hh"
#include "core/slot_aggregator.hh"
#include "core/soa.hh"
#include "sim/event_queue.hh"
#include "sim/hint_storm.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "workload/queueing_service.hh"

namespace
{

std::uint64_t g_allocations = 0;

void *
countedAlloc(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++g_allocations;
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace soc;

namespace
{

/**
 * Pour @p storm into @p ingress for @p steps one-minute control
 * steps across 8 servers x 16 VMs, draining after each step, as
 * the benches' microharness does.
 */
void
pour(core::HintIngress &ingress, const sim::HintStormGenerator &storm,
     sim::Tick &now, int steps)
{
    const core::HintIngress::Sink sink =
        [](const core::wire::ParsedHint &) { return true; };
    for (int step = 0; step < steps; ++step, now += sim::kMinute) {
        for (int s = 0; s < 8; ++s)
            storm.generate(s, now, [&](const core::wire::Frame &f) {
                ingress.offer(f, now);
            });
        ingress.drain(now, sink);
    }
}

/** Allocations made by pouring @p steps more steps after a warm-up
 *  of @p warmup steps. */
std::uint64_t
steadyStateAllocations(const core::HintIngressConfig &cfg,
                       const sim::HintStormConfig &storm_cfg,
                       int warmup, int steps,
                       core::IngressStats *stats = nullptr)
{
    core::HintIngress ingress(cfg);
    const sim::HintStormGenerator storm(storm_cfg, 11, 0, 8, 16);
    sim::Tick now = sim::kHour;
    pour(ingress, storm, now, warmup);
    const std::uint64_t before = g_allocations;
    pour(ingress, storm, now, steps);
    const std::uint64_t made = g_allocations - before;
    if (stats != nullptr)
        *stats = ingress.stats();
    return made;
}

} // namespace

TEST(AllocGuard, CounterSeesAllocations)
{
    const std::uint64_t before = g_allocations;
    auto *p = new std::uint64_t(7);
    EXPECT_EQ(g_allocations - before, 1u);
    delete p;
}

TEST(AllocGuard, HintIngressUnderStandardStormAllocatesNothing)
{
    core::HintIngressConfig cfg;
    cfg.maxHintAge = sim::kHour;
    core::IngressStats stats;
    EXPECT_EQ(steadyStateAllocations(
                  cfg, sim::HintStormConfig::standardStorm(), 64, 512,
                  &stats),
              0u);
    EXPECT_GT(stats.duplicates, 0u);
    EXPECT_GT(stats.parseRejects, 0u);
}

TEST(AllocGuard, HintIngressUnderOverflowingFloodAllocatesNothing)
{
    // 8 servers x 1,024 frames a step: twice the default 4,096
    // capacity, so every step evicts thousands of hints.
    const auto flood =
        sim::HintStormConfig::only(sim::StormKind::HintFlood, 1024.0);
    for (const std::size_t drain_max :
         {std::size_t{0}, std::size_t{1500}}) {
        core::HintIngressConfig cfg;
        cfg.maxHintAge = sim::kHour;
        cfg.drainMax = drain_max;
        ASSERT_EQ(cfg.queueCapacity, 4096u);
        core::IngressStats stats;
        EXPECT_EQ(steadyStateAllocations(cfg, flood, 8, 24, &stats), 0u)
            << "drainMax " << drain_max;
        EXPECT_GT(stats.overflowEvictions, 0u);
        // With drainMax, the snapshot ring stays loaded while the
        // pending ring refills: both reach their peak in warm-up.
        if (drain_max == 0)
            EXPECT_EQ(stats.maxDepth, 4096u);
        else
            EXPECT_GT(stats.maxDepth, 4096u);
    }
}

TEST(AllocGuard, EventQueueWithSixteenByteHandlersAllocatesNothing)
{
    // A steady population of 512 pending events: each step runs one,
    // whose handler schedules a replacement and cancels and
    // re-schedules another -- the cluster sim's pattern.
    struct Load {
        sim::EventQueue queue;
        std::vector<sim::EventId> ids;
        std::uint64_t fired = 0;

        void
        add(std::size_t k, sim::Tick when)
        {
            ids[k] = queue.schedule(
                when, [this, k](sim::Tick t) { fire(k, t); });
        }

        void
        fire(std::size_t k, sim::Tick t)
        {
            ++fired;
            add(k, t + 1 + static_cast<sim::Tick>((k * 7919) % 97));
            const std::size_t other = (k * 31 + fired) % ids.size();
            if (other != k && queue.cancel(ids[other]))
                add(other, t + 3);
        }
    };
    Load load;
    load.ids.resize(512);
    for (std::size_t k = 0; k < load.ids.size(); ++k)
        load.add(k, static_cast<sim::Tick>(k % 13));
    for (int i = 0; i < 20000; ++i)
        load.queue.step();

    const std::uint64_t before = g_allocations;
    for (int i = 0; i < 100000; ++i)
        load.queue.step();
    EXPECT_EQ(g_allocations - before, 0u);
    EXPECT_EQ(load.queue.size(), 512u);
    EXPECT_EQ(load.queue.executedCount(), 120000u);
}

TEST(AllocGuard, EventQueueAcrossBothTiersAllocatesNothing)
{
    // 96 pending events whose delays span the near tier (16 us to
    // 65 ms) and the far tier (up to ~2 s), with a same-tick burst
    // of 12 (more than a bucket holds, so 4 spill to the heap)
    // every 64 firings and cancels that hit both tiers.
    struct Load {
        sim::EventQueue queue;
        std::vector<sim::EventId> ids;
        std::uint64_t fired = 0;

        void
        add(std::size_t k, sim::Tick when)
        {
            ids[k] = queue.schedule(
                when, [this, k](sim::Tick t) { fire(k, t); });
        }

        void
        fire(std::size_t k, sim::Tick t)
        {
            ++fired;
            const std::uint64_t h = (k * 7919 + fired) * 2654435761u;
            // Mostly 1-65 ms ahead, 1 in 16 far, some at this tick.
            const auto ms = static_cast<sim::Tick>(h % 1900);
            const sim::Tick delay = h % 16 == 0
                ? (70 + ms) * sim::kMillisecond
                : static_cast<sim::Tick>((h >> 8) % 65000);
            add(k, t + delay);
            const std::size_t other = (k * 31 + fired) % ids.size();
            const auto later = static_cast<sim::Tick>(h % 200000);
            if (other != k && queue.cancel(ids[other]))
                add(other, t + 3 + later);
            if (fired % 64 == 0) {
                const sim::Tick tick = t + 40 * sim::kMillisecond;
                for (std::size_t j = 0; j < 12; ++j) {
                    const std::size_t b = (k + 1 + j) % ids.size();
                    if (b != k && queue.cancel(ids[b]))
                        add(b, tick);
                }
            }
        }
    };
    Load load;
    load.ids.resize(96);
    for (std::size_t k = 0; k < load.ids.size(); ++k)
        load.add(k, static_cast<sim::Tick>(k * 997));
    for (int i = 0; i < 50000; ++i)
        load.queue.step();

    const std::uint64_t before = g_allocations;
    for (int i = 0; i < 200000; ++i)
        load.queue.step();
    EXPECT_EQ(g_allocations - before, 0u);
    EXPECT_EQ(load.queue.size(), 96u);
    EXPECT_EQ(load.queue.executedCount(), 250000u);
    // The run crossed many 65 ms windows.
    EXPECT_GT(load.queue.now(), 100 * sim::kSecond);
}

namespace
{

/**
 * One sOA on a 64-core server driven through a 30-minute cycle that
 * makes every kind of control step: group 0 holds a grant it
 * extends every 5 minutes, so its cores wear out and it is moved to
 * fresh ones; group 1 takes 2-minute grants that expire; group 2 is
 * stopped and re-requested a minute later (a flap); group 3 asks
 * for the whole server, more than the power budget admits.
 * Allocations are counted per kind of call while `measuring`.
 */
struct SoaCycle {
    explicit SoaCycle(sim::Tick flap_holdoff)
    {
        core::SoaConfig cfg;
        cfg.flapHoldoff = flap_holdoff;
        cfg.exploreEnabled = false; // keep the power budget fixed
        // ~100 minutes of overclocking per core per weekly epoch.
        cfg.overclockFraction = 0.01;
        window = cfg.templateWindow;
        server = &rack.addServer(&model());
        for (int g = 0; g < 8; ++g)
            vm[g] = server->addGroup(8, 0.6, power::kTurboMHz, 1);
        soa = std::make_unique<core::ServerOverclockingAgent>(
            *server, cfg, &rack);
        soa->setExhaustionCallback([](const core::ExhaustionSignal &) {});
        // Room for three 8-core overclocks at worst-case utilization,
        // far short of a 64-core one.
        const power::Watts extra = model().overclockExtraPower(
            1.0, power::kOverclockMHz, 8);
        soa->assignBudget(core::ProfileTemplate::flat(
            (server->powerWatts() + extra * 3.5).count()));
    }

    static const power::PowerModel &
    model()
    {
        static const power::PowerModel instance;
        return instance;
    }

    void
    request(int group, int cores, sim::Tick duration, sim::Tick t)
    {
        core::OverclockRequest r;
        r.groupId = vm[group];
        r.cores = cores;
        r.duration = duration;
        const std::uint64_t before = g_allocations;
        const core::AdmissionDecision d = soa->requestOverclock(r, t);
        if (measuring) {
            requestAllocs += g_allocations - before;
            extended += d.reason == core::AdmissionReason::Extended;
        }
    }

    void
    stop(int group, sim::Tick t)
    {
        const std::uint64_t before = g_allocations;
        soa->stopOverclock(vm[group], t);
        if (measuring)
            stopAllocs += g_allocations - before;
    }

    /** Run the cycle over [from, to) in 5-second control ticks. */
    void
    run(sim::Tick from, sim::Tick to)
    {
        for (sim::Tick t = from; t < to; t += 5 * sim::kSecond) {
            const sim::Tick phase = t % (30 * sim::kMinute);
            if (phase % (5 * sim::kMinute) == 0)
                request(0, 8, sim::kHour, t);
            if (phase % (10 * sim::kMinute) == 0)
                request(1, 8, 2 * sim::kMinute, t);
            if (phase == 0 || phase == 4 * sim::kMinute)
                request(2, 8, sim::kHour, t);
            if (phase == 3 * sim::kMinute || phase == 20 * sim::kMinute)
                stop(2, t);
            if (phase % (5 * sim::kMinute) == sim::kMinute)
                request(3, 64, 10 * sim::kMinute, t);
            const std::uint64_t before = g_allocations;
            soa->tick(t);
            if (measuring)
                tickAllocs += g_allocations - before;
        }
    }

    power::Rack rack{0, power::Watts{4000.0}};
    power::Server *server = nullptr;
    int vm[8] = {};
    std::unique_ptr<core::ServerOverclockingAgent> soa;
    sim::Tick window = 0;
    bool measuring = false;
    std::uint64_t requestAllocs = 0;
    std::uint64_t stopAllocs = 0;
    std::uint64_t tickAllocs = 0;
    std::uint64_t extended = 0;
};

/**
 * Allocations a SlotAggregator makes for slots [first, last) after
 * being fed slots [0, first): its std::deque ring takes a new block
 * every 64 samples.  The sOA feeds five such series one sample per
 * closed slot.
 */
std::uint64_t
telemetryRingAllocations(sim::Tick window, std::int64_t first,
                         std::int64_t last)
{
    core::SlotAggregator ring(window);
    for (std::int64_t slot = 0; slot < first; ++slot)
        ring.add(slot * sim::kSlot, 1.0);
    const std::uint64_t before = g_allocations;
    for (std::int64_t slot = first; slot < last; ++slot)
        ring.add(slot * sim::kSlot, 1.0);
    return g_allocations - before;
}

} // namespace

TEST(AllocGuard, SoaControlStepsAllocateNothingOnceWarm)
{
    for (const sim::Tick holdoff : {sim::Tick{0}, 10 * sim::kMinute}) {
        SoaCycle cycle(holdoff);
        const sim::Tick warm = 3 * sim::kHour;
        const sim::Tick end = 6 * sim::kHour;
        cycle.run(0, warm);
        const core::SoaStats s0 = cycle.soa->stats();
        cycle.measuring = true;
        cycle.run(warm, end);
        const core::SoaStats &s1 = cycle.soa->stats();

        // Every kind of step happened while measuring...
        EXPECT_GT(s1.grants, s0.grants) << "holdoff " << holdoff;
        EXPECT_GT(s1.rejects - s1.flapDenied, s0.rejects - s0.flapDenied)
            << "holdoff " << holdoff;
        if (holdoff > 0) {
            EXPECT_GT(s1.flapDenied, s0.flapDenied);
        }
        EXPECT_GT(cycle.extended, 0u);
        EXPECT_GT(s1.revocations, s0.revocations); // natural expiry
        EXPECT_GT(s1.coreReschedules, s0.coreReschedules)
            << "holdoff " << holdoff;

        // ...and none of them allocated.  A tick closing a telemetry
        // slot feeds the sOA's five SlotAggregator rings, whose deque
        // blocks turn over at a fixed pace; that is all a tick may
        // allocate.
        EXPECT_EQ(cycle.requestAllocs, 0u) << "holdoff " << holdoff;
        EXPECT_EQ(cycle.stopAllocs, 0u) << "holdoff " << holdoff;
        const std::int64_t first = (warm - 5 * sim::kSecond) / sim::kSlot;
        const std::int64_t last = (end - 5 * sim::kSecond) / sim::kSlot;
        EXPECT_EQ(cycle.tickAllocs,
                  5 * telemetryRingAllocations(cycle.window, first, last))
            << "holdoff " << holdoff;
    }
}

TEST(AllocGuard, WarmQueueingServiceAllocatesNothing)
{
    // The cluster sim's request path on one 4-worker instance at 90%
    // load: arrivals, join-shortest-queue dispatch, queueing,
    // service and completion, a control task that resets the
    // frequency every 5 s (refreshing the cached lognormal mu), and
    // every 15 s a poll that drains the window into one reused
    // WindowStats and selects its P99.  The poll closure captures
    // more than std::function's 16-byte inline buffer, so it lives
    // on the heap: allocated once by every(), never per firing.
    sim::Simulator simr;
    workload::MicroserviceParams params;
    params.name = "alloc";
    params.meanServiceMs = 10.0;
    params.serviceCv = 0.8;
    params.memBoundFrac = 0.2;
    params.workersPerVm = 4;
    workload::QueueingService service(simr, params, 21);
    const auto id = service.addInstance();
    const double capacity = service.instanceCapacity(power::kTurboMHz);

    workload::QueueingService::WindowStats window;
    std::uint64_t polls = 0;
    std::uint64_t completed = 0;
    double p99_sum = 0.0;
    simr.every(15 * sim::kSecond, [&](sim::Tick) {
        service.drainWindow(window);
        p99_sum += sim::quantileInPlace(
            window.latencyMs.data(),
            window.latencyMs.data() + window.latencyMs.size(), 0.99);
        completed += window.completed;
        ++polls;
    });
    bool overclocked = false;
    simr.every(5 * sim::kSecond, [&](sim::Tick) {
        overclocked = !overclocked;
        service.setFrequency(id, overclocked ? power::kOverclockMHz
                                             : power::kTurboMHz);
    });

    // Warm-up beyond the measured load: five minutes of overload
    // grow the wait queue and both window buffers past anything 90%
    // load reaches, then five minutes at 90% drain the backlog.
    service.setArrivalRate(1.05 * capacity);
    simr.runUntil(5 * sim::kMinute);
    service.setArrivalRate(0.9 * capacity);
    simr.runUntil(10 * sim::kMinute);

    const std::uint64_t polls_before = polls;
    const std::uint64_t completed_before = completed;
    const std::uint64_t before = g_allocations;
    simr.runUntil(40 * sim::kMinute);
    EXPECT_EQ(g_allocations - before, 0u);
    EXPECT_EQ(polls - polls_before, 120u);
    // ~0.9 x 400 req/s for 30 minutes went through the measured path.
    EXPECT_GT(completed - completed_before, 500000u);
    EXPECT_GT(p99_sum, 0.0);
}
