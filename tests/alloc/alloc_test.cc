/**
 * @file
 * Steady-state allocation guard: once warmed up, the hint ingress
 * and the event queue must not touch the heap.  This translation
 * unit replaces the global operator new/delete with counting
 * versions, so the binary stands alone (`ctest -L alloc`).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/hint_ingress.hh"
#include "sim/event_queue.hh"
#include "sim/hint_storm.hh"

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
