/** @file Unit tests for the discrete-event queue. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

using soc::sim::EventId;
using soc::sim::EventQueue;
using soc::sim::Tick;

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), 0);
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](Tick) { order.push_back(3); });
    q.schedule(10, [&](Tick) { order.push_back(1); });
    q.schedule(20, [&](Tick) { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, FifoWithinSameTick)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(5, [&order, i](Tick) { order.push_back(i); });
    q.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, HandlerReceivesItsTick)
{
    EventQueue q;
    Tick seen = -1;
    q.schedule(42, [&](Tick t) { seen = t; });
    q.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    auto id = q.schedule(10, [&](Tick) { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    q.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsIdempotent)
{
    EventQueue q;
    auto id = q.schedule(10, [](Tick) {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails)
{
    EventQueue q;
    EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, CancelledEventsDoNotCountAsPending)
{
    EventQueue q;
    auto a = q.schedule(10, [](Tick) {});
    q.schedule(20, [](Tick) {});
    EXPECT_EQ(q.size(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueue, HandlerCanReschedule)
{
    EventQueue q;
    int count = 0;
    std::function<void(Tick)> self = [&](Tick t) {
        ++count;
        if (count < 5)
            q.schedule(t + 10, self);
    };
    q.schedule(0, self);
    q.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 40);
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesClock)
{
    EventQueue q;
    std::vector<Tick> executed;
    for (Tick t = 10; t <= 100; t += 10)
        q.schedule(t, [&](Tick now) { executed.push_back(now); });
    q.runUntil(55);
    EXPECT_EQ(executed.size(), 5u);
    EXPECT_EQ(q.now(), 55);
    q.runUntil(100);
    EXPECT_EQ(executed.size(), 10u);
    EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, RunUntilIncludesEventsAtBoundary)
{
    EventQueue q;
    bool ran = false;
    q.schedule(50, [&](Tick) { ran = true; });
    q.runUntil(50);
    EXPECT_TRUE(ran);
}

TEST(EventQueue, RunUntilOnEmptyQueueAdvancesClock)
{
    EventQueue q;
    q.runUntil(1000);
    EXPECT_EQ(q.now(), 1000);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    Tick when = -1;
    q.schedule(100, [&](Tick t) {
        q.scheduleAfter(25, [&](Tick inner) { when = inner; });
        (void)t;
    });
    q.run();
    EXPECT_EQ(when, 125);
}

TEST(EventQueue, ExecutedCountTracksOnlyRunEvents)
{
    EventQueue q;
    auto id = q.schedule(1, [](Tick) {});
    q.schedule(2, [](Tick) {});
    q.cancel(id);
    q.run();
    EXPECT_EQ(q.executedCount(), 1u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    Tick last = -1;
    bool monotonic = true;
    for (int i = 0; i < 10000; ++i) {
        const Tick when = (i * 7919) % 4096;
        q.schedule(when, [&](Tick t) {
            if (t < last)
                monotonic = false;
            last = t;
        });
    }
    q.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(q.executedCount(), 10000u);
}

TEST(EventQueue, CancelFromWithinHandler)
{
    EventQueue q;
    bool second_ran = false;
    soc::sim::EventId second =
        q.schedule(20, [&](Tick) { second_ran = true; });
    q.schedule(10, [&](Tick) { q.cancel(second); });
    q.run();
    EXPECT_FALSE(second_ran);
}

TEST(EventQueue, StaleIdNeverCancelsSlotsNextEvent)
{
    EventQueue q;
    bool first_ran = false;
    bool second_ran = false;
    const EventId first = q.schedule(1, [&](Tick) { first_ran = true; });
    ASSERT_TRUE(q.cancel(first));
    // The freed slot is reused at once; the old id must not reach it.
    const EventId second =
        q.schedule(2, [&](Tick) { second_ran = true; });
    EXPECT_NE(first, second);
    EXPECT_FALSE(q.cancel(first));
    EXPECT_EQ(q.size(), 1u);
    q.run();
    EXPECT_FALSE(first_ran);
    EXPECT_TRUE(second_ran);
    EXPECT_FALSE(q.cancel(second));
    EXPECT_FALSE(q.cancel(soc::sim::kInvalidEvent));
}

TEST(EventQueue, SchedulingIntoThePastThrowsAndLeavesQueueUnchanged)
{
    EventQueue q;
    std::vector<Tick> ran;
    q.schedule(100, [&](Tick t) { ran.push_back(t); });
    q.runUntil(50);
    bool past_ran = false;
    EXPECT_THROW(q.schedule(49, [&](Tick) { past_ran = true; }),
                 std::invalid_argument);
    EXPECT_THROW(q.scheduleAfter(-1, [&](Tick) { past_ran = true; }),
                 std::invalid_argument);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.now(), 50);
    q.run();
    EXPECT_FALSE(past_ran);
    EXPECT_EQ(ran, (std::vector<Tick>{100}));
    EXPECT_EQ(q.executedCount(), 1u);
    EXPECT_EQ(q.now(), 100);
}

namespace
{

/**
 * Reference model: the (when, seq)-ordered queue the slot pool
 * replaced, with sequential ids and cancellation by id lookup.
 */
class ReferenceQueue
{
  public:
    using Handler = std::function<void(Tick)>;

    Tick now() const { return now_; }
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }
    std::uint64_t executedCount() const { return executed_; }

    EventId
    schedule(Tick when, Handler handler)
    {
        const EventId id = nextId_++;
        const Key key{when, nextSeq_++};
        events_.emplace(key, std::make_pair(id, std::move(handler)));
        keys_.emplace(id, key);
        return id;
    }

    bool
    cancel(EventId id)
    {
        const auto it = keys_.find(id);
        if (it == keys_.end())
            return false;
        events_.erase(it->second);
        keys_.erase(it);
        return true;
    }

    bool
    step()
    {
        if (events_.empty())
            return false;
        const auto head = events_.begin();
        now_ = head->first.first;
        Handler handler = std::move(head->second.second);
        keys_.erase(head->second.first);
        events_.erase(head);
        ++executed_;
        handler(now_);
        return true;
    }

    void
    runUntil(Tick until)
    {
        while (!events_.empty() && events_.begin()->first.first <= until)
            step();
        if (now_ < until)
            now_ = until;
    }

    void
    run()
    {
        while (step()) {
        }
    }

  private:
    using Key = std::pair<Tick, std::uint64_t>;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    EventId nextId_ = 1;
    std::uint64_t executed_ = 0;
    std::map<Key, std::pair<EventId, Handler>> events_;
    std::map<EventId, Key> keys_;
};

/**
 * Drives one queue.  Events are numbered in scheduling order, which
 * both queues share as long as they agree; event k's handler acts
 * on a script derived from (seed, k) alone: it may cancel an
 * earlier event (pending, run or cancelled) and schedule up to two
 * more, some at its own tick.
 */
template <class Queue>
struct Driver {
    static constexpr std::size_t kMaxEvents = 3000;

    explicit Driver(std::uint64_t seed_) : seed(seed_) {}

    void
    add(Tick when)
    {
        if (ids.size() >= kMaxEvents)
            return;
        const std::size_t index = ids.size();
        // Two words: the handler stays in std::function's inline
        // buffer, as the simulators' handlers do.
        ids.push_back(queue.schedule(
            when, [this, index](Tick t) { fire(index, t); }));
    }

    void
    cancel(std::size_t index)
    {
        // Does a later event hold this id's slot (its low 32 bits)?
        for (std::size_t j = index + 1; j < ids.size(); ++j) {
            if ((ids[j] & 0xffffffffu) == (ids[index] & 0xffffffffu)) {
                ++reusedSlotCancels;
                break;
            }
        }
        cancels.push_back(queue.cancel(ids[index]));
    }

    void
    fire(std::size_t index, Tick t)
    {
        log.emplace_back(index, t);
        soc::sim::Rng rng(seed * 1000003u + index);
        if (rng.chance(0.3))
            cancel(static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(ids.size()) - 1)));
        const auto children = rng.uniformInt(0, 2);
        for (std::int64_t c = 0; c < children; ++c)
            if (rng.chance(0.35))
                add(t + rng.uniformInt(0, 3));
    }

    std::uint64_t seed;
    Queue queue;
    std::vector<EventId> ids;
    std::vector<std::pair<std::size_t, Tick>> log;
    std::vector<bool> cancels;
    std::size_t reusedSlotCancels = 0;
};

} // namespace

TEST(EventQueue, MatchesWhenSeqReferenceOnRandomSequences)
{
    std::size_t stale_reused = 0;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        Driver<EventQueue> pooled(seed);
        Driver<ReferenceQueue> reference(seed);
        soc::sim::Rng rng(seed);
        for (int op = 0; op < 300; ++op) {
            const double r = rng.uniform();
            if (r < 0.45) {
                const Tick when =
                    pooled.queue.now() + rng.uniformInt(0, 20);
                pooled.add(when);
                reference.add(when);
            } else if (r < 0.65) {
                if (pooled.ids.empty())
                    continue;
                const auto index = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          pooled.ids.size()) - 1));
                pooled.cancel(index);
                reference.cancel(index);
            } else if (r < 0.9) {
                ASSERT_EQ(pooled.queue.step(), reference.queue.step());
            } else {
                const Tick until =
                    pooled.queue.now() + rng.uniformInt(0, 10);
                pooled.queue.runUntil(until);
                reference.queue.runUntil(until);
            }
            ASSERT_EQ(pooled.queue.now(), reference.queue.now());
            ASSERT_EQ(pooled.queue.size(), reference.queue.size());
            ASSERT_EQ(pooled.queue.empty(), reference.queue.empty());
            ASSERT_EQ(pooled.queue.executedCount(),
                      reference.queue.executedCount());
            ASSERT_EQ(pooled.log, reference.log)
                << "seed " << seed << " op " << op;
            ASSERT_EQ(pooled.cancels, reference.cancels)
                << "seed " << seed << " op " << op;
            ASSERT_EQ(pooled.ids.size(), reference.ids.size());
        }
        pooled.queue.run();
        reference.queue.run();
        ASSERT_EQ(pooled.log, reference.log) << "seed " << seed;
        ASSERT_EQ(pooled.queue.executedCount(),
                  reference.queue.executedCount());
        stale_reused += pooled.reusedSlotCancels;
    }
    // Many cancels targeted an id whose slot a later event held.
    EXPECT_GT(stale_reused, 100u);
}

namespace
{

/** Delays log-uniform over [0 us, 2 h]: same tick, one 16 us
 *  bucket, the near tier's 65.5 ms window and far beyond it. */
Tick
logUniformDelay(soc::sim::Rng &rng)
{
    const double top = std::log(2.0 * static_cast<double>(
                                          soc::sim::kHour) + 1.0);
    return static_cast<Tick>(std::exp(rng.uniform(0.0, top))) - 1;
}

/** Is @p when inside the near tier's window at @p now? */
bool
inWindow(Tick now, Tick when)
{
    return (when >> 4) - (now >> 4) < 4096;
}

/**
 * Drives one queue across both tiers.  As Driver, but the delays
 * are log-uniform up to 2 h, and a handler may schedule a same-tick
 * burst larger than a bucket holds.  Cancels are counted by the
 * tier the cancelled event was scheduled into.
 */
template <class Queue>
struct TierDriver {
    static constexpr std::size_t kMaxEvents = 4000;

    explicit TierDriver(std::uint64_t seed_) : seed(seed_) {}

    void
    add(Tick when)
    {
        if (ids.size() >= kMaxEvents)
            return;
        const std::size_t index = ids.size();
        near.push_back(inWindow(queue.now(), when));
        ids.push_back(queue.schedule(
            when, [this, index](Tick t) { fire(index, t); }));
    }

    void
    burst(Tick when, std::int64_t n)
    {
        for (std::int64_t k = 0; k < n; ++k)
            add(when);
    }

    void
    cancel(std::size_t index)
    {
        const bool cancelled = queue.cancel(ids[index]);
        cancels.push_back(cancelled);
        if (cancelled)
            ++(near[index] ? nearCancels : farCancels);
    }

    void
    fire(std::size_t index, Tick t)
    {
        log.emplace_back(index, t);
        soc::sim::Rng rng(seed * 1000003u + index);
        if (rng.chance(0.3))
            cancel(static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(ids.size()) - 1)));
        if (rng.chance(0.02))
            burst(t + logUniformDelay(rng), rng.uniformInt(9, 20));
        const auto children = rng.uniformInt(0, 2);
        for (std::int64_t c = 0; c < children; ++c)
            if (rng.chance(0.45))
                add(t + logUniformDelay(rng));
    }

    std::uint64_t seed;
    Queue queue;
    std::vector<EventId> ids;
    std::vector<bool> near;
    std::vector<std::pair<std::size_t, Tick>> log;
    std::vector<bool> cancels;
    std::size_t nearCancels = 0;
    std::size_t farCancels = 0;
};

} // namespace

TEST(EventQueue, MatchesWhenSeqReferenceAcrossBothTiers)
{
    std::size_t near_cancels = 0;
    std::size_t far_cancels = 0;
    std::size_t far_scheduled = 0;
    std::size_t window_jumps = 0;
    for (std::uint64_t seed = 1; seed <= 80; ++seed) {
        TierDriver<EventQueue> tiered(seed);
        TierDriver<ReferenceQueue> reference(seed);
        soc::sim::Rng rng(seed);
        for (int op = 0; op < 400; ++op) {
            const double r = rng.uniform();
            if (r < 0.35) {
                const Tick when =
                    tiered.queue.now() + logUniformDelay(rng);
                tiered.add(when);
                reference.add(when);
            } else if (r < 0.40) {
                const Tick when =
                    tiered.queue.now() + logUniformDelay(rng);
                const auto n = rng.uniformInt(9, 24);
                tiered.burst(when, n);
                reference.burst(when, n);
            } else if (r < 0.60) {
                if (tiered.ids.empty())
                    continue;
                const auto index = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          tiered.ids.size()) - 1));
                tiered.cancel(index);
                reference.cancel(index);
            } else if (r < 0.92) {
                ASSERT_EQ(tiered.queue.step(),
                          reference.queue.step());
            } else {
                const Tick delay = logUniformDelay(rng);
                window_jumps += delay >= 4096 * 16;
                const Tick until = tiered.queue.now() + delay;
                tiered.queue.runUntil(until);
                reference.queue.runUntil(until);
            }
            ASSERT_EQ(tiered.queue.now(), reference.queue.now());
            ASSERT_EQ(tiered.queue.size(), reference.queue.size());
            ASSERT_EQ(tiered.queue.empty(), reference.queue.empty());
            ASSERT_EQ(tiered.queue.executedCount(),
                      reference.queue.executedCount());
            ASSERT_EQ(tiered.log, reference.log)
                << "seed " << seed << " op " << op;
            ASSERT_EQ(tiered.cancels, reference.cancels)
                << "seed " << seed << " op " << op;
            ASSERT_EQ(tiered.ids.size(), reference.ids.size());
        }
        tiered.queue.run();
        reference.queue.run();
        ASSERT_EQ(tiered.log, reference.log) << "seed " << seed;
        ASSERT_EQ(tiered.queue.now(), reference.queue.now());
        ASSERT_EQ(tiered.queue.executedCount(),
                  reference.queue.executedCount());
        near_cancels += tiered.nearCancels;
        far_cancels += tiered.farCancels;
        for (const bool n : tiered.near)
            far_scheduled += !n;
    }
    // Both tiers saw traffic and cancels, and runUntil crossed the
    // window many times.
    EXPECT_GT(near_cancels, 500u);
    EXPECT_GT(far_cancels, 500u);
    EXPECT_GT(far_scheduled, 5000u);
    EXPECT_GT(window_jumps, 200u);
}
