/** @file Unit tests for the periodic-task simulation driver. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/simulator.hh"

using namespace soc::sim;

TEST(Simulator, PeriodicTaskFiresAtPeriod)
{
    Simulator sim;
    std::vector<Tick> fired;
    sim.every(10, [&](Tick t) { fired.push_back(t); });
    sim.runUntil(35);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20, 30}));
}

TEST(Simulator, PhaseControlsFirstFiring)
{
    Simulator sim;
    std::vector<Tick> fired;
    sim.every(10, [&](Tick t) { fired.push_back(t); }, 3);
    sim.runUntil(25);
    EXPECT_EQ(fired, (std::vector<Tick>{3, 13, 23}));
}

TEST(Simulator, ZeroPhaseFiresImmediately)
{
    Simulator sim;
    int count = 0;
    sim.every(10, [&](Tick) { ++count; }, 0);
    sim.runUntil(0);
    EXPECT_EQ(count, 1);
}

TEST(Simulator, StopPeriodicHaltsTask)
{
    Simulator sim;
    int count = 0;
    const TaskId id = sim.every(10, [&](Tick) { ++count; });
    sim.runUntil(25);
    EXPECT_TRUE(sim.stopPeriodic(id));
    sim.runUntil(100);
    EXPECT_EQ(count, 2);
}

TEST(Simulator, StopUnknownTaskFails)
{
    Simulator sim;
    EXPECT_FALSE(sim.stopPeriodic(999));
}

TEST(Simulator, TaskCanStopItself)
{
    Simulator sim;
    int count = 0;
    TaskId id = 0;
    id = sim.every(5, [&](Tick) {
        if (++count == 3)
            sim.stopPeriodic(id);
    });
    sim.runUntil(100);
    EXPECT_EQ(count, 3);
}

TEST(Simulator, TaskCanStopItselfAndStartAnother)
{
    // The running task's entry outlives its own stopPeriodic() until
    // the task returns, and a task added meanwhile runs normally.
    Simulator sim;
    int first = 0;
    int second = 0;
    TaskId id = 0;
    id = sim.every(5, [&](Tick) {
        if (++first == 2) {
            EXPECT_TRUE(sim.stopPeriodic(id));
            EXPECT_FALSE(sim.stopPeriodic(id));
            for (int k = 0; k < 64; ++k) // rehash the task table
                sim.every(1000, [](Tick) {});
            sim.every(3, [&](Tick) { ++second; });
        }
    });
    sim.runUntil(41);
    EXPECT_EQ(first, 2);
    EXPECT_EQ(second, 10); // t = 13, 16, ..., 40
    EXPECT_FALSE(sim.stopPeriodic(id));
}

TEST(Simulator, MultiplePeriodicTasksInterleave)
{
    Simulator sim;
    std::vector<int> order;
    sim.every(4, [&](Tick) { order.push_back(4); });
    sim.every(6, [&](Tick) { order.push_back(6); });
    sim.runUntil(12);
    // t=4:4, t=6:6, t=8:4, t=12: 6 before 4 (6's event was
    // scheduled earlier, FIFO within a tick).
    EXPECT_EQ(order, (std::vector<int>{4, 6, 4, 6, 4}));
}

TEST(Simulator, OneShotAndPeriodicCoexist)
{
    Simulator sim;
    std::vector<int> order;
    sim.every(10, [&](Tick) { order.push_back(1); });
    sim.queue().schedule(15, [&](Tick) { order.push_back(2); });
    sim.runUntil(20);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 1}));
}

TEST(Simulator, RunUntilLeavesClockAtBoundary)
{
    Simulator sim;
    sim.every(7, [](Tick) {});
    sim.runUntil(100);
    EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, NonPositivePeriodThrowsAndAddsNoTask)
{
    Simulator sim;
    int fired = 0;
    // ASSERT: an accepted 0 period would refire forever below.
    ASSERT_THROW(sim.every(0, [&](Tick) { ++fired; }),
                 std::invalid_argument);
    ASSERT_THROW(sim.every(-5, [&](Tick) { ++fired; }, 0),
                 std::invalid_argument);
    ASSERT_TRUE(sim.queue().empty());
    sim.runUntil(100);
    EXPECT_EQ(fired, 0);
    // Task ids are unchanged by the rejected calls.
    EXPECT_FALSE(sim.stopPeriodic(1));
    const TaskId id = sim.every(10, [&](Tick) { ++fired; });
    EXPECT_EQ(id, 1u);
}
