/** @file Unit tests for the periodic-task simulation driver. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

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

TEST(Simulator, TaskCanStartTasksWhileRunning)
{
    // A running task adds 65 tasks, enough to regrow the task
    // storage several times under it.  It keeps reading its own
    // captures while and after it adds them, and it and every task
    // it added then fire on schedule.
    Simulator sim;
    struct Log {
        std::vector<Tick> parent;
        std::vector<std::vector<Tick>> added;
    } log;
    log.added.resize(65);
    sim.every(5, [&sim, &log](Tick t) {
        if (log.parent.size() == 1) {
            for (std::size_t k = 0; k < log.added.size(); ++k)
                sim.every(3, [&log, k](Tick at) {
                    log.added[k].push_back(at);
                });
        }
        log.parent.push_back(t);
    });
    sim.runUntil(31);
    EXPECT_EQ(log.parent, (std::vector<Tick>{5, 10, 15, 20, 25, 30}));
    for (const auto &fired : log.added)
        EXPECT_EQ(fired, (std::vector<Tick>{13, 16, 19, 22, 25, 28, 31}));
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
    // The next valid task runs normally.
    sim.every(10, [&](Tick) { ++fired; });
    sim.runUntil(125);
    EXPECT_EQ(fired, 2);
}
