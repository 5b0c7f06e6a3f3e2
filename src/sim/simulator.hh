/**
 * @file
 * Thin simulation driver over EventQueue: periodic tasks and named
 * simulation phases.  Periodic tasks are how control loops (sOA
 * feedback loop, gOA weekly budget recompute, WI metric polls) are
 * expressed throughout the code base.
 */

#ifndef SOC_SIM_SIMULATOR_HH
#define SOC_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace soc
{
namespace sim
{

/** Handle for a periodic task; used to stop it. */
using TaskId = std::uint64_t;

/**
 * Simulation driver.
 *
 * Owns the event queue and provides periodic-task plumbing on top of
 * one-shot events.  All SmartOClock agents receive a `Simulator &` and
 * use it both for time and for scheduling.
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return queue_.now(); }

    /** Underlying queue, for one-shot scheduling. */
    EventQueue &queue() { return queue_; }

    /**
     * Run @p task every @p period ticks, starting at now() + @p phase.
     * The task keeps rescheduling itself until stopped.
     *
     * @param period  Interval between invocations; must be > 0, or
     *                std::invalid_argument is thrown (every build)
     *                and no task is added.
     * @param task    Callback receiving the invocation tick.
     * @param phase   Offset of the first invocation (default: one
     *                full period from now).
     * @return handle usable with stopPeriodic().
     */
    TaskId every(Tick period, std::function<void(Tick)> task,
                 Tick phase = -1);

    /** Stop a periodic task. @return true if it was running. */
    bool stopPeriodic(TaskId id);

    /** Advance simulated time to @p until, executing due events. */
    void runUntil(Tick until) { queue_.runUntil(until); }

    /** Run until no events remain (periodic tasks must be stopped
     *  first or this never returns). */
    void run() { queue_.run(); }

  private:
    struct Periodic {
        Tick period;
        std::function<void(Tick)> task;
        EventId pending = kInvalidEvent;
        bool stopped = false;
        bool running = false; ///< task is executing; defer erase
    };

    void reschedule(TaskId id);

    EventQueue queue_;
    TaskId nextTask_ = 1;
    // Lookup only — firing order comes from the event queue, never
    // from hash iteration.  soclint:allow(DET-003)
    std::unordered_map<TaskId, Periodic> periodics_;
};

} // namespace sim
} // namespace soc

#endif // SOC_SIM_SIMULATOR_HH
