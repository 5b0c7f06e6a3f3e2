/**
 * @file
 * Thin simulation driver over EventQueue: periodic tasks that run
 * for the whole simulation.  Periodic tasks are how control loops
 * (sOA feedback loop, gOA budget recompute, WI metric polls) are
 * expressed throughout the code base.
 */

#ifndef SOC_SIM_SIMULATOR_HH
#define SOC_SIM_SIMULATOR_HH

#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace soc
{
namespace sim
{

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
     * Run @p task every @p period ticks, starting at now() + @p phase,
     * for as long as the simulation runs.
     *
     * @param period  Interval between invocations; must be > 0, or
     *                std::invalid_argument is thrown (every build)
     *                and no task is added.
     * @param task    Callback receiving the invocation tick.
     * @param phase   Offset of the first invocation (default: one
     *                full period from now).
     */
    void every(Tick period, std::function<void(Tick)> task,
               Tick phase = -1);

    /** Advance simulated time to @p until, executing due events. */
    void runUntil(Tick until) { queue_.runUntil(until); }

  private:
    struct Periodic {
        Tick period;
        std::function<void(Tick)> task;
    };

    void fire(Periodic &periodic);

    EventQueue queue_;
    /** One heap node per task: a running task may add tasks, so the
     *  callable it runs in must not move when this vector grows. */
    std::vector<std::unique_ptr<Periodic>> periodics_;
};

} // namespace sim
} // namespace soc

#endif // SOC_SIM_SIMULATOR_HH
