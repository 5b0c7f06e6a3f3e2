#include "sim/simulator.hh"

#include <stdexcept>
#include <utility>

namespace soc
{
namespace sim
{

void
Simulator::every(Tick period, std::function<void(Tick)> task, Tick phase)
{
    // Checked in every build, before any state changes: a period
    // of 0 would refire at the same tick forever.
    if (period <= 0)
        throw std::invalid_argument(
            "Simulator: periodic task needs a positive period");
    Periodic &periodic = *periodics_.emplace_back(
        std::make_unique<Periodic>(Periodic{period, std::move(task)}));

    const Tick first = now() + (phase < 0 ? period : phase);
    queue_.schedule(first, [this, &periodic](Tick) { fire(periodic); });
}

void
Simulator::fire(Periodic &periodic)
{
    // The next firing is scheduled before the task runs, so events
    // the task schedules for the same tick come after it.  The task
    // runs in place, with no per-firing copy: its node never moves.
    queue_.scheduleAfter(periodic.period, [this, &periodic](Tick) {
        fire(periodic);
    });
    periodic.task(now());
}

} // namespace sim
} // namespace soc
