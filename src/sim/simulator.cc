#include "sim/simulator.hh"

#include <stdexcept>
#include <utility>

namespace soc
{
namespace sim
{

TaskId
Simulator::every(Tick period, std::function<void(Tick)> task, Tick phase)
{
    // Checked in every build, before any state changes: a period
    // of 0 would refire at the same tick forever.
    if (period <= 0)
        throw std::invalid_argument(
            "Simulator: periodic task needs a positive period");
    const TaskId id = nextTask_++;
    Periodic periodic;
    periodic.period = period;
    periodic.task = std::move(task);
    periodics_.emplace(id, std::move(periodic));

    const Tick first = now() + (phase < 0 ? period : phase);
    periodics_[id].pending = queue_.schedule(first, [this, id](Tick) {
        reschedule(id);
    });
    return id;
}

void
Simulator::reschedule(TaskId id)
{
    auto it = periodics_.find(id);
    if (it == periodics_.end() || it->second.stopped)
        return;

    // The entry stays put while the task runs: map nodes do not
    // move when the task adds tasks, and stopPeriodic() on a running
    // task leaves the erase to us.  So the callable runs in place,
    // with no per-firing copy.
    Periodic &periodic = it->second;
    periodic.pending = queue_.scheduleAfter(periodic.period,
                                            [this, id](Tick) {
        reschedule(id);
    });
    periodic.running = true;
    periodic.task(now());
    periodic.running = false;
    if (periodic.stopped)
        periodics_.erase(id);
}

bool
Simulator::stopPeriodic(TaskId id)
{
    auto it = periodics_.find(id);
    if (it == periodics_.end() || it->second.stopped)
        return false;
    it->second.stopped = true;
    if (it->second.pending != kInvalidEvent)
        queue_.cancel(it->second.pending);
    if (!it->second.running)
        periodics_.erase(it);
    return true;
}

} // namespace sim
} // namespace soc
