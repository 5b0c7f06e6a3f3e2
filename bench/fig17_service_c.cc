/**
 * @file
 * Figure 17 — impact of overclocking Service C: the 5-minute CPU
 * utilization peaks over a weekday shrink by ~16% when the VMs are
 * overclocked during their top/bottom-of-hour spikes.
 *
 * The weekday is compressed: each 5-minute telemetry slot is
 * simulated for two seconds at that slot's request rate, which
 * preserves the utilization statistics while keeping the run fast.
 */

#include <algorithm>
#include <iostream>

#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "telemetry/table.hh"
#include "workload/archetype.hh"
#include "workload/queueing_service.hh"

using namespace soc;
using telemetry::fmt;
using telemetry::fmtPercent;

namespace
{

workload::MicroserviceParams
serviceCParams()
{
    workload::MicroserviceParams params;
    params.name = "ServiceC";
    params.meanServiceMs = 5.0;
    params.serviceCv = 0.8;
    params.memBoundFrac = 0.25;
    params.workersPerVm = 8;
    return params;
}

/** Per-slot utilization over a weekday at the given policy. */
std::vector<double>
dayUtil(bool overclock_spikes)
{
    const auto params = serviceCParams();
    const auto arch = workload::serviceC();

    sim::Simulator simulator;
    workload::QueueingService service(simulator, params, 2718);
    const auto inst = service.addInstance();
    const double peak_rps =
        0.85 * service.instanceCapacity(power::kTurboMHz);

    std::vector<double> utils;
    workload::QueueingService::WindowStats window;
    sim::Tick clock = 0;
    for (int slot = 0; slot < sim::kSlotsPerDay; ++slot) {
        const sim::Tick t =
            static_cast<sim::Tick>(slot) * sim::kSlot;
        const double load = arch.utilAt(t); // in [0,1]
        const bool spike = load > 0.5;
        service.setFrequency(inst,
                             overclock_spikes && spike
                                 ? power::kOverclockMHz
                                 : power::kTurboMHz);
        service.setArrivalRate(load * peak_rps);
        clock += 2 * sim::kSecond;
        simulator.runUntil(clock);
        service.drainWindow(window);
        utils.push_back(window.utilization);
    }
    return utils;
}

} // namespace

int
main()
{
    const auto turbo = dayUtil(false);
    const auto boosted = dayUtil(true);

    telemetry::Table table(
        "Fig. 17 - Service C utilization around hourly spikes "
        "(selected slots)",
        {"time", "turbo", "overclocked"});
    for (int hour : {9, 12, 15}) {
        for (int offset : {-1, 0, 1, 6}) {
            const int slot = hour * 12 + offset;
            table.addRow({sim::formatTick(
                              static_cast<sim::Tick>(slot) *
                              sim::kSlot)
                              .substr(3, 5),
                          fmtPercent(turbo[slot]),
                          fmtPercent(boosted[slot])});
        }
    }
    table.print(std::cout);

    // The figure's metric: reduction of the 5-minute peaks.
    sim::Percentiles turbo_peaks, boosted_peaks;
    for (int slot = 0; slot < sim::kSlotsPerDay; ++slot) {
        if (turbo[slot] > 0.5) { // spike slots
            turbo_peaks.add(turbo[slot]);
            boosted_peaks.add(boosted[slot]);
        }
    }
    const double reduction =
        1.0 - boosted_peaks.mean() / turbo_peaks.mean();
    std::cout << "Mean 5-minute peak utilization: turbo "
              << fmtPercent(turbo_peaks.mean()) << " -> overclocked "
              << fmtPercent(boosted_peaks.mean()) << " ("
              << fmtPercent(reduction)
              << " lower; paper: ~16%)\n";
    return 0;
}
