/** @file Unit and behavioural tests for the microservice queue model. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/stats.hh"
#include "workload/queueing_service.hh"

using namespace soc;
using namespace soc::workload;
using sim::kMinute;
using sim::kSecond;

namespace
{

MicroserviceParams
simpleService()
{
    MicroserviceParams params;
    params.name = "test";
    params.meanServiceMs = 10.0;
    params.serviceCv = 0.5;
    params.memBoundFrac = 0.2;
    params.workersPerVm = 4;
    return params;
}

/** Quantile @p q of every completion since the last drain. */
double
drainedQuantile(QueueingService &service, double q)
{
    QueueingService::WindowStats window;
    service.drainWindow(window);
    return sim::quantileInPlace(
        window.latencyMs.data(),
        window.latencyMs.data() + window.latencyMs.size(), q);
}

/** Expect the constructor to reject @p params, scheduling nothing. */
void
expectRejected(const MicroserviceParams &params)
{
    sim::Simulator simr;
    EXPECT_THROW(QueueingService(simr, params, 1),
                 std::invalid_argument);
    EXPECT_TRUE(simr.queue().empty());
}

} // namespace

TEST(Catalog, HasEightTunedServices)
{
    const auto catalog = socialNetCatalog();
    ASSERT_EQ(catalog.size(), 8u);
    for (const auto &params : catalog) {
        EXPECT_FALSE(params.name.empty());
        EXPECT_GT(params.meanServiceMs, 0.0);
        EXPECT_GT(params.workersPerVm, 0);
        EXPECT_GE(params.memBoundFrac, 0.0);
        EXPECT_LE(params.memBoundFrac, 1.0);
    }
}

TEST(Catalog, UrlShortIsUnfixable)
{
    // §III-Q1: UrlShort violates its SLO even at low utilization.
    for (const auto &params : socialNetCatalog()) {
        if (params.name == "UrlShort") {
            EXPECT_GT(unloadedP99Ms(params),
                      params.sloMultiplier * params.meanServiceMs);
            return;
        }
    }
    FAIL() << "UrlShort missing from catalog";
}

TEST(Catalog, UsrToleratesHighUtil)
{
    // Usr's unloaded tail sits far below its SLO.
    for (const auto &params : socialNetCatalog()) {
        if (params.name == "Usr") {
            EXPECT_LT(unloadedP99Ms(params),
                      0.6 * params.sloMultiplier *
                          params.meanServiceMs);
            return;
        }
    }
    FAIL() << "Usr missing from catalog";
}

TEST(Scaling, ServiceTimeShrinksWithFrequency)
{
    const auto params = simpleService();
    const double turbo = scaledServiceMs(params, power::kTurboMHz);
    const double oc = scaledServiceMs(params, power::kOverclockMHz);
    EXPECT_DOUBLE_EQ(turbo, params.meanServiceMs);
    EXPECT_LT(oc, turbo);
    // Mem-bound fraction floors the speedup.
    const double max_speedup =
        1.0 / params.memBoundFrac; // infinite frequency limit
    EXPECT_GT(oc, turbo / max_speedup);
}

TEST(Scaling, MemoryBoundServiceBarelyBenefits)
{
    auto params = simpleService();
    params.memBoundFrac = 0.9;
    const double oc = scaledServiceMs(params, power::kOverclockMHz);
    EXPECT_GT(oc, 0.95 * params.meanServiceMs);
}

TEST(QueueingService, CapacityFollowsFrequency)
{
    sim::Simulator simr;
    QueueingService service(simr, simpleService(), 1);
    const double turbo = service.instanceCapacity(power::kTurboMHz);
    const double oc = service.instanceCapacity(power::kOverclockMHz);
    EXPECT_NEAR(turbo, 400.0, 1.0); // 4 workers / 10 ms
    EXPECT_GT(oc, turbo);
}

TEST(QueueingService, CompletesRequestsAtModerateLoad)
{
    sim::Simulator simr;
    QueueingService service(simr, simpleService(), 2);
    service.addInstance();
    service.setArrivalRate(100.0); // rho = 0.25
    simr.runUntil(30 * kSecond);
    EXPECT_GT(service.completedCount(), 2000u);
    EXPECT_LT(drainedQuantile(service, 0.50), 3.0 * 10.0);
}

TEST(QueueingService, LatencyGrowsWithLoad)
{
    sim::Simulator sim_lo, sim_hi;
    QueueingService lo(sim_lo, simpleService(), 3);
    QueueingService hi(sim_hi, simpleService(), 3);
    lo.addInstance();
    hi.addInstance();
    lo.setArrivalRate(80.0);  // rho 0.2
    hi.setArrivalRate(360.0); // rho 0.9
    sim_lo.runUntil(60 * kSecond);
    sim_hi.runUntil(60 * kSecond);
    EXPECT_GT(drainedQuantile(hi, 0.99),
              1.5 * drainedQuantile(lo, 0.99));
}

TEST(QueueingService, OverclockReducesTailUnderLoad)
{
    sim::Simulator sim_a, sim_b;
    QueueingService turbo(sim_a, simpleService(), 4);
    QueueingService oc(sim_b, simpleService(), 4);
    turbo.addInstance(power::kTurboMHz);
    oc.addInstance(power::kOverclockMHz);
    turbo.setArrivalRate(340.0);
    oc.setArrivalRate(340.0);
    sim_a.runUntil(60 * kSecond);
    sim_b.runUntil(60 * kSecond);
    EXPECT_LT(drainedQuantile(oc, 0.99), drainedQuantile(turbo, 0.99));
}

TEST(QueueingService, ScaleOutReducesTailUnderLoad)
{
    sim::Simulator sim_a, sim_b;
    QueueingService one(sim_a, simpleService(), 5);
    QueueingService two(sim_b, simpleService(), 5);
    one.addInstance();
    two.addInstance();
    two.addInstance();
    one.setArrivalRate(340.0);
    two.setArrivalRate(340.0);
    sim_a.runUntil(60 * kSecond);
    sim_b.runUntil(60 * kSecond);
    EXPECT_LT(drainedQuantile(two, 0.99), drainedQuantile(one, 0.99));
    EXPECT_EQ(two.instanceCount(), 2u);
}

TEST(QueueingService, RetiredInstanceReceivesNoNewWork)
{
    sim::Simulator simr;
    QueueingService service(simr, simpleService(), 6);
    service.addInstance();
    const auto second = service.addInstance();
    EXPECT_TRUE(service.retireInstance());
    EXPECT_EQ(service.instanceCount(), 1u);
    service.setArrivalRate(50.0);
    simr.runUntil(10 * kSecond);
    EXPECT_EQ(service.instantUtilization(second), 0.0);
    EXPECT_GT(service.completedCount(), 100u);
}

TEST(QueueingService, CannotRetireLastInstance)
{
    sim::Simulator simr;
    QueueingService service(simr, simpleService(), 7);
    service.addInstance();
    EXPECT_FALSE(service.retireInstance());
}

TEST(QueueingService, SloViolationsCounted)
{
    sim::Simulator simr;
    auto params = simpleService();
    params.serviceCv = 1.5; // fat tail: some violations guaranteed
    QueueingService service(simr, params, 8);
    service.addInstance();
    service.setArrivalRate(300.0);
    simr.runUntil(30 * kSecond);
    EXPECT_GT(service.violationCount(), 0u);
    EXPECT_LE(service.violationCount(), service.completedCount());
}

TEST(QueueingService, WindowDrainsAndResets)
{
    sim::Simulator simr;
    QueueingService service(simr, simpleService(), 9);
    service.addInstance();
    service.setArrivalRate(200.0);
    simr.runUntil(10 * kSecond);
    QueueingService::WindowStats w1;
    service.drainWindow(w1);
    EXPECT_GT(w1.completed, 0u);
    EXPECT_EQ(w1.latencyMs.size(), w1.completed);
    EXPECT_GT(w1.utilization, 0.1);
    EXPECT_LT(w1.utilization, 1.0);
    QueueingService::WindowStats w2;
    service.drainWindow(w2);
    EXPECT_EQ(w2.completed, 0u);
    EXPECT_TRUE(w2.latencyMs.empty());
}

TEST(QueueingService, DrainTradesBuffersAndKeepsCounting)
{
    // Draining into the same WindowStats hands the caller's old
    // buffer back to the service, cleared; the windows still
    // partition the completions.
    sim::Simulator simr;
    QueueingService service(simr, simpleService(), 14);
    service.addInstance();
    service.setArrivalRate(200.0);
    QueueingService::WindowStats window;
    std::uint64_t completed = 0;
    for (int poll = 1; poll <= 6; ++poll) {
        simr.runUntil(poll * 5 * kSecond);
        service.drainWindow(window);
        EXPECT_EQ(window.latencyMs.size(), window.completed);
        EXPECT_GT(window.completed, 0u);
        completed += window.completed;
    }
    EXPECT_EQ(completed, service.completedCount());
}

TEST(QueueingService, WindowUtilizationTracksLoad)
{
    sim::Simulator simr;
    QueueingService service(simr, simpleService(), 10);
    service.addInstance();
    service.setArrivalRate(200.0); // rho = 0.5
    simr.runUntil(60 * kSecond);
    QueueingService::WindowStats w;
    service.drainWindow(w);
    EXPECT_NEAR(w.utilization, 0.5, 0.08);
}

TEST(QueueingService, ZeroRatePausesArrivals)
{
    sim::Simulator simr;
    QueueingService service(simr, simpleService(), 11);
    service.addInstance();
    service.setArrivalRate(100.0);
    simr.runUntil(5 * kSecond);
    service.setArrivalRate(0.0);
    const auto before = service.completedCount();
    simr.runUntil(6 * kSecond); // drain in-flight work
    const auto drained = service.completedCount();
    simr.runUntil(30 * kSecond);
    EXPECT_EQ(service.completedCount(), drained);
    EXPECT_GE(drained, before);
}

TEST(QueueingService, OverloadDropsAtQueueBound)
{
    sim::Simulator simr;
    auto params = simpleService();
    params.maxQueue = 50;
    QueueingService service(simr, params, 12);
    service.addInstance();
    service.setArrivalRate(2000.0); // rho = 5: hopeless overload
    simr.runUntil(10 * kSecond);
    EXPECT_GT(service.droppedCount(), 0u);
}

TEST(QueueingService, FrequencyChangeAffectsNewWork)
{
    sim::Simulator simr;
    QueueingService service(simr, simpleService(), 13);
    const auto id = service.addInstance();
    EXPECT_EQ(service.frequency(id), power::kTurboMHz);
    service.setFrequency(id, power::kOverclockMHz);
    EXPECT_EQ(service.frequency(id), power::kOverclockMHz);
    service.setFrequency(id, power::kTurboMHz);
    EXPECT_EQ(service.frequency(id), power::kTurboMHz);
}

TEST(QueueingService, RejectsWorkersPerVmBelowOne)
{
    // Zero workers gave zero capacity: every request queued forever
    // and the dispatch divided by zero.
    for (const int workers : {0, -1}) {
        auto params = simpleService();
        params.workersPerVm = workers;
        expectRejected(params);
    }
}

TEST(QueueingService, RejectsBadMeanServiceMs)
{
    for (const double mean :
         {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        auto params = simpleService();
        params.meanServiceMs = mean;
        expectRejected(params);
    }
}

TEST(QueueingService, RejectsBadSloMultiplier)
{
    for (const double slo :
         {0.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        auto params = simpleService();
        params.sloMultiplier = slo;
        expectRejected(params);
    }
}

TEST(QueueingService, RejectsBadServiceCv)
{
    // The lognormal shape log(1 + cv^2) is cached at construction:
    // NaN here would poison every service time.
    for (const double cv :
         {-0.1, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        auto params = simpleService();
        params.serviceCv = cv;
        expectRejected(params);
    }
}

TEST(QueueingService, RejectsMemBoundFracOutsideUnitInterval)
{
    for (const double frac :
         {-0.01, 1.01, std::numeric_limits<double>::quiet_NaN()}) {
        auto params = simpleService();
        params.memBoundFrac = frac;
        expectRejected(params);
    }
}

TEST(QueueingService, AcceptsBoundaryParameters)
{
    // A deterministic service (cv 0) and both ends of the memory-
    // bound range are valid.
    sim::Simulator simr;
    auto params = simpleService();
    params.serviceCv = 0.0;
    params.memBoundFrac = 1.0;
    params.workersPerVm = 1;
    QueueingService service(simr, params, 15);
    service.addInstance();
    service.setArrivalRate(20.0);
    simr.runUntil(5 * kSecond);
    EXPECT_GT(service.completedCount(), 0u);
    params.memBoundFrac = 0.0;
    EXPECT_NO_THROW(QueueingService(simr, params, 16));
}
