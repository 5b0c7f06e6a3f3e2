#include "workload/queueing_service.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace soc
{
namespace workload
{

std::vector<MicroserviceParams>
socialNetCatalog()
{
    // Tuned so the characterization findings of §III hold.  Columns:
    // name, mean ms, cv, mem-bound frac, workers/VM.
    std::vector<MicroserviceParams> catalog;
    auto add = [&](const char *name, double mean_ms, double cv,
                   double mem_frac, int workers) {
        MicroserviceParams params;
        params.name = name;
        params.meanServiceMs = mean_ms;
        params.serviceCv = cv;
        params.memBoundFrac = mem_frac;
        params.workersPerVm = workers;
        catalog.push_back(params);
    };
    add("UniqueId", 3.0, 0.50, 0.10, 4);
    add("UrlShort", 5.0, 2.20, 0.15, 2);   // heavy tail: misses SLO
                                           // even at low util
    add("Text", 12.0, 0.65, 0.10, 4);
    add("Media", 25.0, 0.75, 0.55, 4);    // memory-bound
    add("Usr", 4.0, 0.40, 0.20, 8);        // tolerates high util
    add("SocialGraph", 15.0, 0.70, 0.35, 4);
    add("ComposePost", 30.0, 0.70, 0.25, 6);
    add("HomeTimeline", 20.0, 0.75, 0.40, 6);
    return catalog;
}

double
scaledServiceMs(const MicroserviceParams &params, power::FreqMHz f)
{
    const double freq_ratio = power::kTurboMHz / f;
    return params.meanServiceMs *
        ((1.0 - params.memBoundFrac) * freq_ratio +
         params.memBoundFrac);
}

double
unloadedP99Ms(const MicroserviceParams &params)
{
    const double cv = params.serviceCv;
    if (cv <= 0.0)
        return params.meanServiceMs;
    const double sigma2 = std::log(1.0 + cv * cv);
    const double mu = std::log(params.meanServiceMs) - 0.5 * sigma2;
    // z(0.99) = 2.326
    return std::exp(mu + 2.326 * std::sqrt(sigma2));
}

namespace
{

MicroserviceParams
validated(MicroserviceParams params)
{
    auto fail = [&](const std::string &what) {
        throw std::invalid_argument("QueueingService '" + params.name +
                                    "': " + what);
    };
    if (params.workersPerVm < 1) {
        fail("workersPerVm must be >= 1 (got " +
             std::to_string(params.workersPerVm) + ")");
    }
    if (!std::isfinite(params.meanServiceMs) ||
        params.meanServiceMs <= 0.0)
        fail("meanServiceMs must be finite and > 0");
    if (!std::isfinite(params.sloMultiplier) ||
        params.sloMultiplier <= 0.0)
        fail("sloMultiplier must be finite and > 0");
    if (!std::isfinite(params.serviceCv) || params.serviceCv < 0.0)
        fail("serviceCv must be finite and >= 0");
    if (!(params.memBoundFrac >= 0.0 && params.memBoundFrac <= 1.0))
        fail("memBoundFrac must lie in [0, 1]");
    return params;
}

} // namespace

QueueingService::QueueingService(sim::Simulator &simulator,
                                 MicroserviceParams params,
                                 std::uint64_t seed)
    : sim_(simulator), params_(validated(std::move(params))),
      rng_(seed)
{
    const double cv = params_.serviceCv;
    sigma2_ = std::log(1.0 + cv * cv);
    sigma_ = std::sqrt(sigma2_);
    startTick_ = sim_.now();
    lastBusyUpdate_ = startTick_;
    windowStart_ = startTick_;
}

QueueingService::~QueueingService()
{
    if (pendingArrival_ != sim::kInvalidEvent)
        sim_.queue().cancel(pendingArrival_);
}

double
QueueingService::instanceCapacity(power::FreqMHz f) const
{
    const double service_s = scaledServiceMs(params_, f) / 1000.0;
    return params_.workersPerVm / service_s;
}

QueueingService::InstanceId
QueueingService::addInstance(power::FreqMHz freq)
{
    auto inst = std::make_unique<Instance>();
    inst->owner = this;
    inst->id = nextInstance_++;
    setInstanceFrequency(*inst, freq);
    instances_.push_back(std::move(inst));
    return instances_.back()->id;
}

bool
QueueingService::retireInstance()
{
    if (instanceCount() <= 1)
        return false;
    for (auto it = instances_.rbegin(); it != instances_.rend();
         ++it) {
        if (!(*it)->retired) {
            (*it)->retired = true;
            return true;
        }
    }
    return false;
}

std::size_t
QueueingService::instanceCount() const
{
    std::size_t live = 0;
    for (const auto &inst : instances_)
        if (!inst->retired)
            ++live;
    return live;
}

QueueingService::Instance *
QueueingService::find(InstanceId id)
{
    for (auto &inst : instances_)
        if (inst->id == id)
            return inst.get();
    return nullptr;
}

const QueueingService::Instance *
QueueingService::find(InstanceId id) const
{
    for (const auto &inst : instances_)
        if (inst->id == id)
            return inst.get();
    return nullptr;
}

void
QueueingService::setInstanceFrequency(Instance &inst,
                                      power::FreqMHz f)
{
    inst.freq = f;
    inst.meanServiceMs = scaledServiceMs(params_, f);
    inst.mu = std::log(inst.meanServiceMs) - 0.5 * sigma2_;
}

void
QueueingService::setFrequency(InstanceId id, power::FreqMHz f)
{
    if (auto *inst = find(id))
        setInstanceFrequency(*inst, f);
}

power::FreqMHz
QueueingService::frequency(InstanceId id) const
{
    const auto *inst = find(id);
    return inst != nullptr ? inst->freq : power::kTurboMHz;
}

void
QueueingService::setArrivalRate(double per_second)
{
    ratePerSecond_ = std::max(0.0, per_second);
    if (pendingArrival_ != sim::kInvalidEvent) {
        sim_.queue().cancel(pendingArrival_);
        pendingArrival_ = sim::kInvalidEvent;
    }
    if (ratePerSecond_ > 0.0)
        scheduleNextArrival();
}

// soclint:hot-begin(PERF-001) — the request path (arrival, dispatch,
// queueing, service, completion) and the per-poll drain.  Every
// request of a cluster run passes here; once the wait queues and the
// window buffers have grown to their peak it allocates nothing
// (AllocGuard.WarmQueueingServiceAllocatesNothing).
void
QueueingService::scheduleNextArrival()
{
    if (ratePerSecond_ <= 0.0) {
        pendingArrival_ = sim::kInvalidEvent;
        return;
    }
    const double gap_s = rng_.exponential(1.0 / ratePerSecond_);
    const auto gap = std::max<sim::Tick>(
        1, static_cast<sim::Tick>(gap_s * sim::kSecond));
    pendingArrival_ = sim_.queue().scheduleAfter(gap,
                                                 [this](sim::Tick t) {
        pendingArrival_ = sim::kInvalidEvent;
        onArrival(t);
        scheduleNextArrival();
    });
}

void
QueueingService::onArrival(sim::Tick now)
{
    // Join-shortest-queue dispatch over live instances, measured in
    // outstanding work per worker.
    Instance *best = nullptr;
    double best_load = 0.0;
    for (auto &inst : instances_) {
        if (inst->retired)
            continue;
        const double load =
            (inst->busy + static_cast<double>(inst->queue.size())) /
            params_.workersPerVm;
        if (best == nullptr || load < best_load) {
            best = inst.get();
            best_load = load;
        }
    }
    if (best == nullptr)
        return; // no capacity deployed; drop silently

    if (best->busy < params_.workersPerVm) {
        beginService(*best, now, now);
    } else if (best->queue.size() < params_.maxQueue) {
        best->queue.push(now);
    } else {
        ++dropped_;
        ++window_.dropped;
        ++violations_;
        ++window_.violations;
    }
}

double
QueueingService::sampleServiceMs(const Instance &inst)
{
    if (params_.serviceCv <= 0.0)
        return inst.meanServiceMs;
    return rng_.lognormal(inst.mu, sigma_);
}

void
QueueingService::accrueBusyTime(sim::Tick now)
{
    const double delta =
        static_cast<double>(now - lastBusyUpdate_) * busyWorkers_;
    busyCoreTicks_ += delta;
    windowBusyCoreTicks_ += delta;
    lastBusyUpdate_ = now;
}

void
QueueingService::beginService(Instance &inst, sim::Tick arrival,
                              sim::Tick now)
{
    accrueBusyTime(now);
    ++inst.busy;
    ++busyWorkers_;
    const double service_ms = sampleServiceMs(inst);
    const auto service = std::max<sim::Tick>(
        1, static_cast<sim::Tick>(service_ms * sim::kMillisecond));
    sim_.queue().scheduleAfter(service,
                               [inst = &inst, arrival](sim::Tick t) {
        inst->owner->onCompletion(inst, arrival, t);
    });
}

void
QueueingService::onCompletion(Instance *inst, sim::Tick arrival,
                              sim::Tick now)
{
    accrueBusyTime(now);
    --inst->busy;
    --busyWorkers_;

    const double latency_ms = static_cast<double>(now - arrival) /
        sim::kMillisecond;
    // Amortized: drainWindow() hands each buffer back with its
    // capacity, so a warm window never grows.  soclint:allow(PERF-001)
    window_.latencyMs.push_back(latency_ms);
    ++completed_;
    ++window_.completed;
    if (latency_ms > sloMs()) {
        ++violations_;
        ++window_.violations;
    }

    if (!inst->queue.empty())
        beginService(*inst, inst->queue.pop(), now);
}

double
QueueingService::instantUtilization(InstanceId id) const
{
    const auto *inst = find(id);
    if (inst == nullptr)
        return 0.0;
    return static_cast<double>(inst->busy) / params_.workersPerVm;
}

void
QueueingService::drainWindow(WindowStats &out)
{
    accrueBusyTime(sim_.now());
    std::vector<double> spare = std::move(out.latencyMs);
    spare.clear();
    out = std::move(window_);
    window_ = WindowStats{};
    window_.latencyMs = std::move(spare);

    const sim::Tick elapsed = sim_.now() - windowStart_;
    const double worker_ticks = static_cast<double>(elapsed) *
        params_.workersPerVm *
        std::max<std::size_t>(1, instanceCount());
    out.utilization = worker_ticks > 0.0
        ? windowBusyCoreTicks_ / worker_ticks
        : 0.0;

    windowBusyCoreTicks_ = 0.0;
    windowStart_ = sim_.now();
}

// soclint:hot-end(PERF-001)

double
QueueingService::meanBusyCores() const
{
    const sim::Tick elapsed = sim_.now() - startTick_;
    if (elapsed <= 0)
        return 0.0;
    // busyCoreTicks_ lags by the time since the last update; callers
    // use this for coarse energy accounting only.
    return busyCoreTicks_ / static_cast<double>(elapsed);
}

} // namespace workload
} // namespace soc
