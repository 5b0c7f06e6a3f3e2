#include "core/admission.hh"

#include <algorithm>

namespace soc
{
namespace core
{

AdmissionController::AdmissionController(const power::PowerModel &model,
                                         AdmissionConfig config)
    : model_(model), config_(config)
{
}

power::Watts
AdmissionController::surchargeWatts(const OverclockRequest &request)
    const
{
    return model_.overclockExtraPower(config_.worstCaseUtil,
                                      request.desiredMHz,
                                      request.cores);
}

sim::Tick
AdmissionController::firstPowerViolation(const AdmissionInputs &in,
                                         power::Watts extra,
                                         sim::Tick horizon) const
{
    const sim::Tick end = in.now + horizon;

    // Instantaneous check against the current budget.  Templates
    // store raw doubles (unit-agnostic telemetry); re-enter the unit
    // at the boundary.
    const power::Watts budget_now = in.budget != nullptr
        ? power::Watts{in.budget->predict(in.now)} + in.bonusWatts
        : power::Watts{0.0};
    if (in.budget != nullptr &&
        in.measuredWatts + extra > budget_now) {
        return in.now;
    }

    // Look-ahead over template slots when a server template exists.
    if (in.serverPower != nullptr && in.budget != nullptr) {
        for (sim::Tick t = in.now; t < end; t += sim::kSlot) {
            const power::Watts predicted{in.serverPower->predict(t)};
            const power::Watts budget =
                power::Watts{in.budget->predict(t)} + in.bonusWatts;
            if (predicted + extra > budget)
                return t;
        }
    }
    return end;
}

AdmissionDecision
AdmissionController::decide(const OverclockRequest &request,
                            const AdmissionInputs &in) const
{
    AdmissionDecision decision;
    decision.grantedMHz = request.desiredMHz;

    sim::Tick granted_until = in.now + request.duration;

    if (config_.checkPower && in.budget != nullptr) {
        const power::Watts extra = surchargeWatts(request);
        const sim::Tick violation =
            firstPowerViolation(in, extra, request.duration);
        if (violation <= in.now + config_.minGrant) {
            decision.granted = false;
            decision.reason = AdmissionReason::PowerBudgetInsufficient;
            return decision;
        }
        granted_until = std::min(granted_until, violation);
    }

    if (config_.checkLifetime && in.lifetime != nullptr) {
        const sim::Tick span = granted_until - in.now;
        const sim::Tick core_time =
            span * static_cast<sim::Tick>(request.cores);
        if (request.trigger == TriggerKind::Schedule) {
            if (!in.lifetime->tryReserve(core_time, in.now)) {
                decision.granted = false;
                decision.reason =
                    AdmissionReason::OverclockBudgetInsufficient;
                return decision;
            }
        } else {
            // Metrics-based: grant only as long as the remaining
            // budget sustains these cores.
            const sim::Tick remaining =
                in.lifetime->remaining(in.now);
            const sim::Tick sustain = request.cores > 0
                ? remaining / request.cores
                : 0;
            if (sustain < config_.minGrant) {
                decision.granted = false;
                decision.reason =
                    AdmissionReason::OverclockBudgetExhausted;
                return decision;
            }
            granted_until =
                std::min(granted_until, in.now + sustain);
        }
    }

    decision.granted = true;
    decision.grantedUntil = granted_until;
    decision.reason = AdmissionReason::Ok;
    return decision;
}

} // namespace core
} // namespace soc
