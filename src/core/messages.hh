/**
 * @file
 * Message types exchanged between the SmartOClock agents (Fig. 10):
 * WI agent -> sOA overclocking requests, sOA -> WI exhaustion and
 * rejection signals, and gOA -> sOA budget assignments.
 */

#ifndef SOC_CORE_MESSAGES_HH
#define SOC_CORE_MESSAGES_HH

#include <cstdint>

#include "core/profile_template.hh"
#include "power/frequency.hh"
#include "power/units.hh"
#include "sim/time.hh"

namespace soc
{
namespace core
{

/** How an overclocking request was triggered (§IV-A). */
enum class TriggerKind {
    Metrics,  ///< reactive: latency/utilization threshold crossed
    Schedule, ///< proactive: pre-declared high-traffic window
};

/**
 * Metrics a local WI agent reports for its VM (one poll window).
 * Crosses the WI hint channel as a wire::MetricsWindow frame, so
 * every consumer (GlobalWiAgent::onMetrics, the ingress parser)
 * validates it fail-closed: NaN/negative fields are rejected and
 * counted, never clamped.
 */
struct VmMetrics {
    double p99LatencyMs = 0.0;
    double meanLatencyMs = 0.0;
    /** Busy-core fraction in [0, 1]. */
    double utilization = 0.0;
    std::uint64_t completed = 0;
};

/** A schedule-based overclocking window (§IV-A), declarable over
 *  the hint channel as a wire::ScheduleDeclaration frame. */
struct ScheduleWindow {
    /** Bitmask of days, bit 0 = Monday; 0x1F = weekdays. */
    int dayMask = 0x1f;
    /** Window start/end, minutes since midnight. */
    int startMinute = 0;
    int endMinute = 0;

    bool contains(sim::Tick t) const;
};

/**
 * A request from a VM's local WI agent to its server's sOA to run
 * the VM's cores beyond turbo.
 */
struct OverclockRequest {
    /** Core group (VM) on the server. */
    int groupId = -1;
    /** Cores the VM wants overclocked. */
    int cores = 0;
    /** Desired frequency; the sOA may grant less and ramp. */
    power::FreqMHz desiredMHz = power::kOverclockMHz;
    TriggerKind trigger = TriggerKind::Metrics;
    /**
     * Requested duration.  Schedule-based requests reserve power and
     * lifetime budget for this span; metrics-based requests use it
     * as the admission horizon and are re-evaluated continuously.
     */
    sim::Tick duration = 15 * sim::kMinute;
    /** Enforcement priority (higher throttled last). */
    int priority = 1;
};

/** Why the sOA granted or denied an OverclockRequest. */
enum class AdmissionReason {
    None,                        ///< not decided yet
    Ok,                          ///< power and lifetime checks pass
    Extended,                    ///< already granted: extended
    FlapHysteresis,              ///< inside the flap holdoff window
    PowerBudgetInsufficient,     ///< power budget cannot absorb it
    OverclockBudgetInsufficient, ///< schedule reservation failed
    OverclockBudgetExhausted,    ///< lifetime cannot sustain it
    OracleRackWouldCap,          ///< Central: rack would cap
    OracleFits,                  ///< Central: rack has headroom
};

/** Printable name of @p reason, for logs. */
inline const char *
admissionReasonName(AdmissionReason reason)
{
    switch (reason) {
    case AdmissionReason::None: return "none";
    case AdmissionReason::Ok: return "ok";
    case AdmissionReason::Extended: return "extended";
    case AdmissionReason::FlapHysteresis: return "flap hysteresis";
    case AdmissionReason::PowerBudgetInsufficient:
        return "power budget insufficient";
    case AdmissionReason::OverclockBudgetInsufficient:
        return "overclock budget insufficient";
    case AdmissionReason::OverclockBudgetExhausted:
        return "overclock budget exhausted";
    case AdmissionReason::OracleRackWouldCap:
        return "oracle: rack would cap";
    case AdmissionReason::OracleFits: return "oracle: fits";
    }
    return "unknown";
}

/** sOA's answer to an OverclockRequest. */
struct AdmissionDecision {
    bool granted = false;
    /** Initially granted frequency (feedback loop may raise it). */
    power::FreqMHz grantedMHz = power::kTurboMHz;
    /** Time at which the grant expires and must be re-admitted. */
    sim::Tick grantedUntil = 0;
    /** Why it was granted or denied. */
    AdmissionReason reason = AdmissionReason::None;
};

/**
 * gOA -> sOA budget assignment (the weekly recompute push of
 * Fig. 10), carried as a message so the chaos harness can lose,
 * delay or corrupt it in flight.  The sOA validates the payload on
 * receipt (finite, non-negative, within the rack limit) and rejects
 * anything else, keeping its previous budget.
 */
struct BudgetAssignment {
    ProfileTemplate budget;
    /** When the gOA computed this budget. */
    sim::Tick issuedAt = 0;
    /**
     * Lease expiry.  0 means no lease: the budget stays valid until
     * replaced (the paper's steady-state behavior).  When set and
     * the lease goes stale — the gOA failed to refresh in time — the
     * sOA decays its effective budget toward the guaranteed-safe
     * even-split floor (degraded mode, §III-Q5).
     */
    sim::Tick leaseUntil = 0;
    /** Issuing rack's total power limit, for receiver-side sanity
     *  validation (one server's budget can never exceed it). */
    power::Watts rackLimitWatts{0.0};
};

/** Why an sOA predicts it cannot keep overclocking (§IV-D). */
enum class ExhaustionKind {
    PowerBudget,     ///< predicted draw will exceed power budget
    OverclockBudget, ///< per-core lifetime budget running out
};

/**
 * Proactive signal from the sOA to the global WI agent: within
 * `eta`, overclocking for this VM will no longer be possible, so
 * corrective action (scale-out) should start now.
 */
struct ExhaustionSignal {
    int groupId = -1;
    ExhaustionKind kind = ExhaustionKind::PowerBudget;
    /** Predicted time of exhaustion. */
    sim::Tick eta = 0;
};

} // namespace core
} // namespace soc

#endif // SOC_CORE_MESSAGES_HH
