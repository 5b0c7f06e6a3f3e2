#include "core/goa.hh"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace soc
{
namespace core
{

GlobalOverclockingAgent::GlobalOverclockingAgent(
    power::Rack &rack, const power::PowerModel &model,
    GoaConfig config)
    : rack_(rack),
      model_(model),
      config_(config),
      allocator_(model, config.budget)
{
}

void
GlobalOverclockingAgent::addAgent(ServerOverclockingAgent *agent)
{
    if (agent == nullptr)
        throw std::invalid_argument("gOA: null sOA registered");
    if (agents_.size() >= rack_.serverCount()) {
        throw std::invalid_argument(
            "gOA: more sOAs than rack servers");
    }
    // Budget recomputes pair profile i with server i; enforce the
    // pairing at registration instead of mis-assigning later.
    if (&agent->server() != &rack_.server(agents_.size())) {
        throw std::invalid_argument(
            "gOA: sOA registered out of rack server order");
    }
    // The even split of the rack limit is safe with no coordination:
    // it is the degraded-mode floor stale leases decay toward.
    agent->setSafeBudgetWatts(
        rack_.limitWatts() /
        static_cast<double>(rack_.serverCount()));
    agents_.push_back(agent);
}

void
GlobalOverclockingAgent::assignEvenSplit()
{
    if (agents_.empty())
        throw std::logic_error("gOA: assignEvenSplit with no sOAs");
    const power::Watts share =
        rack_.limitWatts() / static_cast<double>(agents_.size());
    for (auto *agent : agents_)
        agent->assignBudget(ProfileTemplate::flat(share.count()));
    lastBudgets_.assign(agents_.size(),
                        ProfileTemplate::flat(share.count()));
}

const std::vector<ServerProfile> &
GlobalOverclockingAgent::pullProfiles(const RecomputeFaults &faults)
{
    if (agents_.empty())
        throw std::logic_error("gOA: pullProfiles with no sOAs");
    lastProfiles_.resize(agents_.size());
    lastProfileValid_.resize(agents_.size(), false);

    for (std::size_t i = 0; i < agents_.size(); ++i) {
        auto *agent = agents_[i];
        const int server = static_cast<int>(i);
        bool reached = true;
        if (faults.telemetryLost) {
            reached = false;
            for (int attempt = 0;
                 attempt < std::max(1, faults.telemetryAttempts);
                 ++attempt) {
                if (!faults.telemetryLost(server, attempt)) {
                    reached = true;
                    break;
                }
                ++stats_.telemetryRetries;
            }
        }
        if (reached) {
            // In place: a recompute landing between slot closes
            // assembles nothing and, once warm, allocates nothing.
            agent->readProfile(lastProfiles_[i], config_.strategy);
            lastProfileValid_[i] = true;
        } else if (lastProfileValid_[i]) {
            // Unreachable server: budget from its last known
            // profile rather than nothing (§III-Q5 degraded mode).
            ++stats_.staleProfiles;
        } else {
            // Never heard from this server at all; assume an idle
            // profile so the split stays conservative for it.
            ++stats_.staleProfiles;
            lastProfiles_[i] = ServerProfile{};
        }
    }
    return lastProfiles_;
}

void
GlobalOverclockingAgent::fillAssignment(BudgetAssignment &assignment,
                                        std::size_t i,
                                        sim::Tick now) const
{
    assignment.budget = lastBudgets_[i];
    assignment.issuedAt = now;
    assignment.leaseUntil =
        config_.leaseTtl > 0 ? now + config_.leaseTtl : 0;
    assignment.rackLimitWatts = rack_.limitWatts();
}

void
GlobalOverclockingAgent::splitPulled(
    const std::vector<double> &usablePerSlot)
{
    if (agents_.empty())
        throw std::logic_error("gOA: recompute with no sOAs");
    // Checked in every build: a split over fewer profiles than sOAs
    // (none pulled yet, or released) would push budgets past the
    // end of lastBudgets_.  splitWeeklyInto checks the row.
    if (lastProfiles_.size() != agents_.size()) {
        throw std::logic_error(
            "gOA: recomputeWithBudget without one pulled profile "
            "per sOA");
    }
    allocator_.splitWeeklyInto(usablePerSlot, lastProfiles_,
                               splitScratch_, lastBudgets_);
    ++recomputes_;
}

void
GlobalOverclockingAgent::recomputeWithBudget(
    sim::Tick now, const std::vector<double> &usablePerSlot)
{
    splitPulled(usablePerSlot);
    // Perfect network: apply each assignment directly through one
    // reused payload instead of materializing a pending batch.
    for (std::size_t i = 0; i < agents_.size(); ++i) {
        fillAssignment(assignScratch_, i, now);
        if (!agents_[i]->assignBudget(assignScratch_, now))
            ++stats_.assignmentsRejected;
    }
}

std::vector<PendingAssignment>
GlobalOverclockingAgent::recomputeWithBudget(
    sim::Tick now, const std::vector<double> &usablePerSlot,
    const RecomputeFaults &faults)
{
    splitPulled(usablePerSlot);
    std::vector<PendingAssignment> pending;
    pending.reserve(agents_.size());
    for (std::size_t i = 0; i < agents_.size(); ++i) {
        const int server = static_cast<int>(i);
        if (faults.budgetLost && faults.budgetLost(server)) {
            ++stats_.assignmentsDropped;
            continue;
        }
        PendingAssignment out;
        out.agent = agents_[i];
        out.serverIndex = server;
        out.deliverAt = now;
        if (faults.budgetDelay) {
            const sim::Tick delay =
                std::max<sim::Tick>(0, faults.budgetDelay(server));
            if (delay > 0) {
                out.deliverAt += delay;
                ++stats_.assignmentsDelayed;
            }
        }
        fillAssignment(out.assignment, i, now);
        if (faults.budgetCorrupt) {
            switch (faults.budgetCorrupt(server)) {
              case 0:
                out.assignment.budget = ProfileTemplate::flat(
                    std::numeric_limits<double>::quiet_NaN());
                break;
              case 1:
                out.assignment.budget = ProfileTemplate::flat(-50.0);
                break;
              case 2:
                out.assignment.budget = ProfileTemplate::flat(
                    (2.0 * rack_.limitWatts()).count());
                break;
              default:
                break;
            }
        }
        pending.push_back(std::move(out));
    }
    return pending;
}

void
GlobalOverclockingAgent::releaseProfiles()
{
    lastProfiles_.clear();
    lastProfiles_.shrink_to_fit();
    // The validity flags must shrink with the storage: a later
    // pullProfiles resizes both in lockstep.
    lastProfileValid_.clear();
    lastProfileValid_.shrink_to_fit();
}

bool
GlobalOverclockingAgent::deliver(const PendingAssignment &pending,
                                 sim::Tick now)
{
    const bool accepted =
        pending.agent->assignBudget(pending.assignment, now);
    if (!accepted)
        ++stats_.assignmentsRejected;
    return accepted;
}

} // namespace core
} // namespace soc
