#include "core/lifetime.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace soc
{
namespace core
{

LifetimeModel::LifetimeModel(const power::PowerModel &power,
                             LifetimeParams params)
    : power_(power), params_(params)
{
    // Reference point: a fully utilized core at max turbo ages at
    // exactly the rated rate (vendors assume near-100% usage when
    // qualifying parts, §III-Q2).
    refVolts_ = power_.voltage(power::kTurboMHz);
    refTempC_ = power_.temperature(1.0, power::kTurboMHz);
}

double
LifetimeModel::agingRate(double util, power::FreqMHz f) const
{
    util = std::clamp(util, 0.0, 1.0);
    const double activity =
        params_.utilFloor + (1.0 - params_.utilFloor) * util;
    const double volt_accel = std::exp(
        params_.betaVolts * (power_.voltage(f) - refVolts_));
    // The Celsius delta degenerates to a dimensionless exponent
    // argument here; .count() is the audited use site.
    // soclint:allow(UNIT-003)
    const double temp_accel = std::exp(
        params_.betaTemp *
        (power_.temperature(util, f) - refTempC_).count());
    return activity * volt_accel * temp_accel;
}

double
LifetimeModel::agingOver(sim::Tick span, double util,
                         power::FreqMHz f) const
{
    return agingRate(util, f) * static_cast<double>(span);
}

double
LifetimeModel::maxOverclockDuty(double util, power::FreqMHz f_oc,
                                double budget_rate) const
{
    const double base = agingRate(util, power::kTurboMHz);
    const double boosted = agingRate(util, f_oc);
    if (boosted <= base)
        return 1.0;
    const double duty = (budget_rate - base) / (boosted - base);
    return std::clamp(duty, 0.0, 1.0);
}

OverclockBudget::OverclockBudget(sim::Tick epoch, double fraction,
                                 int cores, double carryover_cap)
    : epoch_(epoch), fraction_(fraction)
{
    // A zero epoch divides by zero at the first roll; a fraction
    // outside [0, 1] (or NaN) is an allowance no core can have.
    if (epoch_ <= 0)
        throw std::invalid_argument("OverclockBudget: epoch must be > 0");
    if (!(fraction_ >= 0.0 && fraction_ <= 1.0)) {
        throw std::invalid_argument(
            "OverclockBudget: fraction must be in [0, 1]");
    }
    if (cores <= 0)
        throw std::invalid_argument("OverclockBudget: cores must be > 0");
    allowance_ = static_cast<sim::Tick>(
        fraction_ * static_cast<double>(epoch_) * cores);
    carryCap_ = static_cast<sim::Tick>(
        carryover_cap * static_cast<double>(allowance_));
    available_ = allowance_;
}

void
OverclockBudget::rollTo(sim::Tick now)
{
    const std::int64_t target = now / epoch_;
    while (currentEpoch_ < target) {
        ++currentEpoch_;
        // Carry over unused (non-reserved) budget, capped.
        const sim::Tick carry =
            std::min(std::max<sim::Tick>(available_, 0), carryCap_);
        available_ = allowance_ + carry;
        // Reservations do not survive epochs: schedule-based
        // reservations are per-epoch (§IV-B).
        reserved_ = 0;
    }
}

sim::Tick
OverclockBudget::remaining(sim::Tick now)
{
    rollTo(now);
    return std::max<sim::Tick>(0, available_ - reserved_);
}

void
OverclockBudget::consume(sim::Tick core_time, sim::Tick now)
{
    rollTo(now);
    // Consumption first eats any reservation of the caller's; the
    // budget does not track per-owner reservations, so treat the
    // consumed amount as drawing down reservations first.
    const sim::Tick from_reserved = std::min(reserved_, core_time);
    reserved_ -= from_reserved;
    available_ -= core_time;
    totalConsumed_ += core_time;
    if (available_ < 0) {
        overdraft_ += -available_;
        available_ = 0;
    }
}

bool
OverclockBudget::tryReserve(sim::Tick core_time, sim::Tick now)
{
    rollTo(now);
    if (available_ - reserved_ < core_time)
        return false;
    reserved_ += core_time;
    return true;
}

void
OverclockBudget::release(sim::Tick core_time, sim::Tick now)
{
    rollTo(now);
    reserved_ = std::max<sim::Tick>(0, reserved_ - core_time);
}

sim::Tick
OverclockBudget::reserved(sim::Tick now)
{
    rollTo(now);
    return reserved_;
}

sim::Tick
OverclockBudget::timeToExhaustion(sim::Tick now, double burn_rate)
{
    rollTo(now);
    if (burn_rate <= 0.0)
        return std::numeric_limits<sim::Tick>::max();
    const sim::Tick left = remaining(now);
    return static_cast<sim::Tick>(
        static_cast<double>(left) / burn_rate);
}

WearJournal::WearJournal(int cores, sim::Tick epoch_len)
    : epochLen_(epoch_len)
{
    // Core indices are 16-bit, as in the sOA's core sets.
    if (cores <= 0 || cores > 65536) {
        throw std::invalid_argument(
            "WearJournal: cores must be in [1, 65536]");
    }
    if (epoch_len <= 0)
        throw std::invalid_argument("WearJournal: epoch must be > 0");
    coreUsedLatest_.assign(static_cast<std::size_t>(cores), 0);
}

void
WearJournal::append(std::span<const std::uint16_t> cores,
                    sim::Tick core_time, sim::Tick at)
{
    if (core_time <= 0 || cores.empty())
        return;
    const std::int64_t epoch = at / epochLen_;
    if (epochs_.empty() || epoch != latestEpoch_) {
        std::fill(coreUsedLatest_.begin(), coreUsedLatest_.end(), 0);
        latestEpoch_ = epoch;
    }
    if (epochs_.empty() || epochs_.back().epoch != epoch)
        epochs_.push_back({epoch, 0});
    epochs_.back().coreTime +=
        core_time * static_cast<sim::Tick>(cores.size());
    for (const std::uint16_t core : cores) {
        assert(core < coreUsedLatest_.size());
        coreUsedLatest_[core] += core_time;
    }
    ++appends_;
}

void
WearJournal::append(int core, sim::Tick core_time, sim::Tick at)
{
    assert(core >= 0 &&
           core < static_cast<int>(coreUsedLatest_.size()));
    const auto index = static_cast<std::uint16_t>(core);
    append(std::span<const std::uint16_t>(&index, 1), core_time, at);
}

sim::Tick
WearJournal::totalCoreTime() const
{
    sim::Tick total = 0;
    for (const auto &record : epochs_)
        total += record.coreTime;
    return total;
}

void
WearJournal::replay(OverclockBudget &budget,
                    std::vector<sim::Tick> &core_used,
                    sim::Tick now) const
{
    // Applying each epoch's total at that epoch's start reproduces
    // the live carry-over trajectory: the carry at each roll depends
    // only on the epoch's total consumption, not on when within the
    // epoch it happened.
    for (const auto &record : epochs_)
        budget.consume(record.coreTime, record.epoch * epochLen_);
    std::fill(core_used.begin(), core_used.end(), 0);
    if (!epochs_.empty() && latestEpoch_ == now / epochLen_) {
        for (std::size_t core = 0;
             core < core_used.size() &&
             core < coreUsedLatest_.size();
             ++core) {
            core_used[core] = coreUsedLatest_[core];
        }
    }
}

} // namespace core
} // namespace soc
