/** @file Unit tests for the heterogeneous budget allocator (§IV-C). */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "core/budget_allocator.hh"
#include "sim/rng.hh"

using namespace soc;
using namespace soc::core;

namespace
{

const power::PowerModel &
model()
{
    static const power::PowerModel instance;
    return instance;
}

ServerProfile
flatProfile(double watts, double util, double oc_cores,
            double req_cores)
{
    ServerProfile profile;
    profile.power = ProfileTemplate::flat(watts);
    profile.utilization = ProfileTemplate::flat(util);
    profile.overclockedCores = ProfileTemplate::flat(oc_cores);
    profile.requestedCores = ProfileTemplate::flat(req_cores);
    return profile;
}

/** Week of @p rng uniforms in [lo, hi). */
std::vector<double>
randomWeek(sim::Rng &rng, double lo, double hi)
{
    std::vector<double> week(sim::kSlotsPerWeek);
    for (double &v : week)
        v = rng.uniform(lo, hi);
    return week;
}

/** A server profile mixing template strategies: Weekly power and
 *  core counts, a DailyMed utilization built from a week of
 *  history.  Overclocked counts dip below zero (the split clamps
 *  them), and every 7th slot requests no cores, so slots where no
 *  member has demand are common. */
ServerProfile
randomProfile(sim::Rng &rng)
{
    ServerProfile profile;
    profile.power =
        ProfileTemplate::fromWeekly(randomWeek(rng, 0.0, 600.0));
    profile.utilization = ProfileTemplate::build(
        TemplateStrategy::DailyMed,
        telemetry::TimeSeries(0, sim::kSlot,
                              randomWeek(rng, 0.0, 1.0)));
    profile.overclockedCores =
        ProfileTemplate::fromWeekly(randomWeek(rng, -1.0, 8.0));
    std::vector<double> requested = randomWeek(rng, 0.0, 12.0);
    for (std::size_t slot = 0; slot < requested.size(); slot += 7)
        requested[slot] = 0.0;
    profile.requestedCores =
        ProfileTemplate::fromWeekly(std::move(requested));
    return profile;
}

/** A usable row for @p members servers: mostly within the rack's
 *  means, with every 5th slot far below them (predicted overload)
 *  and every 11th at zero. */
std::vector<double>
randomRow(sim::Rng &rng, std::size_t members)
{
    const double m = static_cast<double>(members);
    std::vector<double> row = randomWeek(rng, 200.0 * m, 700.0 * m);
    for (std::size_t slot = 0; slot < row.size(); slot += 5)
        row[slot] = rng.uniform(0.0, 50.0 * m);
    for (std::size_t slot = 0; slot < row.size(); slot += 11)
        row[slot] = 0.0;
    return row;
}

/** Slots a reference split took each special branch on. */
struct BranchCounts {
    int overload = 0;
    int evenSplit = 0;
};

/**
 * The §IV-C split evaluated one slot at a time from the allocator's
 * per-tick regularPower() and overclockDemand(): regular power is
 * the initial budget, the headroom goes by demand share (evenly
 * when no member has demand), and a predicted overload scales the
 * regular budgets to fit.
 */
std::vector<ProfileTemplate>
referenceSplit(const BudgetAllocator &allocator,
               const std::vector<double> &row,
               const std::vector<ServerProfile> &profiles,
               BranchCounts &branches)
{
    const std::size_t n = profiles.size();
    std::vector<std::vector<double>> weeks(
        n, std::vector<double>(sim::kSlotsPerWeek));
    std::vector<double> regular(n);
    std::vector<double> demand(n);
    for (std::size_t slot = 0; slot < row.size(); ++slot) {
        const sim::Tick t = static_cast<sim::Tick>(slot) * sim::kSlot;
        double regular_sum = 0.0;
        double demand_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            regular[i] =
                allocator.regularPower(profiles[i], t).count();
            demand[i] =
                allocator.overclockDemand(profiles[i], t).count();
            regular_sum += regular[i];
            demand_sum += demand[i];
        }
        const double headroom = row[slot] - regular_sum;
        if (headroom <= 0.0)
            ++branches.overload;
        else if (demand_sum <= 0.0)
            ++branches.evenSplit;
        for (std::size_t i = 0; i < n; ++i) {
            if (headroom <= 0.0) {
                const double scale =
                    regular_sum > 0.0 ? row[slot] / regular_sum : 0.0;
                weeks[i][slot] = regular[i] * scale;
            } else {
                weeks[i][slot] = regular[i] +
                    (demand_sum > 0.0
                         ? headroom * (demand[i] / demand_sum)
                         : headroom / static_cast<double>(n));
            }
        }
    }
    std::vector<ProfileTemplate> out;
    for (auto &week : weeks)
        out.push_back(ProfileTemplate::fromWeekly(std::move(week)));
    return out;
}

/** Structurally equal, and every predicted slot equal bit for bit
 *  (operator== alone would let -0.0 match 0.0). */
void
expectBitIdentical(const std::vector<ProfileTemplate> &actual,
                   const std::vector<ProfileTemplate> &expected)
{
    ASSERT_EQ(actual.size(), expected.size());
    std::vector<double> a(sim::kSlotsPerWeek);
    std::vector<double> b(sim::kSlotsPerWeek);
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_TRUE(actual[i] == expected[i]) << "member " << i;
        actual[i].fillWeek(a.data());
        expected[i].fillWeek(b.data());
        EXPECT_EQ(std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(double)),
                  0)
            << "member " << i;
    }
}

/** One split case: profiles and the row they share. */
struct SplitCase {
    std::vector<ServerProfile> profiles;
    std::vector<double> row;
};

/** Member counts chosen so the per-thread scratch grows, shrinks
 *  to one member and grows back. */
std::vector<SplitCase>
splitCases()
{
    sim::Rng rng(4242);
    std::vector<SplitCase> cases;
    const std::size_t member_counts[] = {8, 3, 16, 1, 8};
    for (const std::size_t members : member_counts) {
        SplitCase c;
        for (std::size_t i = 0; i < members; ++i)
            c.profiles.push_back(randomProfile(rng));
        c.row = randomRow(rng, members);
        cases.push_back(std::move(c));
    }
    return cases;
}

/** Every case split in order on the calling thread, reusing one
 *  output vector as the gOA reuses lastBudgets(). */
std::vector<std::vector<ProfileTemplate>>
splitAll(const BudgetAllocator &allocator,
         const std::vector<SplitCase> &cases)
{
    std::vector<std::vector<ProfileTemplate>> results;
    std::vector<ProfileTemplate> out;
    for (const auto &c : cases) {
        allocator.splitWeeklyInto(c.row, c.profiles, out);
        results.push_back(out);
    }
    return results;
}

} // namespace

TEST(BudgetAllocator, PaperWorkedExampleProportions)
{
    // §IV-C: limit 1.3 kW, regular 400/300 W, overclock demand in
    // ratio 1:2 => budgets 400 + 200 = 600 and 300 + 400 = 700.
    // We reproduce the proportions with demand expressed through
    // requested cores (5 vs 10 at equal utilization).
    BudgetConfig cfg;
    cfg.safetyFraction = 0.0;
    BudgetAllocator allocator(model(), cfg);
    const auto budgets = allocator.split(
        power::Watts{1300.0}, {flatProfile(400.0, 0.6, 0.0, 5.0),
                 flatProfile(300.0, 0.6, 0.0, 10.0)});
    ASSERT_EQ(budgets.size(), 2u);
    const double bx = budgets[0].predict(0);
    const double by = budgets[1].predict(0);
    // Headroom = 600 W split 1:2.
    EXPECT_NEAR(bx, 400.0 + 600.0 / 3.0, 1e-6);
    EXPECT_NEAR(by, 300.0 + 2.0 * 600.0 / 3.0, 1e-6);
}

TEST(BudgetAllocator, BudgetsSumToUsableLimit)
{
    BudgetAllocator allocator(model());
    const double limit = 2000.0;
    const auto budgets = allocator.split(
        power::Watts{limit}, {flatProfile(400.0, 0.5, 0.0, 4.0),
                flatProfile(350.0, 0.7, 0.0, 8.0),
                flatProfile(500.0, 0.9, 0.0, 2.0)});
    double sum = 0.0;
    for (const auto &b : budgets)
        sum += b.predict(0);
    EXPECT_NEAR(sum, limit * 0.995, 1e-6); // default 0.5% safety
}

TEST(BudgetAllocator, NoDemandFallsBackToEvenHeadroomSplit)
{
    BudgetConfig cfg;
    cfg.safetyFraction = 0.0;
    BudgetAllocator allocator(model(), cfg);
    const auto budgets = allocator.split(
        power::Watts{1000.0}, {flatProfile(300.0, 0.5, 0.0, 0.0),
                 flatProfile(500.0, 0.5, 0.0, 0.0)});
    EXPECT_NEAR(budgets[0].predict(0), 300.0 + 100.0, 1e-6);
    EXPECT_NEAR(budgets[1].predict(0), 500.0 + 100.0, 1e-6);
}

TEST(BudgetAllocator, OverloadScalesRegularBudgets)
{
    BudgetConfig cfg;
    cfg.safetyFraction = 0.0;
    BudgetAllocator allocator(model(), cfg);
    // Regular draws sum to 1200 W against a 600 W limit.
    const auto budgets = allocator.split(
        power::Watts{600.0}, {flatProfile(800.0, 0.9, 0.0, 4.0),
                flatProfile(400.0, 0.9, 0.0, 4.0)});
    EXPECT_NEAR(budgets[0].predict(0), 400.0, 1e-6);
    EXPECT_NEAR(budgets[1].predict(0), 200.0, 1e-6);
}

TEST(BudgetAllocator, RegularPowerSubtractsOverclockSurcharge)
{
    BudgetAllocator allocator(model());
    // A server that historically ran 6 cores overclocked: its
    // "regular" power strips the modelled surcharge.
    const auto profile = flatProfile(450.0, 0.8, 6.0, 6.0);
    const power::Watts surcharge = model().overclockExtraPower(
        0.8, power::kOverclockMHz, 6);
    EXPECT_NEAR(allocator.regularPower(profile, 0).count(),
                450.0 - surcharge.count(), 1e-9);
}

TEST(BudgetAllocator, DemandUsesRequestedCores)
{
    BudgetAllocator allocator(model());
    const auto quiet = flatProfile(400.0, 0.8, 0.0, 0.0);
    const auto hungry = flatProfile(400.0, 0.8, 0.0, 12.0);
    EXPECT_EQ(allocator.overclockDemand(quiet, 0),
              power::Watts{0.0});
    EXPECT_GT(allocator.overclockDemand(hungry, 0),
              power::Watts{0.0});
}

TEST(BudgetAllocator, BudgetNeverNegative)
{
    BudgetAllocator allocator(model());
    const auto budgets = allocator.split(
        power::Watts{100.0}, {flatProfile(800.0, 1.0, 0.0, 8.0),
                flatProfile(0.0, 0.0, 0.0, 0.0)});
    for (const auto &b : budgets)
        for (sim::Tick t = 0; t < sim::kWeek; t += sim::kHour)
            EXPECT_GE(b.predict(t), 0.0);
}

TEST(BudgetAllocator, TimeVaryingProfilesGetTimeVaryingBudgets)
{
    // Server A is hungry at night, server B during the day; the
    // headroom must follow demand across slots.
    std::vector<double> day_hungry(sim::kSlotsPerWeek, 0.0);
    std::vector<double> night_hungry(sim::kSlotsPerWeek, 0.0);
    for (int slot = 0; slot < sim::kSlotsPerWeek; ++slot) {
        const double hour =
            sim::hourOfDay(static_cast<sim::Tick>(slot) * sim::kSlot);
        if (hour >= 9 && hour < 17)
            day_hungry[slot] = 8.0;
        else
            night_hungry[slot] = 8.0;
    }
    ServerProfile a = flatProfile(400.0, 0.6, 0.0, 0.0);
    a.requestedCores = ProfileTemplate::fromWeekly(day_hungry);
    ServerProfile b = flatProfile(400.0, 0.6, 0.0, 0.0);
    b.requestedCores = ProfileTemplate::fromWeekly(night_hungry);

    BudgetConfig cfg;
    cfg.safetyFraction = 0.0;
    BudgetAllocator allocator(model(), cfg);
    const auto budgets =
        allocator.split(power::Watts{1000.0}, {a, b});

    const sim::Tick noon = 12 * sim::kHour;
    const sim::Tick midnight = 1 * sim::kHour;
    EXPECT_GT(budgets[0].predict(noon), budgets[1].predict(noon));
    EXPECT_LT(budgets[0].predict(midnight),
              budgets[1].predict(midnight));
}

TEST(BudgetAllocator, SingleServerGetsWholeUsableLimit)
{
    BudgetConfig cfg;
    cfg.safetyFraction = 0.0;
    BudgetAllocator allocator(model(), cfg);
    const auto budgets = allocator.split(
        power::Watts{900.0}, {flatProfile(300.0, 0.5, 0.0, 4.0)});
    EXPECT_NEAR(budgets[0].predict(0), 900.0, 1e-6);
}

TEST(BudgetAllocator, SplitMatchesPerSlotReferenceAcrossMemberCounts)
{
    // One thread, so each split reuses the scratch the previous one
    // sized: stale rows from a larger split must never leak into a
    // smaller one, nor a smaller one's sums into the next.
    BudgetAllocator allocator(model());
    const auto cases = splitCases();
    const auto results = splitAll(allocator, cases);
    ASSERT_EQ(results.size(), cases.size());
    for (std::size_t k = 0; k < cases.size(); ++k) {
        SCOPED_TRACE("case " + std::to_string(k) + " (" +
                     std::to_string(cases[k].profiles.size()) +
                     " members)");
        BranchCounts branches;
        expectBitIdentical(results[k],
                           referenceSplit(allocator, cases[k].row,
                                          cases[k].profiles,
                                          branches));
        // The inputs reach both special cases of the formula.
        EXPECT_GT(branches.overload, 0);
        EXPECT_GT(branches.evenSplit, 0);
    }
}

TEST(BudgetAllocator, ConcurrentSplitsMatchSingleThread)
{
    // The split's scratch is per thread: two threads splitting at
    // once (shared allocator and inputs, as the lockstep workers
    // share the model) must each reproduce the one-thread results.
    // scripts/tsan_check.sh runs this under ThreadSanitizer.
    const BudgetAllocator allocator(model());
    const auto cases = splitCases();
    const auto expected = splitAll(allocator, cases);
    std::vector<std::vector<ProfileTemplate>> first;
    std::vector<std::vector<ProfileTemplate>> second;
    std::thread a([&] { first = splitAll(allocator, cases); });
    std::thread b([&] { second = splitAll(allocator, cases); });
    a.join();
    b.join();
    ASSERT_EQ(first.size(), expected.size());
    ASSERT_EQ(second.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
        SCOPED_TRACE("case " + std::to_string(k));
        expectBitIdentical(first[k], expected[k]);
        expectBitIdentical(second[k], expected[k]);
    }
}

TEST(BudgetAllocator, EmptyProfilesThrowBeforeTouchingOutput)
{
    BudgetAllocator allocator(model());
    const std::vector<double> row(sim::kSlotsPerWeek, 1000.0);
    std::vector<ProfileTemplate> out(2, ProfileTemplate::flat(7.0));
    EXPECT_THROW(allocator.splitWeeklyInto(row, {}, out),
                 std::invalid_argument);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].predict(0), 7.0);
    EXPECT_THROW(allocator.split(power::Watts{1000.0}, {}),
                 std::invalid_argument);
}
