/**
 * @file
 * Differential test for the sOA's core picker.  Seeded random
 * request/stop/tick/crash sequences run on one agent, and every core
 * set it picks is compared with a straightforward full scan over
 * (epoch wear, core index): the selection the agent made before it
 * kept its free cores in an ordered list.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "core/soa.hh"
#include "sim/rng.hh"

using namespace soc;
using namespace soc::core;
using sim::kMinute;
using sim::kSecond;
using sim::Tick;

namespace
{

const power::PowerModel &
model()
{
    static const power::PowerModel instance;
    return instance;
}

/**
 * The reference picker: the @p count least-worn non-busy cores in
 * (wear, index) order, then, if those run out, the least-worn busy
 * ones.  A k-selection scan over all cores, as the agent once did on
 * every pick.
 */
std::vector<int>
referencePick(int count, const std::vector<char> &busy,
              const std::vector<Tick> &wear)
{
    auto before = [&](int a, int b) {
        return wear[a] != wear[b] ? wear[a] < wear[b] : a < b;
    };
    std::vector<int> picked;
    const int total = static_cast<int>(busy.size());
    auto selectInto = [&](char want_busy) {
        const std::size_t base = picked.size();
        if (static_cast<int>(base) >= count)
            return;
        const std::size_t room = static_cast<std::size_t>(count) - base;
        for (int core = 0; core < total; ++core) {
            if (busy[core] != want_busy)
                continue;
            if (picked.size() - base < room) {
                picked.push_back(core);
            } else if (before(core, picked.back())) {
                picked.back() = core;
            } else {
                continue;
            }
            for (std::size_t i = picked.size() - 1;
                 i > base && before(picked[i], picked[i - 1]); --i)
                std::swap(picked[i], picked[i - 1]);
        }
    };
    selectInto(0);
    selectInto(1);
    return picked;
}

using CoreSets = std::map<int, std::vector<int>>;

/** What the sequences exercised; each must be non-zero. */
struct Coverage {
    int grantsChecked = 0;
    int reuseGrants = 0;
    int reschedulesChecked = 0;
    int epochRolls = 0;
    int crashes = 0;
    std::uint64_t denials = 0;
    std::uint64_t flapDenials = 0;
};

class PickerHarness
{
  public:
    PickerHarness(SoaConfig cfg, std::uint64_t seed)
        : cfg_(cfg), rng_(seed)
    {
        server_ = &rack_.addServer(&model());
        for (int g = 0; g < 8; ++g)
            groups_.push_back(
                server_->addGroup(8, 0.6, power::kTurboMHz, 1 + g % 3));
        soa_ = std::make_unique<ServerOverclockingAgent>(*server_, cfg,
                                                         &rack_);
        assignBudget();
    }

    void
    run(Tick until, Coverage &cov)
    {
        std::int64_t epoch = 0;
        for (; now_ <= until; now_ += 5 * kSecond) {
            if (now_ / cfg_.budgetEpoch != epoch) {
                epoch = now_ / cfg_.budgetEpoch;
                ++cov.epochRolls;
            }
            const int ops = static_cast<int>(rng_.uniformInt(0, 3));
            for (int op = 0; op < ops; ++op)
                step(cov);
            checkedTick(cov);
            if (::testing::Test::HasFailure())
                return;
        }
        cov.denials += soa_->stats().rejects - soa_->stats().flapDenied;
        cov.flapDenials += soa_->stats().flapDenied;
    }

  private:
    int
    randomGroup()
    {
        return groups_[static_cast<std::size_t>(
            rng_.uniformInt(0, static_cast<std::int64_t>(groups_.size()) -
                                   1))];
    }

    void
    assignBudget()
    {
        // From denying most requests to admitting nearly all.
        soa_->assignBudget(ProfileTemplate::flat(
            static_cast<double>(rng_.uniformInt(300, 520))));
    }

    void
    step(Coverage &cov)
    {
        const auto roll = rng_.uniformInt(0, 99);
        if (roll < 55)
            request(cov);
        else if (roll < 80)
            soa_->stopOverclock(randomGroup(), now_);
        else if (roll < 85)
            assignBudget();
        else if (roll == 85) {
            soa_->crashRestart(now_);
            ++cov.crashes;
            assignBudget();
        }
    }

    std::vector<char>
    busyCores() const
    {
        std::vector<char> busy(
            static_cast<std::size_t>(server_->totalCores()), 0);
        for (int g : groups_)
            for (int core : soa_->coreSet(g))
                busy[static_cast<std::size_t>(core)] = 1;
        return busy;
    }

    std::vector<Tick>
    wear() const
    {
        std::vector<Tick> out;
        for (int core = 0; core < server_->totalCores(); ++core)
            out.push_back(soa_->coreUsed(core, now_));
        return out;
    }

    CoreSets
    coreSets() const
    {
        CoreSets out;
        for (int g : groups_) {
            const auto cores = soa_->coreSet(g);
            if (soa_->isOverclockActive(g))
                out[g].assign(cores.begin(), cores.end());
        }
        return out;
    }

    void
    request(Coverage &cov)
    {
        OverclockRequest r;
        r.groupId = randomGroup();
        // Mostly VM-sized sets, sometimes enough to book the server.
        const auto size = rng_.uniformInt(0, 9);
        r.cores = static_cast<int>(size < 6   ? rng_.uniformInt(1, 8)
                                   : size < 9 ? rng_.uniformInt(9, 32)
                                              : rng_.uniformInt(33, 64));
        static const Tick durations[] = {30 * kSecond, 2 * kMinute,
                                         10 * kMinute, 60 * kMinute};
        r.duration = durations[rng_.uniformInt(0, 3)];
        r.desiredMHz = power::kOverclockMHz;
        r.priority = 1 + static_cast<int>(rng_.uniformInt(0, 2));

        const bool was_active = soa_->isOverclockActive(r.groupId);
        const std::vector<char> busy = busyCores();
        const std::vector<Tick> worn = wear();
        if (!soa_->requestOverclock(r, now_).granted || was_active)
            return;
        const auto got = soa_->coreSet(r.groupId);
        const std::vector<int> expect = referencePick(r.cores, busy, worn);
        ASSERT_EQ(std::vector<int>(got.begin(), got.end()), expect)
            << "grant of " << r.cores << " cores to group " << r.groupId
            << " at t=" << now_;
        ++cov.grantsChecked;
        if (std::count(busy.begin(), busy.end(), 0) < r.cores)
            ++cov.reuseGrants;
    }

    /**
     * Tick, then check every core-exhaustion reschedule it made.  The
     * agent walks its grants in group order and picks each fresh set
     * while the old one is still held; grants walked earlier already
     * hold their fresh sets, and grants expiring this tick still hold
     * theirs.  Free cores are not charged, so their wear after the
     * tick is their wear at the pick.
     */
    void
    checkedTick(Coverage &cov)
    {
        const CoreSets before = coreSets();
        const std::uint64_t reschedules = soa_->stats().coreReschedules;
        soa_->tick(now_);
        const CoreSets after = coreSets();
        const std::vector<Tick> worn = wear();

        CoreSets held_at_pick = before;
        int found = 0;
        for (const auto &[g, old_set] : before) {
            const auto it = after.find(g);
            if (it == after.end() || it->second == old_set)
                continue;
            ++found;
            std::vector<char> busy(worn.size(), 0);
            for (const auto &[h, cores] : held_at_pick)
                for (int core : cores)
                    busy[static_cast<std::size_t>(core)] = 1;
            const int k = static_cast<int>(old_set.size());
            const int free =
                static_cast<int>(std::count(busy.begin(), busy.end(), 0));
            // Held cores' wear at the pick is not observable after
            // the tick: check the free part of the set, and that the
            // rest was held.
            const std::vector<int> expect = referencePick(
                std::min(k, free), busy, worn);
            const std::vector<int> &got = it->second;
            ASSERT_EQ(static_cast<int>(got.size()), k);
            ASSERT_EQ(std::vector<int>(got.begin(),
                                       got.begin() + static_cast<long>(
                                                         expect.size())),
                      expect)
                << "reschedule of group " << g << " at t=" << now_;
            for (std::size_t i = expect.size(); i < got.size(); ++i)
                ASSERT_TRUE(busy[static_cast<std::size_t>(got[i])]);
            held_at_pick[g] = got;
            ++cov.reschedulesChecked;
        }
        ASSERT_EQ(static_cast<std::uint64_t>(found),
                  soa_->stats().coreReschedules - reschedules);
    }

    SoaConfig cfg_;
    sim::Rng rng_;
    power::Rack rack_{0, power::Watts{4000.0}};
    power::Server *server_;
    std::vector<int> groups_;
    std::unique_ptr<ServerOverclockingAgent> soa_;
    Tick now_ = 0;
};

} // namespace

TEST(SoaPicker, MatchesFullScanOverRandomSequences)
{
    Coverage cov;
    for (const Tick holdoff : {Tick{0}, 2 * kMinute}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SoaConfig cfg;
            // Short epochs and a small per-core allowance: cores wear
            // out within minutes, forcing reschedules, and the wear
            // order resets many times per run.
            cfg.budgetEpoch = 30 * kMinute;
            cfg.overclockFraction = 0.1;
            cfg.flapHoldoff = holdoff;
            PickerHarness harness(cfg, seed * 7919 + holdoff);
            harness.run(4 * sim::kHour, cov);
            ASSERT_FALSE(HasFailure())
                << "seed " << seed << ", holdoff " << holdoff;
        }
    }
    EXPECT_GT(cov.grantsChecked, 1000);
    EXPECT_GT(cov.reuseGrants, 10);
    EXPECT_GT(cov.reschedulesChecked, 50);
    EXPECT_GT(cov.epochRolls, 50);
    EXPECT_GT(cov.crashes, 10);
    EXPECT_GT(cov.denials, 100u);
    EXPECT_GT(cov.flapDenials, 100u);
}
