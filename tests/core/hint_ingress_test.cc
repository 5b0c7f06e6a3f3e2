/**
 * @file
 * HintIngress behavior tests (DESIGN.md §12): bounded capacity with
 * the oldest-duplicate-first drop policy, exact-duplicate
 * suppression, staleness, drain batching/backpressure, snapshot
 * re-entrancy, and the sOA flap-hysteresis window the ingress
 * config feeds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <tuple>
#include <vector>

#include "core/hint_ingress.hh"
#include "core/soa.hh"
#include "power/power_model.hh"
#include "sim/rng.hh"

using namespace soc;
using namespace soc::core;
using wire::HintHeader;
using wire::HintKind;
using wire::Reject;
using sim::kHour;
using sim::kMinute;
using sim::kSecond;

namespace
{

wire::Frame
stopFrame(int server, std::int32_t vm, std::uint64_t seq,
          sim::Tick issued_at = 0)
{
    HintHeader h;
    h.server = server;
    h.vmId = vm;
    h.seq = seq;
    h.issuedAt = issued_at;
    return encodeStopRequest(h);
}

/** Drain everything, recording (server, vmId, seq) in order. */
std::vector<std::tuple<int, std::int32_t, std::uint64_t>>
drainAll(HintIngress &ingress, sim::Tick now = 0)
{
    std::vector<std::tuple<int, std::int32_t, std::uint64_t>> got;
    ingress.drain(now, [&](const wire::ParsedHint &h) {
        got.emplace_back(h.server, h.vmId, h.seq);
        return true;
    });
    return got;
}

} // namespace

TEST(HintIngress, AcceptsAndDrainsFifo)
{
    HintIngressConfig cfg;
    cfg.enabled = true;
    HintIngress ingress(cfg);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(ingress.offer(stopFrame(0, 1, i), 0), Reject::None);
    EXPECT_EQ(ingress.depth(), 5u);
    const auto got = drainAll(ingress);
    ASSERT_EQ(got.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(std::get<2>(got[i]), i);
    EXPECT_EQ(ingress.depth(), 0u);
    EXPECT_EQ(ingress.stats().accepted, 5u);
    EXPECT_EQ(ingress.stats().drained, 5u);
    EXPECT_EQ(ingress.stats().drainBatches, 1u);
    EXPECT_EQ(ingress.stats().maxDepth, 5u);
}

TEST(HintIngress, MalformedFramesAttributedAndNotQueued)
{
    HintIngressConfig cfg;
    HintIngress ingress(cfg);
    auto bad = stopFrame(0, 1, 0);
    bad.bytes[0] ^= 0xff;
    EXPECT_EQ(ingress.offer(bad, 0), Reject::BadMagic);
    EXPECT_EQ(ingress.depth(), 0u);
    EXPECT_EQ(ingress.stats().parseRejects, 1u);
    EXPECT_EQ(ingress.stats().rejects(Reject::BadMagic), 1u);
    EXPECT_EQ(ingress.stats().accepted, 0u);
    // The sink never sees it.
    bool sunk = false;
    ingress.drain(0, [&](const wire::ParsedHint &) {
        sunk = true;
        return true;
    });
    EXPECT_FALSE(sunk);
}

TEST(HintIngress, ExactDuplicatesSuppressed)
{
    HintIngressConfig cfg;
    HintIngress ingress(cfg);
    EXPECT_EQ(ingress.offer(stopFrame(0, 1, 9), 0), Reject::None);
    EXPECT_EQ(ingress.offer(stopFrame(0, 1, 9), 0), Reject::None);
    EXPECT_EQ(ingress.depth(), 1u);
    EXPECT_EQ(ingress.stats().duplicates, 1u);
    // Same seq on another VM is a different flow, not a duplicate.
    EXPECT_EQ(ingress.offer(stopFrame(0, 2, 9), 0), Reject::None);
    EXPECT_EQ(ingress.depth(), 2u);
    EXPECT_EQ(ingress.stats().duplicates, 1u);
}

TEST(HintIngress, OverflowEvictsOldestDuplicateFirst)
{
    HintIngressConfig cfg;
    cfg.queueCapacity = 3;
    HintIngress ingress(cfg);
    // VM 1 has two queued hints (a flapping flow); VM 2 has one.
    ingress.offer(stopFrame(0, 1, 0), 0);
    ingress.offer(stopFrame(0, 2, 0), 0);
    ingress.offer(stopFrame(0, 1, 1), 0);
    // Overflow: the victim must be VM 1's *older* hint (seq 0), not
    // the overall front by arrival if that were unique -- here it is
    // both, so also check the unique-flow VM 2 survived.
    ingress.offer(stopFrame(0, 3, 0), 0);
    EXPECT_EQ(ingress.stats().overflowEvictions, 1u);
    EXPECT_EQ(ingress.stats().overflowSuperseded, 1u);
    const auto got = drainAll(ingress);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], (std::tuple<int, std::int32_t, std::uint64_t>{
                          0, 2, 0}));
    EXPECT_EQ(got[1], (std::tuple<int, std::int32_t, std::uint64_t>{
                          0, 1, 1}));
    EXPECT_EQ(got[2], (std::tuple<int, std::int32_t, std::uint64_t>{
                          0, 3, 0}));
}

TEST(HintIngress, OverflowWithUniqueFlowsEvictsFront)
{
    HintIngressConfig cfg;
    cfg.queueCapacity = 2;
    HintIngress ingress(cfg);
    ingress.offer(stopFrame(0, 1, 0), 0);
    ingress.offer(stopFrame(0, 2, 0), 0);
    ingress.offer(stopFrame(0, 3, 0), 0);
    EXPECT_EQ(ingress.stats().overflowEvictions, 1u);
    EXPECT_EQ(ingress.stats().overflowSuperseded, 0u);
    const auto got = drainAll(ingress);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(std::get<1>(got[0]), 2);
    EXPECT_EQ(std::get<1>(got[1]), 3);
}

TEST(HintIngress, StaleAndFutureHintsRejected)
{
    HintIngressConfig cfg;
    cfg.maxHintAge = kHour;
    HintIngress ingress(cfg);
    const sim::Tick now = 10 * kHour;
    // Too old.
    EXPECT_EQ(ingress.offer(stopFrame(0, 1, 0, now - 2 * kHour), now),
              Reject::Stale);
    // From the future.
    EXPECT_EQ(ingress.offer(stopFrame(0, 1, 1, now + kMinute), now),
              Reject::Stale);
    // Within the window.
    EXPECT_EQ(ingress.offer(stopFrame(0, 1, 2, now - kMinute), now),
              Reject::None);
    EXPECT_EQ(ingress.stats().rejects(Reject::Stale), 2u);
    EXPECT_EQ(ingress.depth(), 1u);
}

TEST(HintIngress, DrainMaxBoundsBatchAndKeepsOrder)
{
    HintIngressConfig cfg;
    cfg.drainMax = 2;
    HintIngress ingress(cfg);
    for (std::uint64_t i = 0; i < 5; ++i)
        ingress.offer(stopFrame(0, 1, i), 0);
    auto got = drainAll(ingress);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(std::get<2>(got[0]), 0u);
    EXPECT_EQ(std::get<2>(got[1]), 1u);
    EXPECT_EQ(ingress.depth(), 3u);
    got = drainAll(ingress);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(std::get<2>(got[0]), 2u);
    got = drainAll(ingress);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(std::get<2>(got[0]), 4u);
    EXPECT_EQ(ingress.stats().drainBatches, 3u);
}

TEST(HintIngress, OffersDuringDrainLandInNextBatch)
{
    HintIngressConfig cfg;
    HintIngress ingress(cfg);
    ingress.offer(stopFrame(0, 1, 0), 0);
    std::size_t seen = 0;
    ingress.drain(0, [&](const wire::ParsedHint &) {
        // Re-entrant offer: must not join the batch in flight.
        ingress.offer(stopFrame(0, 1, 1), 0);
        ++seen;
        return true;
    });
    EXPECT_EQ(seen, 1u);
    EXPECT_EQ(ingress.depth(), 1u);
    const auto got = drainAll(ingress);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(std::get<2>(got[0]), 1u);
}

TEST(HintIngress, SinkDropCounted)
{
    HintIngressConfig cfg;
    HintIngress ingress(cfg);
    ingress.offer(stopFrame(0, 1, 0), 0);
    ingress.drain(0, [](const wire::ParsedHint &) { return false; });
    EXPECT_EQ(ingress.stats().sinkDrops, 1u);
    EXPECT_EQ(ingress.stats().drained, 1u);
}

TEST(HintIngress, ClearDropsEverything)
{
    HintIngressConfig cfg;
    HintIngress ingress(cfg);
    ingress.offer(stopFrame(0, 1, 0), 0);
    ingress.offer(stopFrame(0, 2, 0), 0);
    ingress.clear();
    EXPECT_EQ(ingress.depth(), 0u);
    EXPECT_TRUE(drainAll(ingress).empty());
    // After a clear (crash restart), the same frame is new again.
    EXPECT_EQ(ingress.offer(stopFrame(0, 1, 0), 0), Reject::None);
    EXPECT_EQ(ingress.depth(), 1u);
}

TEST(HintIngress, ConfigValidation)
{
    HintIngressConfig cfg;
    cfg.queueCapacity = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg = HintIngressConfig{};
    cfg.flapHoldoff = -1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(HintIngress, DeterministicAcrossIdenticalRuns)
{
    // Same offer sequence => bit-identical stats and drain order.
    auto run = [] {
        HintIngressConfig cfg;
        cfg.queueCapacity = 4;
        HintIngress ingress(cfg);
        for (std::uint64_t i = 0; i < 16; ++i)
            ingress.offer(
                stopFrame(0, static_cast<std::int32_t>(i % 3), i / 3),
                0);
        auto got = drainAll(ingress);
        return std::make_pair(got, ingress.stats());
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second.accepted, b.second.accepted);
    EXPECT_EQ(a.second.overflowEvictions, b.second.overflowEvictions);
    EXPECT_EQ(a.second.overflowSuperseded,
              b.second.overflowSuperseded);
    EXPECT_EQ(a.second.duplicates, b.second.duplicates);
}

TEST(HintIngress, SoaFlapHysteresisDeniesRapidRerequest)
{
    // The window HintIngressConfig::flapHoldoff feeds: after a stop,
    // a re-request inside the window is denied and counted, without
    // inflating the requested-core telemetry.
    static const power::PowerModel model;
    power::Rack rack{0, power::Watts{2000.0}};
    power::Server &server = rack.addServer(&model);
    const int vm = server.addGroup(8, 0.5, power::kTurboMHz, 1);
    SoaConfig soa_cfg;
    soa_cfg.flapHoldoff = 5 * kMinute;
    ServerOverclockingAgent soa(server, soa_cfg, &rack);
    soa.assignBudget(ProfileTemplate::flat(900.0));

    OverclockRequest req;
    req.groupId = vm;
    req.cores = 8;
    ASSERT_TRUE(soa.requestOverclock(req, 0).granted);
    soa.stopOverclock(vm, kMinute);

    // Flap: re-request inside the holdoff window.
    const auto denied = soa.requestOverclock(req, 2 * kMinute);
    EXPECT_FALSE(denied.granted);
    EXPECT_EQ(denied.reason, AdmissionReason::FlapHysteresis);
    EXPECT_EQ(soa.stats().flapDenied, 1u);

    // Past the window: granted again.
    const auto granted =
        soa.requestOverclock(req, kMinute + 6 * kMinute);
    EXPECT_TRUE(granted.granted);
    EXPECT_EQ(soa.stats().flapDenied, 1u);
}

namespace
{

/**
 * Reference model: the ingress as built on std::map bookkeeping and
 * std::deque queues.  The flat tables and rings must match it call
 * for call: every offer return, every victim, the drain order and
 * every counter.
 */
class ReferenceIngress
{
  public:
    explicit ReferenceIngress(HintIngressConfig config)
        : config_(config)
    {
    }

    const IngressStats &stats() const { return stats_; }
    std::size_t depth() const
    {
        return pending_.size() + draining_.size();
    }

    Reject
    offer(const wire::Frame &frame, sim::Tick now)
    {
        ++stats_.offered;
        wire::ParsedHint hint;
        const Reject reject = wire::parseFrame(
            frame.data(), frame.size, config_.limits, hint);
        if (reject != Reject::None) {
            ++stats_.parseRejects;
            ++stats_.rejectsByReason[static_cast<std::size_t>(reject)];
            return reject;
        }
        if (config_.maxHintAge > 0 &&
            (hint.issuedAt > now ||
             now - hint.issuedAt > config_.maxHintAge)) {
            ++stats_.parseRejects;
            ++stats_.rejectsByReason[static_cast<std::size_t>(
                Reject::Stale)];
            return Reject::Stale;
        }
        if (dupCounts_.count(dupKey(hint)) != 0) {
            ++stats_.duplicates;
            return Reject::None;
        }
        if (pending_.size() >= config_.queueCapacity)
            evictForOverflow();
        pending_.push_back(hint);
        dupCounts_[dupKey(hint)] = 1;
        if (++flowCounts_[flowKey(hint)] == 2)
            ++supersedableFlows_;
        ++stats_.accepted;
        stats_.maxDepth =
            std::max<std::uint64_t>(stats_.maxDepth, depth());
        return Reject::None;
    }

    std::size_t
    drain(const HintIngress::Sink &sink)
    {
        if (draining_.empty()) {
            draining_.swap(pending_);
            dupCounts_.clear();
            flowCounts_.clear();
            supersedableFlows_ = 0;
        }
        if (draining_.empty())
            return 0;
        const std::size_t limit = config_.drainMax == 0
            ? draining_.size()
            : std::min(config_.drainMax, draining_.size());
        std::size_t dispatched = 0;
        for (; dispatched < limit; ++dispatched) {
            const wire::ParsedHint hint = draining_.front();
            draining_.pop_front();
            ++stats_.drained;
            if (!sink(hint))
                ++stats_.sinkDrops;
        }
        if (dispatched > 0)
            ++stats_.drainBatches;
        return dispatched;
    }

    void
    clear()
    {
        pending_.clear();
        draining_.clear();
        dupCounts_.clear();
        flowCounts_.clear();
        supersedableFlows_ = 0;
    }

  private:
    using FlowKey = std::tuple<int, std::int32_t, std::uint8_t>;
    using DupKey =
        std::tuple<int, std::int32_t, std::uint8_t, std::uint64_t>;

    static FlowKey
    flowKey(const wire::ParsedHint &h)
    {
        return {h.server, h.vmId, static_cast<std::uint8_t>(h.kind)};
    }
    static DupKey
    dupKey(const wire::ParsedHint &h)
    {
        return {h.server, h.vmId, static_cast<std::uint8_t>(h.kind),
                h.seq};
    }

    void
    evictForOverflow()
    {
        std::size_t victim = 0;
        bool superseded = false;
        if (supersedableFlows_ > 0) {
            for (std::size_t i = 0; i < pending_.size(); ++i) {
                if (flowCounts_.find(flowKey(pending_[i]))->second >=
                    2) {
                    victim = i;
                    superseded = true;
                    break;
                }
            }
        }
        const wire::ParsedHint &h = pending_[victim];
        const auto fit = flowCounts_.find(flowKey(h));
        if (fit->second == 2)
            --supersedableFlows_;
        if (--fit->second == 0)
            flowCounts_.erase(fit);
        dupCounts_.erase(dupKey(h));
        pending_.erase(pending_.begin() +
                       static_cast<std::ptrdiff_t>(victim));
        ++stats_.overflowEvictions;
        if (superseded)
            ++stats_.overflowSuperseded;
    }

    HintIngressConfig config_;
    IngressStats stats_;
    std::deque<wire::ParsedHint> pending_;
    std::deque<wire::ParsedHint> draining_;
    std::map<DupKey, std::uint32_t> dupCounts_;
    std::map<FlowKey, std::uint32_t> flowCounts_;
    std::size_t supersedableFlows_ = 0;
};

void
expectSameStats(const IngressStats &got, const IngressStats &want)
{
    EXPECT_EQ(got.offered, want.offered);
    EXPECT_EQ(got.accepted, want.accepted);
    EXPECT_EQ(got.parseRejects, want.parseRejects);
    EXPECT_EQ(got.rejectsByReason, want.rejectsByReason);
    EXPECT_EQ(got.duplicates, want.duplicates);
    EXPECT_EQ(got.overflowEvictions, want.overflowEvictions);
    EXPECT_EQ(got.overflowSuperseded, want.overflowSuperseded);
    EXPECT_EQ(got.sinkDrops, want.sinkDrops);
    EXPECT_EQ(got.drained, want.drained);
    EXPECT_EQ(got.drainBatches, want.drainBatches);
    EXPECT_EQ(got.maxDepth, want.maxDepth);
}

/**
 * A frame from a deliberately small key space (3 servers x 4 VMs x
 * 3 kinds x 6 sequence numbers), so flows collide and exact
 * duplicates recur; issuedAt spans stale and future-dated; one in
 * twenty is corrupted; one in four re-sends an earlier frame, which
 * may since have been drained or evicted.
 */
wire::Frame
randomFrame(sim::Rng &rng, sim::Tick now, std::vector<wire::Frame> &sent)
{
    if (!sent.empty() && rng.chance(0.25))
        return sent[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(sent.size()) - 1))];
    HintHeader h;
    h.server = static_cast<int>(rng.uniformInt(0, 2));
    h.vmId = static_cast<std::int32_t>(rng.uniformInt(0, 3));
    h.seq = static_cast<std::uint64_t>(rng.uniformInt(0, 5));
    h.issuedAt = now + rng.uniformInt(-3, 1) * kMinute;
    wire::Frame f;
    switch (rng.uniformInt(0, 2)) {
    case 0: {
        OverclockRequest req;
        req.groupId = h.vmId;
        req.cores = 4;
        f = encodeOverclockRequest(h, req);
        break;
    }
    case 1:
        f = encodeStopRequest(h);
        break;
    default:
        f = encodeMetricsWindow(h, VmMetrics{});
        break;
    }
    if (rng.chance(0.05))
        f.bytes[0] ^= 0xff;
    sent.push_back(f);
    return f;
}

using Drained = std::tuple<int, std::int32_t, std::uint8_t,
                           std::uint64_t, sim::Tick>;

/** What a drain's sink does with its k-th hint: keep or drop it,
 *  and optionally offer another frame from inside the sink. */
struct SinkStep {
    bool keep = true;
    bool reoffer = false;
    wire::Frame frame;
};

} // namespace

TEST(HintIngress, MatchesMapAndDequeReferenceOnRandomSequences)
{
    IngressStats total;
    for (std::uint64_t seed = 1; seed <= 240; ++seed) {
        HintIngressConfig cfg;
        cfg.queueCapacity = 1 + seed % 8;
        cfg.drainMax = std::array<std::size_t, 3>{0, 1, 3}[seed % 3];
        cfg.maxHintAge = seed % 2 == 0 ? 2 * kMinute : 0;
        HintIngress ingress(cfg);
        ReferenceIngress reference(cfg);
        sim::Rng rng(seed);
        std::vector<wire::Frame> sent;
        sim::Tick now = kHour;
        std::vector<Drained> got;
        std::vector<Drained> want;

        for (int op = 0; op < 400; ++op) {
            const double r = rng.uniform();
            if (r < 0.70) {
                const wire::Frame f = randomFrame(rng, now, sent);
                ASSERT_EQ(ingress.offer(f, now), reference.offer(f, now))
                    << "seed " << seed << " op " << op;
            } else if (r < 0.92) {
                std::vector<SinkStep> script(8);
                for (auto &step : script) {
                    step.keep = !rng.chance(0.2);
                    step.reoffer = rng.chance(0.3);
                    if (step.reoffer)
                        step.frame = randomFrame(rng, now, sent);
                }
                const auto sinkFor = [&](auto &target,
                                         std::vector<Drained> &log) {
                    return [&, k = std::size_t{0}](
                               const wire::ParsedHint &h) mutable {
                        log.emplace_back(h.server, h.vmId,
                                         static_cast<std::uint8_t>(
                                             h.kind),
                                         h.seq, h.issuedAt);
                        const SinkStep &step = script[k++ % 8];
                        if (step.reoffer)
                            target.offer(step.frame, now);
                        return step.keep;
                    };
                };
                const std::size_t n =
                    ingress.drain(now, sinkFor(ingress, got));
                ASSERT_EQ(n, reference.drain(sinkFor(reference, want)));
                ASSERT_EQ(got, want) << "seed " << seed << " op " << op;
            } else if (r < 0.97) {
                now += rng.uniformInt(0, 2) * kMinute;
            } else {
                ingress.clear();
                reference.clear();
            }
            ASSERT_EQ(ingress.depth(), reference.depth());
            expectSameStats(ingress.stats(), reference.stats());
            if (HasFailure())
                FAIL() << "seed " << seed << " op " << op;
        }
        total.merge(ingress.stats());
    }
    // The sequences reach every path the tables and rings replaced.
    EXPECT_GT(total.overflowSuperseded, 0u);
    EXPECT_GT(total.overflowEvictions, total.overflowSuperseded);
    EXPECT_GT(total.duplicates, 0u);
    EXPECT_GT(total.rejects(Reject::Stale), 0u);
    EXPECT_GT(total.rejects(Reject::BadMagic), 0u);
    EXPECT_GT(total.sinkDrops, 0u);
}

TEST(HintIngress, ClearFromSinkEndsTheBatch)
{
    HintIngressConfig cfg;
    HintIngress ingress(cfg);
    for (std::uint64_t i = 0; i < 4; ++i)
        ingress.offer(stopFrame(0, 1, i), 0);
    std::size_t seen = 0;
    EXPECT_EQ(ingress.drain(0,
                            [&](const wire::ParsedHint &) {
                                ++seen;
                                ingress.clear();
                                return true;
                            }),
              1u);
    EXPECT_EQ(seen, 1u);
    EXPECT_EQ(ingress.depth(), 0u);
}

TEST(HintIngress, LongOverflowKeepsOrderAndCounts)
{
    // Hours of overflow between drains: eviction deletes the
    // victim's keys, so the tables never outgrow the queue, and the
    // survivors drain in arrival order.
    HintIngressConfig cfg;
    cfg.queueCapacity = 64;
    HintIngress ingress(cfg);
    ReferenceIngress reference(cfg);
    for (std::uint64_t i = 0; i < 20000; ++i) {
        const auto f = stopFrame(static_cast<int>(i % 5),
                                 static_cast<std::int32_t>(i % 7), i);
        ASSERT_EQ(ingress.offer(f, 0), reference.offer(f, 0));
    }
    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> want;
    ingress.drain(0, [&](const wire::ParsedHint &h) {
        got.push_back(h.seq);
        return true;
    });
    reference.drain([&](const wire::ParsedHint &h) {
        want.push_back(h.seq);
        return true;
    });
    EXPECT_EQ(got, want);
    ASSERT_EQ(got.size(), 64u);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    expectSameStats(ingress.stats(), reference.stats());
    EXPECT_EQ(ingress.stats().overflowEvictions, 20000u - 64u);
}
