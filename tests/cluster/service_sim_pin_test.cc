/**
 * @file
 * Bit-level pin of ServiceSimResult.  One short run per environment
 * (2 min, 30 s warm-up, seed 7), plus SmartOClock with the hint
 * ingress on, must reproduce every double bit for bit and every
 * counter exactly, through runServiceSim and through
 * runServiceSimBatch at 1 and 2 threads.  The constants were
 * captured before the latency path moved to per-class reservoirs
 * and selected window quantiles; a change that moves them on
 * purpose re-captures them and says why.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/service_sim.hh"

using namespace soc;
using namespace soc::cluster;

namespace
{

/** Every double of @p r by bit pattern, and every counter, in a
 *  fixed order; names label a mismatch. */
std::vector<std::pair<std::string, std::uint64_t>>
fields(const ServiceSimResult &r)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    auto real = [&](const std::string &name, double v) {
        out.emplace_back(name, std::bit_cast<std::uint64_t>(v));
    };
    auto count = [&](const std::string &name, std::uint64_t v) {
        out.emplace_back(name, v);
    };
    for (int c = 0; c < 3; ++c) {
        const auto &k = r.byClass[c];
        const std::string p = "byClass[" + std::to_string(c) + "].";
        real(p + "p99Ms", k.p99Ms);
        real(p + "meanMs", k.meanMs);
        count(p + "completed", k.completed);
        count(p + "violations", k.violations);
        real(p + "meanInstances", k.meanInstances);
        real(p + "energyPerServerJ", k.energyPerServerJ);
        real(p + "missedSloTimeFrac", k.missedSloTimeFrac);
    }
    real("totalEnergyJ", r.totalEnergyJ.count());
    real("socialEnergyJ", r.socialEnergyJ.count());
    real("mlThroughputNorm", r.mlThroughputNorm);
    count("capEvents", r.capEvents);
    real("meanInstancesAll", r.meanInstancesAll);
    count("scaleOuts", r.scaleOuts);
    count("proactiveScaleOuts", r.proactiveScaleOuts);
    count("overclockStarts", r.overclockStarts);
    count("denials", r.denials);
    real("missedSloTimeFrac", r.missedSloTimeFrac);
    count("ingress.accepted", r.ingress.accepted);
    count("ingress.drained", r.ingress.drained);
    count("rejectedMetrics", r.rejectedMetrics);
    return out;
}

std::vector<ServiceSimConfig>
pinnedConfigs()
{
    std::vector<ServiceSimConfig> configs;
    for (const auto env :
         {Environment::Baseline, Environment::ScaleOut,
          Environment::ScaleUp, Environment::SmartOClock}) {
        ServiceSimConfig cfg;
        cfg.environment = env;
        cfg.duration = 2 * sim::kMinute;
        cfg.warmup = 30 * sim::kSecond;
        cfg.seed = 7;
        configs.push_back(cfg);
    }
    // The ingress carries each window's mean over the wire codec.
    auto ingress = configs.back();
    ingress.ingress.enabled = true;
    configs.push_back(ingress);
    return configs;
}

constexpr std::size_t kFields = 34;

// fields() of each pinnedConfigs() run, in order.
const std::array<std::array<std::uint64_t, kFields>, 5> kPinned{{
    // Baseline
    {{
            0x40423d36501e2589ULL, // byClass[0].p99Ms
            0x40151b89c751b49fULL, // byClass[0].meanMs
            0x000000000001f853ULL, // byClass[0].completed
            0x00000000000001ddULL, // byClass[0].violations
            0x3ff0e38e38e38e39ULL, // byClass[0].meanInstances
            0x40c8b4ae00000000ULL, // byClass[0].energyPerServerJ
            0x0000000000000000ULL, // byClass[0].missedSloTimeFrac
            0x4051af60956c0d58ULL, // byClass[1].p99Ms
            0x40249739c556525aULL, // byClass[1].meanMs
            0x0000000000020188ULL, // byClass[1].completed
            0x0000000000000a4dULL, // byClass[1].violations
            0x3ff0e38e38e38e39ULL, // byClass[1].meanInstances
            0x40c923d800000000ULL, // byClass[1].energyPerServerJ
            0x0000000000000000ULL, // byClass[1].missedSloTimeFrac
            0x40542993b3a68b13ULL, // byClass[2].p99Ms
            0x402684cc3c6fbdd1ULL, // byClass[2].meanMs
            0x0000000000032ec1ULL, // byClass[2].completed
            0x000000000000090dULL, // byClass[2].violations
            0x3ff0e38e38e38e39ULL, // byClass[2].meanInstances
            0x40ca184d80000000ULL, // byClass[2].energyPerServerJ
            0x3fe0000000000000ULL, // byClass[2].missedSloTimeFrac
            0x4125d91c611001a1ULL, // totalEnergyJ
            0x41109ddea0000000ULL, // socialEnergyJ
            0x3ff0000000000000ULL, // mlThroughputNorm
            0x0000000000000000ULL, // capEvents
            0x3ff0e38e38e38e39ULL, // meanInstancesAll
            0x0000000000000000ULL, // scaleOuts
            0x0000000000000000ULL, // proactiveScaleOuts
            0x0000000000000000ULL, // overclockStarts
            0x0000000000000000ULL, // denials
            0x3fc5555555555555ULL, // missedSloTimeFrac
            0x0000000000000000ULL, // ingress.accepted
            0x0000000000000000ULL, // ingress.drained
            0x0000000000000000ULL, // rejectedMetrics
    }},
    // ScaleOut
    {{
            0x40421687d2c7b88fULL, // byClass[0].p99Ms
            0x4014d7ec77fa6b7bULL, // byClass[0].meanMs
            0x000000000001f8a0ULL, // byClass[0].completed
            0x000000000000019aULL, // byClass[0].violations
            0x3ff749f49f49f49eULL, // byClass[0].meanInstances
            0x40c8b11800000000ULL, // byClass[0].energyPerServerJ
            0x0000000000000000ULL, // byClass[0].missedSloTimeFrac
            0x404f692a30553262ULL, // byClass[1].p99Ms
            0x4022a1b7d10091c6ULL, // byClass[1].meanMs
            0x00000000000200a9ULL, // byClass[1].completed
            0x000000000000030bULL, // byClass[1].violations
            0x3ff749f49f49f49fULL, // byClass[1].meanInstances
            0x40c91b7a00000000ULL, // byClass[1].energyPerServerJ
            0x0000000000000000ULL, // byClass[1].missedSloTimeFrac
            0x404d76e2eb1c4334ULL, // byClass[2].p99Ms
            0x4022314c311808d1ULL, // byClass[2].meanMs
            0x0000000000032ee8ULL, // byClass[2].completed
            0x000000000000027fULL, // byClass[2].violations
            0x3ff6e38e38e38e39ULL, // byClass[2].meanInstances
            0x40c9d39280000000ULL, // byClass[2].energyPerServerJ
            0x3fc6db6db6db6db7ULL, // byClass[2].missedSloTimeFrac
            0x4125ef40f91001a1ULL, // totalEnergyJ
            0x4110ca27d0000000ULL, // socialEnergyJ
            0x3ff0000000000000ULL, // mlThroughputNorm
            0x0000000000000000ULL, // capEvents
            0x3ff72cb2cb2cb2cdULL, // meanInstancesAll
            0x0000000000000009ULL, // scaleOuts
            0x0000000000000000ULL, // proactiveScaleOuts
            0x0000000000000000ULL, // overclockStarts
            0x0000000000000000ULL, // denials
            0x3fae79e79e79e79eULL, // missedSloTimeFrac
            0x0000000000000000ULL, // ingress.accepted
            0x0000000000000000ULL, // ingress.drained
            0x0000000000000000ULL, // rejectedMetrics
    }},
    // ScaleUp
    {{
            0x4041cdf3b645a1cbULL, // byClass[0].p99Ms
            0x4014bb60f04b6b8bULL, // byClass[0].meanMs
            0x000000000001f899ULL, // byClass[0].completed
            0x000000000000015dULL, // byClass[0].violations
            0x3ff0e38e38e38e39ULL, // byClass[0].meanInstances
            0x40c8eb5cc17d9886ULL, // byClass[0].energyPerServerJ
            0x0000000000000000ULL, // byClass[0].missedSloTimeFrac
            0x405049c044284dffULL, // byClass[1].p99Ms
            0x40237d6f7bc489e5ULL, // byClass[1].meanMs
            0x0000000000020189ULL, // byClass[1].completed
            0x00000000000006a9ULL, // byClass[1].violations
            0x3ff0e38e38e38e39ULL, // byClass[1].meanInstances
            0x40c954ad3fa9d54eULL, // byClass[1].energyPerServerJ
            0x0000000000000000ULL, // byClass[1].missedSloTimeFrac
            0x4050d60c49ba5e2dULL, // byClass[2].p99Ms
            0x4023dd7f49ddf8bfULL, // byClass[2].meanMs
            0x0000000000032ea2ULL, // byClass[2].completed
            0x0000000000000416ULL, // byClass[2].violations
            0x3ff0e38e38e38e39ULL, // byClass[2].meanInstances
            0x40cb60448767ab5eULL, // byClass[2].energyPerServerJ
            0x3fd0000000000000ULL, // byClass[2].missedSloTimeFrac
            0x4125f5b2219d90ebULL, // totalEnergyJ
            0x4110d70a211b1e94ULL, // socialEnergyJ
            0x3ff0000000000000ULL, // mlThroughputNorm
            0x0000000000000000ULL, // capEvents
            0x3ff0e38e38e38e39ULL, // meanInstancesAll
            0x0000000000000000ULL, // scaleOuts
            0x0000000000000000ULL, // proactiveScaleOuts
            0x0000000000000008ULL, // overclockStarts
            0x0000000000000000ULL, // denials
            0x3fb5555555555555ULL, // missedSloTimeFrac
            0x0000000000000000ULL, // ingress.accepted
            0x0000000000000000ULL, // ingress.drained
            0x0000000000000000ULL, // rejectedMetrics
    }},
    // SmartOClock
    {{
            0x40421687d2c7b88fULL, // byClass[0].p99Ms
            0x4014d7ec77fa6b7bULL, // byClass[0].meanMs
            0x000000000001f8a0ULL, // byClass[0].completed
            0x000000000000019aULL, // byClass[0].violations
            0x3ff749f49f49f49eULL, // byClass[0].meanInstances
            0x40c8b11800000000ULL, // byClass[0].energyPerServerJ
            0x0000000000000000ULL, // byClass[0].missedSloTimeFrac
            0x404f692a30553262ULL, // byClass[1].p99Ms
            0x4022a1b7d10091c6ULL, // byClass[1].meanMs
            0x00000000000200a9ULL, // byClass[1].completed
            0x000000000000030bULL, // byClass[1].violations
            0x3ff749f49f49f49fULL, // byClass[1].meanInstances
            0x40c91b7a00000000ULL, // byClass[1].energyPerServerJ
            0x0000000000000000ULL, // byClass[1].missedSloTimeFrac
            0x40503449ba5e3540ULL, // byClass[2].p99Ms
            0x4022f8eac1bda2f7ULL, // byClass[2].meanMs
            0x0000000000032dc6ULL, // byClass[2].completed
            0x000000000000038bULL, // byClass[2].violations
            0x3ff471c71c71c71cULL, // byClass[2].meanInstances
            0x40caecae6fd7fe76ULL, // byClass[2].energyPerServerJ
            0x3fc6db6db6db6db7ULL, // byClass[2].missedSloTimeFrac
            0x4125fb31c80d8188ULL, // totalEnergyJ
            0x4110e2096dfaffceULL, // socialEnergyJ
            0x3ff0000000000000ULL, // mlThroughputNorm
            0x0000000000000000ULL, // capEvents
            0x3ff679e79e79e79fULL, // meanInstancesAll
            0x0000000000000008ULL, // scaleOuts
            0x0000000000000000ULL, // proactiveScaleOuts
            0x0000000000000005ULL, // overclockStarts
            0x0000000000000000ULL, // denials
            0x3fae79e79e79e79eULL, // missedSloTimeFrac
            0x0000000000000000ULL, // ingress.accepted
            0x0000000000000000ULL, // ingress.drained
            0x0000000000000000ULL, // rejectedMetrics
    }},
    // SmartOClock, ingress on
    {{
            0x40421687d2c7b88fULL, // byClass[0].p99Ms
            0x4014d7ec77fa6b7bULL, // byClass[0].meanMs
            0x000000000001f8a0ULL, // byClass[0].completed
            0x000000000000019aULL, // byClass[0].violations
            0x3ff749f49f49f49eULL, // byClass[0].meanInstances
            0x40c8b11800000000ULL, // byClass[0].energyPerServerJ
            0x0000000000000000ULL, // byClass[0].missedSloTimeFrac
            0x404f692a30553262ULL, // byClass[1].p99Ms
            0x4022a1b7d10091c6ULL, // byClass[1].meanMs
            0x00000000000200a9ULL, // byClass[1].completed
            0x000000000000030bULL, // byClass[1].violations
            0x3ff749f49f49f49fULL, // byClass[1].meanInstances
            0x40c91b7a00000000ULL, // byClass[1].energyPerServerJ
            0x0000000000000000ULL, // byClass[1].missedSloTimeFrac
            0x40503449ba5e3540ULL, // byClass[2].p99Ms
            0x4022f8eac1bda2f7ULL, // byClass[2].meanMs
            0x0000000000032dc6ULL, // byClass[2].completed
            0x000000000000038bULL, // byClass[2].violations
            0x3ff471c71c71c71cULL, // byClass[2].meanInstances
            0x40caecae6fd7fe76ULL, // byClass[2].energyPerServerJ
            0x3fc6db6db6db6db7ULL, // byClass[2].missedSloTimeFrac
            0x4125fb31c80d8188ULL, // totalEnergyJ
            0x4110e2096dfaffceULL, // socialEnergyJ
            0x3ff0000000000000ULL, // mlThroughputNorm
            0x0000000000000000ULL, // capEvents
            0x3ff679e79e79e79fULL, // meanInstancesAll
            0x0000000000000008ULL, // scaleOuts
            0x0000000000000000ULL, // proactiveScaleOuts
            0x0000000000000005ULL, // overclockStarts
            0x0000000000000000ULL, // denials
            0x3fae79e79e79e79eULL, // missedSloTimeFrac
            0x0000000000000070ULL, // ingress.accepted
            0x0000000000000070ULL, // ingress.drained
            0x0000000000000000ULL, // rejectedMetrics
    }},
}};

void
expectPinned(const std::vector<ServiceSimResult> &results,
             const std::string &path)
{
    ASSERT_EQ(results.size(), kPinned.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto got = fields(results[i]);
        ASSERT_EQ(got.size(), kFields);
        for (std::size_t f = 0; f < kFields; ++f) {
            EXPECT_EQ(got[f].second, kPinned[i][f])
                << path << ", config " << i << ": " << got[f].first;
        }
    }
}

} // namespace

TEST(ServiceSimPin, RunServiceSimMatchesPinnedBits)
{
    std::vector<ServiceSimResult> results;
    for (const auto &cfg : pinnedConfigs())
        results.push_back(runServiceSim(cfg));
    expectPinned(results, "runServiceSim");
}

TEST(ServiceSimPin, BatchMatchesPinnedBitsAtOneAndTwoThreads)
{
    const auto configs = pinnedConfigs();
    expectPinned(runServiceSimBatch(configs, 1), "batch, 1 thread");
    expectPinned(runServiceSimBatch(configs, 2), "batch, 2 threads");
}
