/**
 * @file
 * Deterministic random-number generation for reproducible experiments.
 *
 * Every experiment binary seeds its own `Rng` explicitly, so runs are
 * bit-reproducible regardless of scheduling.  The generator is
 * xoshiro256** seeded through SplitMix64, the combination recommended
 * by the xoshiro authors; it is far faster than std::mt19937_64 and
 * has no observable bias for our sample counts.
 */

#ifndef SOC_SIM_RNG_HH
#define SOC_SIM_RNG_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace soc
{
namespace sim
{

/**
 * Deterministic pseudo-random generator (xoshiro256**).
 *
 * Satisfies UniformRandomBitGenerator, so it can also feed the
 * <random> distributions, though the member samplers below are what
 * the code base uses.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed through SplitMix64 so nearby seeds diverge immediately. */
    explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit draw. */
    result_type operator()();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Marsaglia polar method. */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Samples per round of normalFill's pair loop (half as many
     *  polar pairs); bounds its stack scratch. */
    static constexpr std::size_t kNormalChunk = 256;

    /**
     * Fill out[0..n) with standard normals, consuming the stream
     * exactly like n successive normal() calls: a cached spare from
     * a previous call is emitted first, accepted polar pairs land in
     * order, and an odd tail leaves its second draw cached for the
     * *next* call (scalar or batch).  Pinned bit-identical to the
     * scalar loop by test, so generators may switch freely between
     * the two shapes mid-stream.  The batch form draws candidate
     * pairs without a data-dependent branch, then runs the polar
     * transform over the accepted ones straight-line — the trace
     * generator's window fills run on it.
     */
    void normalFill(double *out, std::size_t n);

    /** Fill out[0..n) with uniforms in [0, 1): bit-identical to n
     *  successive uniform() calls. */
    void uniformFill(double *out, std::size_t n);

    /** Exponential with the given mean (not rate). */
    double exponential(double mean);

    /** Lognormal parameterized by the underlying normal's mu/sigma. */
    double lognormal(double mu, double sigma);

    /** Poisson-distributed count with the given mean. */
    std::int64_t poisson(double mean);

    /** Bernoulli draw. */
    bool chance(double p);

    /**
     * Derive an independent child generator.  Used to give each
     * server/VM its own stream so adding one entity does not perturb
     * the draws of the others.
     */
    Rng split();

  private:
    std::array<std::uint64_t, 4> state_;

    /** Cached second draw of the polar method. */
    double spareNormal_ = 0.0;
    bool hasSpare_ = false;
};

/**
 * Derive the seed of an independent stream from a base seed
 * (SplitMix64 finalizer over seed and stream index).
 *
 * Parallel entities (e.g. the racks of the trace simulator) each
 * seed their own generator with `deriveSeed(seed, index)` so their
 * draws neither overlap nor depend on the order in which the other
 * entities consume randomness.
 */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

} // namespace sim
} // namespace soc

#endif // SOC_SIM_RNG_HH
