#include "sim/rng.hh"

#include <algorithm>
#include <cmath>

namespace soc
{
namespace sim
{

namespace
{

/** SplitMix64 step, used only for seeding. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitMix64(s);
}

Rng::result_type
Rng::operator()()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high bits give a uniform double in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>((*this)() % span);
}

double
Rng::normal()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spareNormal_;
    }
    double u, v, s;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spareNormal_ = v * factor;
    hasSpare_ = true;
    return u * factor;
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

void
Rng::normalFill(double *out, std::size_t n)
{
    std::size_t i = 0;
    if (i < n && hasSpare_) {
        hasSpare_ = false;
        out[i++] = spareNormal_;
    }
    // Accepted polar pairs land as consecutive samples; this is the
    // same draw order as the scalar path, which returns u*factor and
    // caches v*factor for the immediately following call.  Pairs
    // come in chunks: each round draws only as many candidates as
    // acceptances are still missing and keeps the accepted ones by
    // advancing m without a branch, so every candidate of the last
    // round is accepted and the stream stops exactly where the
    // scalar loop's would.
    constexpr std::size_t kPairs = kNormalChunk / 2;
    double us[kPairs];
    double vs[kPairs];
    double ss[kPairs];
    while (i + 1 < n) {
        const std::size_t want = std::min((n - i) / 2, kPairs);
        std::size_t m = 0;
        while (m < want) {
            for (std::size_t draws = want - m; draws > 0; --draws) {
                const double u = uniform(-1.0, 1.0);
                const double v = uniform(-1.0, 1.0);
                const double s = u * u + v * v;
                us[m] = u;
                vs[m] = v;
                ss[m] = s;
                m += static_cast<std::size_t>((s < 1.0) & (s != 0.0));
            }
        }
        for (std::size_t k = 0; k < want; ++k) {
            const double factor =
                std::sqrt(-2.0 * std::log(ss[k]) / ss[k]);
            out[i + 2 * k] = us[k] * factor;
            out[i + 2 * k + 1] = vs[k] * factor;
        }
        i += 2 * want;
    }
    if (i < n)
        out[i] = normal(); // odd tail: caches the pair's spare
}

void
Rng::uniformFill(double *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double
Rng::exponential(double mean)
{
    // 1 - uniform() is in (0, 1], so the log is finite.
    return -mean * std::log(1.0 - uniform());
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

std::int64_t
Rng::poisson(double mean)
{
    if (mean <= 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth's method for small means.
        const double limit = std::exp(-mean);
        double product = uniform();
        std::int64_t count = 0;
        while (product > limit) {
            ++count;
            product *= uniform();
        }
        return count;
    }
    // Normal approximation for large means; adequate for load gen.
    const double draw = normal(mean, std::sqrt(mean));
    return draw < 0.0 ? 0 : static_cast<std::int64_t>(draw + 0.5);
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

Rng
Rng::split()
{
    return Rng((*this)());
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    // Two finalizer rounds so that nearby (seed, stream) pairs land
    // far apart even when both differ in only a few low bits.
    std::uint64_t x = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
    (void)splitMix64(x);
    return splitMix64(x);
}

} // namespace sim
} // namespace soc
