/**
 * @file
 * Host-speed reference: a fixed sort and hash-map workload whose time
 * tracks how fast this machine runs code like the simulators' right
 * now.
 *
 *   soc_reference        prints the workload's wall seconds
 *
 * runner.py runs it on the same CPU as each end-to-end process, once
 * between every two rounds, and scales the round's timings by nominal
 * over measured reference time.  Its code and flags belong to the
 * benchmark (CMakeLists.txt), so a change to the simulators or to
 * their build leaves it where it is.
 *
 * Exit status: 0 on success, 2 when given any argument.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace
{

using Clock = std::chrono::steady_clock;

/** Sorted values per unit: 2 MiB of doubles. */
constexpr std::size_t kValues = std::size_t{1} << 18;
/** Hash-map increments per unit, over kKeys distinct keys. */
constexpr int kIncrements = 100000;
constexpr std::uint64_t kKeys = std::uint64_t{1} << 16;
constexpr int kUnits = 3;

volatile std::uint64_t sink;

std::uint64_t
next(std::uint64_t &state)
{
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state;
}

void
unit(std::uint64_t &state, std::vector<double> &values,
     std::unordered_map<std::uint64_t, std::uint64_t> &counts)
{
    for (auto &v : values)
        v = static_cast<double>(next(state) >> 11) * 0x1.0p-53;
    std::sort(values.begin(), values.end());
    for (int i = 0; i < kIncrements; ++i)
        counts[(next(state) >> 40) % kKeys] += static_cast<std::uint64_t>(i);
    sink = sink + counts.size() +
        static_cast<std::uint64_t>(values[kValues / 2] * 1e6);
}

} // namespace

int
main(int argc, char **)
{
    if (argc != 1) {
        std::fprintf(stderr, "usage: soc_reference\n");
        return 2;
    }
    // Pages touched and every key inserted before the clock starts.
    std::uint64_t state = 1;
    std::vector<double> values(kValues);
    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    for (std::uint64_t k = 0; k < kKeys; ++k)
        counts[k] = 0;
    unit(state, values, counts);

    const auto start = Clock::now();
    for (int u = 0; u < kUnits; ++u)
        unit(state, values, counts);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    std::printf("%.9f\n", seconds);
    return 0;
}
