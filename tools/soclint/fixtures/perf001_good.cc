/** Known-good fixture: preallocated buffers inside a hot region,
 *  allocation only in setup, annotated amortized growth allowed. */

#include <cstddef>
#include <map>
#include <vector>

void
replayLoop(std::size_t steps)
{
    // Setup: allocation outside the region is fine.
    std::vector<double> samples;
    samples.resize(steps);

    // soclint:hot-begin(PERF-001)
    for (std::size_t i = 0; i < steps; ++i) {
        // Indexed writes into the preallocated buffer: no
        // allocator traffic.  push_back in this comment is prose,
        // not a finding.
        samples[i] = static_cast<double>(i);
        if (i == 0) {
            // Amortized one-time growth, justified and annotated:
            // soclint:allow(PERF-001)
            samples.reserve(steps + 1);
        }
    }
    // soclint:hot-end(PERF-001)
}

/** The window-refill shape (ServerTraceStream fill loop): batch
 *  scratch on the stack, strided scatter into caller-owned window
 *  columns — allocation-free by construction. */
void
refillWindow(std::size_t n, unsigned short *util, float *watts,
             std::size_t stride)
{
    // soclint:hot-begin(PERF-001)
    double column[288];
    for (std::size_t done = 0; done < n;) {
        const std::size_t m = n - done < 288 ? n - done : 288;
        for (std::size_t k = 0; k < m; ++k)
            column[k] = static_cast<double>(done + k) / n;
        for (std::size_t k = 0; k < m; ++k) {
            const std::size_t at = (done + k) * stride;
            util[at] =
                static_cast<unsigned short>(column[k] * 65535.0);
            watts[at] = static_cast<float>(column[k] * 40.0);
        }
        done += m;
    }
    // soclint:hot-end(PERF-001)
}

/** Lookalikes that allocate nothing: an empty container, a
 *  reference to a container, arithmetic `+`, and a find() instead
 *  of an insert(). */
double
lookalikes(std::vector<double> &buf,
           const std::map<int, double> &seen, int id, double a,
           double b)
{
    // soclint:hot-begin(PERF-001)
    std::vector<double> empty;
    std::vector<double> braces{};
    std::vector<double> &ref = buf;
    const auto it = seen.find(id);
    double sum = a + b + (it != seen.end() ? it->second : 0.0);
    sum += static_cast<double>(ref.size() + empty.size() +
                               braces.size());
    // soclint:hot-end(PERF-001)
    return sum;
}
