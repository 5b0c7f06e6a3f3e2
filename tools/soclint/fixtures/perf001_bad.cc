/** Known-bad fixture: PERF-001 must flag per-step allocation inside
 *  a declared replay hot region. */

#include <cstddef>
#include <map>
#include <string>
#include <vector>

void
replayStep(std::vector<double> &samples, double value)
{
    // soclint:hot-begin(PERF-001)
    // Growing a vector once per control step: allocator traffic on
    // the hot path.
    samples.push_back(value);
    // soclint:hot-end(PERF-001)
}

/** A window refill that allocates its scratch per call instead of
 *  keeping it on the stack: allocator traffic once per streamed
 *  window of every rack. */
void
refillWindow(std::size_t n, unsigned short *util, std::size_t stride)
{
    // soclint:hot-begin(PERF-001)
    std::vector<double> column;
    column.resize(n);
    for (std::size_t k = 0; k < n; ++k)
        util[k * stride] =
            static_cast<unsigned short>(column[k] * 65535.0);
    // soclint:hot-end(PERF-001)
}

/** Allocations spelled without an allocating member call: a
 *  container constructed with a size or elements, an insert, and
 *  string concatenation, once per event. */
void
onEvent(std::vector<int> &ids, std::map<int, double> &seen,
        std::string &log, std::size_t n, int id)
{
    // soclint:hot-begin(PERF-001)
    std::vector<double> grown(n);
    std::vector<std::size_t> one{n};
    std::vector<int>(n).swap(ids);
    seen.insert({id, 1.0});
    ids.insert(ids.begin(), id);
    log = "event " + std::to_string(id);
    log += "\n";
    // soclint:hot-end(PERF-001)
    (void)grown;
    (void)one;
}
