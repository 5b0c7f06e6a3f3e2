/**
 * @file
 * In-memory span recorder for the benchmark's traced replica.
 *
 * Spans are opened by the benchmark's own code around each call into
 * a simulator layer; nothing inside the libraries is instrumented.
 * Every span name is "<layer>.<what>", where the layer is one of the
 * repository's modules (sim, workload, power, core, cluster,
 * telemetry).
 *
 * Two kinds of span:
 *  - coarse spans (rack build, window refill, recompute, hierarchy
 *    phase, service run) are kept individually with their start, end
 *    and parent span;
 *  - fine spans (one per sOA tick, per request, per rack-manager
 *    tick...) are too many to keep, so they are aggregated per
 *    (name, parent) call-path node into count, total and self time.
 *
 * Self time is a span's duration minus the part covered by its
 * children.  Timestamps come from the CPU's invariant time-stamp
 * counter on x86 (a few ns per read, calibrated against
 * std::chrono::steady_clock over the recording), otherwise from
 * steady_clock directly.
 */

#ifndef SOC_BENCH_SUITE_TRACER_HH
#define SOC_BENCH_SUITE_TRACER_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace socbench
{

class Tracer
{
  public:
    Tracer();

    /** Open a span named @p name (a string literal: compared by
     *  address first).  @p coarse keeps it individually as well. */
    void begin(const char *name, bool coarse = false);

    /** Close the innermost open span. */
    void end() { pop(now()); }

    /** Fix the tick-to-second calibration; call once, after the last
     *  span has closed. */
    void finish();

    /** Wall seconds between construction and finish(). */
    double wallS() const { return wallS_; }

    /** Summed self time of every node called @p name. */
    double selfS(const std::string &name) const;
    /** Summed call count of every node called @p name. */
    std::uint64_t calls(const std::string &name) const;
    /** Self time of all spans of one layer (name prefix). */
    double layerSelfS(const std::string &layer) const;
    /** Self time of all spans; equals the root spans' durations. */
    double allSelfS() const;

    /** Coarse spans as JSONL lines, then one line per aggregated
     *  (name, parent) node. */
    void writeJsonl(std::FILE *out) const;

  private:
    struct Node {
        const char *name = "";
        int parent = -1;
        std::uint64_t count = 0;
        std::uint64_t total = 0;
        std::uint64_t self = 0;
        std::vector<int> children;
    };
    struct Frame {
        int node = 0;
        std::uint64_t start = 0;
        std::uint64_t child = 0;
        int coarse = -1;
    };
    struct Coarse {
        int node = 0;
        int parent = -1;
        std::uint64_t start = 0;
        std::uint64_t end = 0;
    };

    static std::uint64_t
    now()
    {
#if defined(__x86_64__) || defined(__i386__)
        return __rdtsc();
#else
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
#endif
    }

    void pop(std::uint64_t at);
    int child(int parent, const char *name);
    double seconds(std::uint64_t ticks) const
    {
        return static_cast<double>(ticks) * secondsPerTick_;
    }
    std::string path(int node) const;

    std::vector<Node> nodes_;
    std::vector<Frame> stack_;
    std::vector<Coarse> coarse_;
    std::chrono::steady_clock::time_point wallStart_;
    std::uint64_t tickStart_ = 0;
    double secondsPerTick_ = 1e-9;
    double wallS_ = 0.0;
};

/** RAII span. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, bool coarse = false)
        : tracer_(tracer)
    {
        tracer_.begin(name, coarse);
    }
    ~Span() { tracer_.end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
};

} // namespace socbench

#endif // SOC_BENCH_SUITE_TRACER_HH
