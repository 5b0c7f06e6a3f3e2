#!/bin/sh
# Performance check: build the bench targets, write
# BENCH_trace_sim.json into the build dir (simulator replay throughput,
# gOA recompute latency at 1-week vs 6-week telemetry horizons, the
# hierarchical budget tier, hint-ingestion throughput under the
# standard adversarial storm, and the 7,104-rack paper-scale
# streaming replay).  Gates:
#  - replay throughput must stay at or above RACKS_PER_S_MIN
#    (struct-of-arrays replay baseline, with margin for CI noise);
#  - the 6-week recompute must stay within 2x of the 1-week one —
#    the incremental-aggregation guarantee this repo relies on
#    (min-of-N figures: the mean mixes in scheduler noise).  Both
#    horizons fill the one-week template window, so the ratio sees
#    horizon growth, not window fill;
#  - the incremental hierarchy recompute must undercut the flat
#    zone split by at least 2x — the reason the tier exists;
#  - storm ingestion must sustain HINTS_PER_S_MIN through the
#    offer/parse/dedup/drop/drain path, and a hint flood twice the
#    default 4,096-entry queue per step OVERFLOW_HINTS_PER_S_MIN
#    through the eviction path (each ~1/4 of the throughput
#    measured when the flat tables and ring queues landed; an
#    O(queue) eviction, e.g. a vector erase, falls far below it);
#  - batch normal generation (Rng::normalFill, the window-refill
#    primitive) must stay faster than the scalar loop it replaced
#    by GEN_BATCH_SPEEDUP_MIN (1.33-1.86x measured with the
#    compacting polar loop, 1.08-1.09x before it; the floor is
#    ~1.55 less ~20%);
#  - the shape fill (Archetype::utilFill reading its minute-of-day
#    table) must stay SHAPE_FILL_SPEEDUP_MIN faster than the
#    per-sample utilAt kernel loop it is pinned to (7.4-11.5x
#    measured as the host's speed swings; the floor is the low end
#    less ~20%);
#  - the Percentiles reservoir (add, then a P99, whose O(n) radix
#    sort the cluster sim's per-class latency reservoirs pay once
#    per run) must stay PERCENTILE_SORT_SPEEDUP_MIN faster than a
#    std::sort reference on ~300k lognormal latencies (2.0-2.3x
#    measured; the floor is the low end less ~20%; a fall back to
#    an O(n log n) sort reads ~1x);
#  - the two-tier EventQueue (16 us timing wheel over the binary
#    heap) must stay EVENT_QUEUE_SPEEDUP_MIN faster than a
#    std::priority_queue (when, seq) reference with the same
#    std::function handlers, on the cluster sim's measured traffic
#    (52 pending; 23.7% of delays under 1 ms, 76.0% over
#    1-65.5 ms, 0.26% past the wheel; 0.44% same-tick;
#    2.68-2.83x measured; the floor is below the low end less
#    ~20%).  A ratio, timed interleaved, so a slow host moves both
#    sides alike;
#  - the paper-scale run (7,104 racks x 8 servers, 6h + 6h,
#    HierarchyZone) must sustain PAPER_RACKS_PER_S_MIN and stay
#    under PAPER_PEAK_RSS_MB_MAX — the streaming-window + resident-
#    fleet footprint (BENCH_trace_sim.json records 290.8 racks/s
#    and 6,222 MB at 4 threads with the split scratch per thread;
#    the ceiling is that plus ~25%.  Resident per-rack split
#    scratch and budget copies took it to 10.3 GB; the gate landed
#    at ~55 racks/s, ~29 GB);
#  - paper-scale trace generation must stay cheaper than the replay
#    itself (gen_s < sim_s): the batch generator must never become
#    the bottleneck of a policy study;
#  - a 256-rack slice of the six-week horizon must stay under
#    SIXWEEK_SLICE_MB_PER_RACK_MAX of peak RSS per rack (1.62
#    MB/rack at 1 thread, 1.69 at 4; ~25% margin; resident
#    per-rack split scratch made it 2.22), and its trace generation
#    must stay cheaper than its replay (paper_gen_s < paper_sim_s),
#    as at paper scale.
# Once every gate passes, the file is copied over the committed
# BENCH_trace_sim.json at the repo root, but only when it was built
# from a clean tree: a paper_commit ending in "-dirty" names a
# commit the figures did not come from.
# Usage: scripts/bench_check.sh [builddir]
set -e
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-build}"
RACKS_PER_S_MIN=500
HINTS_PER_S_MIN=2000000
OVERFLOW_HINTS_PER_S_MIN=750000
GEN_BATCH_SPEEDUP_MIN=1.25
SHAPE_FILL_SPEEDUP_MIN=6.0
PERCENTILE_SORT_SPEEDUP_MIN=1.6
EVENT_QUEUE_SPEEDUP_MIN=1.75
PAPER_RACKS_PER_S_MIN=100
PAPER_PEAK_RSS_MB_MAX=7750
SIXWEEK_SLICE_RACKS=256
SIXWEEK_SLICE_MB_PER_RACK_MAX=2.1
cmake -B "$BUILD" -S "$ROOT"
cmake --build "$BUILD" -j "$(nproc)" \
    --target bench_trace_sim bench_micro_primitives
OUT="$BUILD/BENCH_trace_sim.json"
"$BUILD/bench/bench_trace_sim" "$OUT"

# Parse fail-closed: an empty extraction (field renamed, malformed
# JSON) must fail the gate rather than vacuously pass it.  The
# optional second argument names another JSON file to read.
extract() {
    FILE="${2:-$OUT}"
    VALUE=$(sed -n "s/.*\"$1\": \([0-9.]*\).*/\1/p" "$FILE")
    if [ -z "$VALUE" ]; then
        echo "FAIL: field '$1' missing from $FILE" >&2
        exit 1
    fi
    echo "$VALUE"
}

RACKS_PER_S=$(extract racks_per_s)
echo "replay throughput: $RACKS_PER_S racks/s" \
     "(floor: $RACKS_PER_S_MIN)"
awk "BEGIN { exit !($RACKS_PER_S >= $RACKS_PER_S_MIN) }" || {
    echo "FAIL: replay throughput regressed below" \
         "$RACKS_PER_S_MIN racks/s" >&2
    exit 1
}

RATIO=$(extract ratio_6w_over_1w)
echo "recompute 6w/1w ratio: $RATIO (bound: 2.0)"
awk "BEGIN { exit !($RATIO <= 2.0) }" || {
    echo "FAIL: recompute cost grows with telemetry horizon" >&2
    exit 1
}

FLAT_SPLIT_US=$(extract flat_zone_split_us)
INCR_RECOMPUTE_US=$(extract incremental_recompute_us)
echo "hierarchy recompute: ${INCR_RECOMPUTE_US}us incremental" \
     "vs ${FLAT_SPLIT_US}us flat (required: >= 2x faster)"
awk "BEGIN { exit !($FLAT_SPLIT_US >= 2 * $INCR_RECOMPUTE_US) }" || {
    echo "FAIL: incremental hierarchy recompute no longer beats" \
         "the flat zone split by 2x" >&2
    exit 1
}

HINTS_PER_S=$(extract hints_per_s)
echo "storm ingestion: $HINTS_PER_S hints/s" \
     "(floor: $HINTS_PER_S_MIN)"
awk "BEGIN { exit !($HINTS_PER_S >= $HINTS_PER_S_MIN) }" || {
    echo "FAIL: hint ingestion regressed below" \
         "$HINTS_PER_S_MIN hints/s" >&2
    exit 1
}

OVERFLOW_HINTS_PER_S=$(extract overflow_hints_per_s)
echo "overflow ingestion: $OVERFLOW_HINTS_PER_S hints/s" \
     "(floor: $OVERFLOW_HINTS_PER_S_MIN)"
awk "BEGIN { exit !($OVERFLOW_HINTS_PER_S >= \
    $OVERFLOW_HINTS_PER_S_MIN) }" || {
    echo "FAIL: hint ingestion on the overflow path regressed" \
         "below $OVERFLOW_HINTS_PER_S_MIN hints/s" >&2
    exit 1
}

GEN_SCALAR=$(extract gen_scalar_normals_per_s)
GEN_BATCH=$(extract gen_batch_normals_per_s)
GEN_SPEEDUP=$(extract gen_batch_speedup)
echo "batch normal generation: $GEN_BATCH normals/s batch" \
     "vs $GEN_SCALAR scalar, speedup $GEN_SPEEDUP" \
     "(floor: $GEN_BATCH_SPEEDUP_MIN)"
awk "BEGIN { exit !($GEN_SPEEDUP >= $GEN_BATCH_SPEEDUP_MIN) }" || {
    echo "FAIL: batch normalFill no longer beats the scalar loop" \
         "by ${GEN_BATCH_SPEEDUP_MIN}x" >&2
    exit 1
}

SHAPE_KERNEL=$(extract shape_kernel_samples_per_s)
SHAPE_FILL=$(extract shape_fill_samples_per_s)
SHAPE_SPEEDUP=$(extract shape_fill_speedup)
echo "shape fill: $SHAPE_FILL samples/s table" \
     "vs $SHAPE_KERNEL kernel, speedup $SHAPE_SPEEDUP" \
     "(floor: $SHAPE_FILL_SPEEDUP_MIN)"
awk "BEGIN { exit !($SHAPE_SPEEDUP >= $SHAPE_FILL_SPEEDUP_MIN) }" || {
    echo "FAIL: utilFill no longer beats the utilAt kernel loop" \
         "by ${SHAPE_FILL_SPEEDUP_MIN}x" >&2
    exit 1
}

PCT_REFERENCE=$(extract percentile_reference_samples_per_s)
PCT_RESERVOIR=$(extract percentile_samples_per_s)
PCT_SPEEDUP=$(extract percentile_sort_speedup)
echo "percentile sort: $PCT_RESERVOIR samples/s reservoir" \
     "vs $PCT_REFERENCE std::sort, speedup $PCT_SPEEDUP" \
     "(floor: $PERCENTILE_SORT_SPEEDUP_MIN)"
awk "BEGIN { exit !($PCT_SPEEDUP >= $PERCENTILE_SORT_SPEEDUP_MIN) }" || {
    echo "FAIL: the Percentiles sort no longer beats std::sort" \
         "by ${PERCENTILE_SORT_SPEEDUP_MIN}x" >&2
    exit 1
}

EQ_REFERENCE=$(extract event_queue_reference_events_per_s)
EQ_QUEUE=$(extract event_queue_events_per_s)
EQ_SPEEDUP=$(extract event_queue_speedup)
echo "event queue: $EQ_QUEUE events/s two-tier" \
     "vs $EQ_REFERENCE priority_queue, speedup $EQ_SPEEDUP" \
     "(floor: $EVENT_QUEUE_SPEEDUP_MIN)"
awk "BEGIN { exit !($EQ_SPEEDUP >= $EVENT_QUEUE_SPEEDUP_MIN) }" || {
    echo "FAIL: the event queue no longer beats a priority_queue" \
         "by ${EVENT_QUEUE_SPEEDUP_MIN}x" >&2
    exit 1
}

PAPER_RACKS_PER_S=$(extract paper_racks_per_s)
echo "paper-scale replay: $PAPER_RACKS_PER_S racks/s" \
     "(floor: $PAPER_RACKS_PER_S_MIN)"
awk "BEGIN { exit !($PAPER_RACKS_PER_S >= $PAPER_RACKS_PER_S_MIN) }" || {
    echo "FAIL: paper-scale replay regressed below" \
         "$PAPER_RACKS_PER_S_MIN racks/s" >&2
    exit 1
}

PAPER_PEAK_RSS_MB=$(extract paper_peak_rss_mb)
echo "paper-scale peak RSS: $PAPER_PEAK_RSS_MB MB" \
     "(ceiling: $PAPER_PEAK_RSS_MB_MAX)"
awk "BEGIN { exit !($PAPER_PEAK_RSS_MB <= $PAPER_PEAK_RSS_MB_MAX) }" || {
    echo "FAIL: paper-scale peak RSS above" \
         "$PAPER_PEAK_RSS_MB_MAX MB — streaming replay leak?" >&2
    exit 1
}

PAPER_GEN_S=$(extract paper_gen_s)
PAPER_SIM_S=$(extract paper_sim_s)
echo "paper-scale generation: ${PAPER_GEN_S}s gen" \
     "vs ${PAPER_SIM_S}s sim (required: gen < sim)"
awk "BEGIN { exit !($PAPER_GEN_S < $PAPER_SIM_S) }" || {
    echo "FAIL: trace generation now dominates the paper-scale" \
         "replay (gen_s >= sim_s)" >&2
    exit 1
}
# Six-week slice: 256 racks on the paper's 1w + 5w horizon.  At
# six weeks per-rack state (the sOAs' slot aggregators, the agents)
# dominates the footprint, so one gate is peak RSS per rack; the
# other keeps its generation cheaper than its replay.
"$BUILD/bench/bench_trace_sim" "$BUILD/BENCH_sixweek_slice.json" \
    --paper-scale --racks "$SIXWEEK_SLICE_RACKS" --six-weeks
SLICE_JSON="$BUILD/BENCH_sixweek_slice.json"
SLICE_RACKS=$(extract paper_racks "$SLICE_JSON")
SLICE_RSS_MB=$(extract paper_peak_rss_mb "$SLICE_JSON")
SLICE_MB_PER_RACK=$(awk \
    "BEGIN { printf \"%.3f\", $SLICE_RSS_MB / $SLICE_RACKS }")
echo "six-week slice ($SLICE_RACKS racks): $SLICE_RSS_MB MB peak," \
     "$SLICE_MB_PER_RACK MB/rack" \
     "(ceiling: $SIXWEEK_SLICE_MB_PER_RACK_MAX)"
awk "BEGIN { exit !($SLICE_MB_PER_RACK <= \
    $SIXWEEK_SLICE_MB_PER_RACK_MAX) }" || {
    echo "FAIL: six-week slice peak RSS above" \
         "$SIXWEEK_SLICE_MB_PER_RACK_MAX MB per rack" >&2
    exit 1
}
SLICE_GEN_S=$(extract paper_gen_s "$SLICE_JSON")
SLICE_SIM_S=$(extract paper_sim_s "$SLICE_JSON")
echo "six-week slice generation: ${SLICE_GEN_S}s gen" \
     "vs ${SLICE_SIM_S}s sim (required: gen < sim)"
awk "BEGIN { exit !($SLICE_GEN_S < $SLICE_SIM_S) }" || {
    echo "FAIL: trace generation dominates the six-week slice" \
         "(gen_s >= sim_s)" >&2
    exit 1
}

# Refresh the committed figures only from a clean tree.
COMMIT=$(sed -n 's/.*"paper_commit": "\([^"]*\)".*/\1/p' "$OUT")
if [ -z "$COMMIT" ]; then
    echo "FAIL: field 'paper_commit' missing from $OUT" >&2
    exit 1
fi
case "$COMMIT" in
  *-dirty)
    echo "not refreshing $ROOT/BENCH_trace_sim.json: $OUT was" \
         "built from a dirty tree ($COMMIT)" ;;
  *)
    cp "$OUT" "$ROOT/BENCH_trace_sim.json"
    echo "refreshed $ROOT/BENCH_trace_sim.json ($COMMIT)" ;;
esac

# Microbenchmarks of the underlying primitives (informational).
"$BUILD/bench/bench_micro_primitives" \
    --benchmark_filter='BM_Template|BM_Budget' \
    --benchmark_min_time=0.05
