#!/bin/sh
# Full CI gate: tier-1 build + tests, the repository benchmark's
# correctness checks, the bench regression gates, the
# static-analysis chain, ThreadSanitizer, the suite under
# UndefinedBehaviorSanitizer, and the chaos suite and the sim
# engine's tests under AddressSanitizer.
# Each stage uses its own build directory so sanitizer flags never
# leak between configurations.  Usage: scripts/ci_check.sh
set -e
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

echo "==== ci_check: tier-1 build + ctest ===="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$(nproc)"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$(nproc)"

echo "==== ci_check: benchmark correctness (bench/suite) ===="
# The repository benchmark's own checks: replica bit-identity,
# thread-count invariance and CLI rejections, then one short
# measurement per workload at its pinned seed, where every run's
# simulated statistics must equal the suite.json golden.  A
# performance change that moved a golden fails here even when
# every unit test passes.
cmake -S "$ROOT/bench/suite" -B "$ROOT/build-bench"
cmake --build "$ROOT/build-bench" -j "$(nproc)"
ctest --test-dir "$ROOT/build-bench" --output-on-failure -L suite
# Pins come from suite.json, so a re-pinned workload is still
# checked against its golden; fail closed unless all five are read.
set -- $(python3 -c '
import json, sys
for name, w in json.load(open(sys.argv[1]))["workloads"].items():
    print(name, w["pinned_seed"])
' "$ROOT/bench/suite/suite.json")
[ $# -eq 10 ] || {
    echo "FAIL: expected 5 pinned workloads in suite.json" >&2
    exit 1
}
while [ $# -gt 0 ]; do
    LAST=$("$ROOT/bench/suite/run.sh" --workload "$1" --seed "$2" \
        --seconds 1 --trace 0 | tail -n 1)
    case "$LAST" in
      *'"correct": true'*'"failed": 0'*)
        echo "benchmark $1 (seed $2): correct" ;;
      *)
        echo "FAIL: benchmark $1 (seed $2): $LAST" >&2
        exit 1 ;;
    esac
    shift 2
done

echo "==== ci_check: bench gates ===="
"$ROOT/scripts/bench_check.sh" "$ROOT/build"

echo "==== ci_check: paper-scale smoke (512 racks) ===="
# CI-sized slice of the 7,104-rack streaming replay: exercises the
# HierarchyZone lockstep orchestrator end to end without the full
# fleet's minutes of wall time.  Success = the run completes, emits
# its gated fields (throughput is gated at full scale by
# bench_check.sh) and stays under a memory ceiling.
"$ROOT/build/bench/bench_trace_sim" \
    "$ROOT/build/BENCH_paper_smoke.json" --paper-scale --racks 512
for field in paper_racks_per_s paper_peak_rss_mb; do
    grep -q "\"$field\"" "$ROOT/build/BENCH_paper_smoke.json" || {
        echo "FAIL: $field missing from paper-scale smoke output" >&2
        exit 1
    }
done
# Memory ceiling for the resident fleet: the run peaks at 448-450 MB
# at 1 and 4 threads, so a regression of ~25% fails it (with the
# gOAs' split scratch and budget copies resident between
# boundaries it peaked at 740-750 MB).  Parsed fail-closed: an
# unreadable value fails the stage.
PAPER_SMOKE_RSS_MB_MAX=560
PAPER_SMOKE_RSS_MB=$(sed -n \
    's/.*"paper_peak_rss_mb": \([0-9.]*\).*/\1/p' \
    "$ROOT/build/BENCH_paper_smoke.json")
if [ -z "$PAPER_SMOKE_RSS_MB" ]; then
    echo "FAIL: paper_peak_rss_mb unreadable in paper-scale smoke" \
         "output" >&2
    exit 1
fi
echo "paper-scale smoke peak RSS: $PAPER_SMOKE_RSS_MB MB" \
     "(ceiling: $PAPER_SMOKE_RSS_MB_MAX)"
awk "BEGIN { exit !($PAPER_SMOKE_RSS_MB <= $PAPER_SMOKE_RSS_MB_MAX) }" || {
    echo "FAIL: paper-scale smoke peak RSS above" \
         "$PAPER_SMOKE_RSS_MB_MAX MB" >&2
    exit 1
}

echo "==== ci_check: six-week horizon smoke (16 racks) ===="
# Tiny fleet on the paper's full 1w + 5w horizon: crosses weekly
# recomputes, weekend amplitude shifts and many stream-window
# refills — the long-horizon paths the 6h + 6h smoke never reaches.
"$ROOT/build/bench/bench_trace_sim" \
    "$ROOT/build/BENCH_sixweek_smoke.json" --paper-scale \
    --racks 16 --six-weeks
for field in paper_racks_per_s paper_peak_rss_mb; do
    grep -q "\"$field\"" "$ROOT/build/BENCH_sixweek_smoke.json" || {
        echo "FAIL: $field missing from six-week smoke output" >&2
        exit 1
    }
done
# Memory ceiling: per-server state that grows with the horizon
# must not creep back unnoticed.  The run peaks at 29.5 MB at 1
# thread and 33.4 MB at 4 (~25% margin below); a second,
# full-horizon copy of each sOA's telemetry took it to 110 MB.
# Parsed fail-closed: an unreadable value fails the stage.
SIXWEEK_RSS_MB_MAX=42
SIXWEEK_RSS_MB=$(sed -n 's/.*"paper_peak_rss_mb": \([0-9.]*\).*/\1/p' \
    "$ROOT/build/BENCH_sixweek_smoke.json")
if [ -z "$SIXWEEK_RSS_MB" ]; then
    echo "FAIL: paper_peak_rss_mb unreadable in six-week smoke" \
         "output" >&2
    exit 1
fi
echo "six-week smoke peak RSS: $SIXWEEK_RSS_MB MB" \
     "(ceiling: $SIXWEEK_RSS_MB_MAX)"
awk "BEGIN { exit !($SIXWEEK_RSS_MB <= $SIXWEEK_RSS_MB_MAX) }" || {
    echo "FAIL: six-week smoke peak RSS above" \
         "$SIXWEEK_RSS_MB_MAX MB" >&2
    exit 1
}

echo "==== ci_check: static analysis ===="
STATIC_LOG="$(mktemp)"
if ! "$ROOT/scripts/static_check.sh" "$ROOT/build-static" \
    >"$STATIC_LOG" 2>&1; then
    cat "$STATIC_LOG"
    rm -f "$STATIC_LOG"
    exit 1
fi
cat "$STATIC_LOG"
# One-line findings delta for the CI log scanner: new findings vs
# the checked-in baseline, straight from the soclint summary.
grep '^soclint summary:' "$STATIC_LOG" |
    sed 's/^soclint summary:/soclint findings delta vs baseline:/'
rm -f "$STATIC_LOG"

echo "==== ci_check: ThreadSanitizer ===="
"$ROOT/scripts/tsan_check.sh" "$ROOT/build-tsan"

echo "==== ci_check: UndefinedBehaviorSanitizer ===="
cmake -B "$ROOT/build-ubsan" -S "$ROOT" -DSOC_SANITIZE=undefined
cmake --build "$ROOT/build-ubsan" -j "$(nproc)"
ctest --test-dir "$ROOT/build-ubsan" --output-on-failure -j "$(nproc)"

echo "==== ci_check: chaos suite and sim tests under AddressSanitizer ===="
# The fault-injection suite drives the gOA's push queue (its
# delivery cursor and the clear once drained), crash-restarts and
# the hint ingress, where a heap error would hide.  test_sim covers
# the event queue's slot pool and wheel, sim::Ring and the periodic
# tasks' storage.
cmake -B "$ROOT/build-asan" -S "$ROOT" -DSOC_SANITIZE=address
cmake --build "$ROOT/build-asan" -j "$(nproc)" --target test_chaos \
    test_sim
ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$(nproc)" \
    -L 'chaos|sim'

echo "==== ci_check: all stages passed ===="
