#!/usr/bin/env python3
"""Build and run the repository benchmark (bench/suite/run.sh wraps this).

Three ways to call it, all from the repository root:

  run.sh [--out DIR]
      Build, then run all five workloads at their pinned seeds, in
      SUITE_REPS rounds of one set-up and one full run each (timings
      scaled by the host-speed reference, see Rounds), then one
      thread-pool probe and one traced replica per workload; every run
      is a fresh process.  Prints every metric with its unit, its
      value (see estimate()), median and quartiles; checks every output
      against the goldens in bench/suite/suite.json; saves the result
      set (default build-bench/results/<time>).  Exits 1 if any run
      failed or disagreed with its golden.

  run.sh --agree A B
      Compare two saved result sets metric by metric: each value of B
      must lie within BENCHMARK.json's bound of A's.

  run.sh --workload W --seed N --seconds S --trace 0|1
      One measurement: inputs from --seed, measured for up to S
      seconds (at least three rounds), last stdout line one JSON object
      {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives
      the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
BUILD = os.path.join(ROOT, "build-bench")
BIN = os.path.join(BUILD, "soc_benchmark")
REFERENCE_BIN = os.path.join(BUILD, "soc_reference")

# A measurement must end within 180 s: no repetition starts that the
# longest one so far would carry past RUN_DEADLINE_S, and no process
# may run longer than PROCESS_TIMEOUT_S.
RUN_DEADLINE_S = 140.0
PROCESS_TIMEOUT_S = 120.0
# A measurement runs rounds of one set-up process and one full run, at
# least MIN_ROUNDS rounds, and starts no round that the longest so far
# would carry past --seconds.  Interleaving spreads the set-up samples
# over the same stretch of time as the full runs.
MIN_ROUNDS = 3
SUITE_REPS = 10
# Each CPU of the host runs fast or slow by turns, for seconds at a
# time, so the end-to-end processes all run on one CPU and
# soc_reference runs there between every two rounds.  A round's
# timings are scaled by REFERENCE_NOMINAL_S over the mean of the
# reference times on either side of it: they read as on a host where
# soc_reference takes REFERENCE_NOMINAL_S.  README.md has the spreads.
REFERENCE_NOMINAL_S = 0.1
# The timings of a measurement are taken over all its full runs:
# server_hours_per_s is their simulated server-hours over their
# scaled wall time (the harmonic mean of the per-run rates), cpu_s
# their mean.  The other metrics are medians.
OVER_WHOLE_RUN = {"server_hours_per_s": statistics.harmonic_mean,
                  "cpu_s": statistics.mean}
# End-to-end and set-up runs are single-threaded.  At 4 threads on a
# 4-vCPU guest a run waits on its slowest thread (lockstep barriers, a
# batch's last configuration), and cluster_fig12's peak RSS depends on
# how its concurrent runs overlap: 214-289 MB across seeds, against
# 84-87 MB on one thread.  The thread pool is measured by the
# per-layer probe run at POOL_THREADS.
E2E_THREADS = 1
POOL_THREADS = min(4, len(os.sched_getaffinity(0)))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def suite_pins():
    return load_json(os.path.join(SUITE, "suite.json"))


def build():
    """Configure once, then bring soc_benchmark up to date.  Returns
    False (with the tool output on stderr) when the build fails."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SUITE, "-B", BUILD])
        steps.append(["cmake", "--build", BUILD, "--target", "soc_benchmark",
                      "soc_reference", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                return False
    return os.path.exists(BIN) and os.path.exists(REFERENCE_BIN)


def measure_cpu():
    """The CPU every end-to-end process and reference call runs on."""
    return max(os.sched_getaffinity(0))


def pinned(cpu):
    """A preexec_fn that binds the child to `cpu` (None: leave it)."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def reference_s(cpu):
    """soc_reference's time on `cpu` now; (seconds, error)."""
    try:
        proc = subprocess.run([REFERENCE_BIN], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S,
                              preexec_fn=pinned(cpu))
    except subprocess.TimeoutExpired:
        return None, "reference timed out"
    try:
        seconds = float(proc.stdout.split()[-1])
    except (IndexError, ValueError):
        seconds = 0.0
    if proc.returncode != 0 or not seconds > 0.0:
        return None, "reference failed: %s" % (
            proc.stderr.strip() or "exit status %d" % proc.returncode)
    return seconds, ""


def invoke(workload, mode, seed, out, threads=None, smoke=False,
           binary=BIN, cpu=None):
    """One soc_benchmark process, on `cpu` if given.  Returns (ok,
    result, error)."""
    cmd = [binary, "--workload", workload, "--out", out]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if mode in ("setup", "traced"):
        cmd.append("--" + mode)
    if smoke:
        cmd.append("--smoke")
    if os.path.exists(out):
        os.remove(out)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S,
                              preexec_fn=pinned(cpu))
    except subprocess.TimeoutExpired:
        return False, None, "timed out"
    result = load_json(out) if os.path.exists(out) else None
    if proc.returncode != 0 or result is None:
        return False, result, proc.stderr.strip() or \
            "exit status %d" % proc.returncode
    if result["errors"]:
        return False, result, "; ".join(result["errors"])
    return True, result, ""


def pin_errors(result, pins):
    """Differences between a result and suite.json: the configuration
    always (with the run's seed), the simulated statistics at the
    pinned seed."""
    errors = []
    pinned = pins["workloads"][result["workload"]]
    traced = result["mode"] == "traced"
    expected = dict(pinned["replica_config" if traced else "config"])
    expected["seed"] = result["seed"]
    if result["mode"] == "setup":
        expected = setup_config(expected)
    if result["config"] != expected:
        keys = sorted(k for k in set(expected) | set(result["config"])
                      if expected.get(k) != result["config"].get(k))
        errors.append("configuration differs from suite.json in %s" %
                      ", ".join(keys))
    if result["mode"] != "setup" and \
            result["seed"] == result["pinned_seed"]:
        golden = pinned["replica_golden" if traced else "golden"]
        if result["golden"] != golden:
            keys = sorted(k for k in golden
                          if golden[k] != result["golden"].get(k))
            errors.append("statistics differ from the golden in %s" %
                          ", ".join(keys))
    return errors


def setup_config(config):
    """The pinned configuration as a set-up run prints it."""
    out = dict(config)
    step = out.get("control_step_s", out.get("control_period_s"))
    out["warmup_s"] = 0
    out["duration_s"] = step
    return out


def median(values):
    return statistics.median(values)


def estimate(name, values):
    """The value a measurement reports for a metric."""
    return OVER_WHOLE_RUN.get(name, median)(values)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Tally:
    """Attempts, failures and the reason for each failure."""

    def __init__(self, pins):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.digests = {}

    def record(self, ok, result, error, label):
        self.attempted += 1
        if ok and result is not None and not result["smoke"]:
            errors = pin_errors(result, self.pins)
            # Same inputs, same outputs: every repetition of one mode
            # must print the same digest.
            key = (result["mode"], result["seed"])
            first = self.digests.setdefault(key, result["digest"])
            if first != result["digest"]:
                errors.append("digest %s differs from an earlier "
                              "repetition's %s" % (result["digest"], first))
            if errors:
                ok, error = False, "; ".join(errors)
        if not ok:
            self.failed += 1
            self.reasons.append("%s: %s" % (label, error))
            log("FAILED", label, error)
        return ok


def work_path(workload, name):
    directory = os.path.join(BUILD, "runs", workload)
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, name)


def repeat(tally, workload, mode, seed, max_reps, until,
           threads=E2E_THREADS, cpu=None):
    """Run fresh processes: at least one, at most max_reps, and none
    that the longest so far would carry past `until` (a
    time.monotonic() value); returns the results that passed."""
    results = []
    reps = 0
    longest = 0.0
    while reps < max_reps:
        if reps > 0 and time.monotonic() + longest > until:
            break
        t0 = time.monotonic()
        out = work_path(workload, "%s-%d-%d.json" % (mode, threads, reps))
        ok, result, error = invoke(workload, mode, seed, out, threads,
                                   cpu=cpu)
        longest = max(longest, time.monotonic() - t0)
        if tally.record(ok, result, error, "%s %s #%d" % (workload, mode,
                                                           reps)):
            results.append(result)
        reps += 1
    return results


class Rounds:
    """End-to-end rounds, all on one CPU: a set-up process and a full
    run, then a soc_reference call.  Each result of a round carries
    "host_factor": REFERENCE_NOMINAL_S over the mean of the reference
    times before and after the round."""

    def __init__(self):
        self.cpu = measure_cpu()
        self.before = None

    def reference(self, tally):
        seconds, error = reference_s(self.cpu)
        if seconds is None:
            tally.record(False, None, error, "soc_reference")
        return seconds

    def run(self, tally, workload, seed):
        """One round: the (set-ups, full runs) that passed."""
        if self.before is None:
            self.before = self.reference(tally)
        setups, runs = [repeat(tally, workload, mode, seed, 1,
                               float("inf"), cpu=self.cpu)
                        for mode in ("setup", "run")]
        after = self.reference(tally)
        if self.before is None or after is None:
            setups, runs = [], []
        else:
            factor = REFERENCE_NOMINAL_S / ((self.before + after) / 2)
            for result in setups + runs:
                result["host_factor"] = factor
        self.before = after
        return setups, runs


def metric_values(results, name):
    return [r["metrics"][name] for r in results]


def host_scaled(results, name):
    """A timing of each result, scaled to the nominal host."""
    return [r["metrics"][name] * r.get("host_factor", 1.0)
            for r in results]


def end_to_end(setups, runs):
    """Per-repetition values of every end-to-end metric."""
    return {
        "server_hours_per_s": [
            r["metrics"]["server_hours"] / wall
            for r, wall in zip(runs, host_scaled(runs, "wall_s"))],
        "cpu_s": host_scaled(runs, "cpu_s"),
        "peak_rss_mb": metric_values(runs, "peak_rss_mb"),
        "setup_s": host_scaled(setups, "setup_s"),
    }


def per_layer(setups, probes, traced):
    """Per-repetition values of every per-layer metric: most from the
    traced replica, the rest from the set-up runs and the full-size
    thread-pool probes."""
    values = {}
    for name in traced[0]["metrics"] if traced else []:
        values[name] = metric_values(traced, name)
    values["core.setup_kb_per_server"] = metric_values(setups,
                                                       "kb_per_server")
    for name, source in (("sim.pool_efficiency", "pool_efficiency"),
                         ("cluster.minor_faults", "minor_faults"),
                         ("cluster.gen_s", "gen_s"),
                         ("cluster.replay_s", "replay_s"),
                         ("cluster.hier_s", "hier_s")):
        values[name] = metric_values(probes, source)
    return values


def contract(args):
    if not build():
        log("build failed")
        return 1
    bench = spec()
    pins = suite_pins()
    if args.workload not in pins["workloads"]:
        log("unknown workload", args.workload)
        return 2
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    stop = min(start + args.seconds, deadline)
    tally = Tally(pins)
    if args.trace:
        setups = repeat(tally, args.workload, "setup", args.seed, 1, stop)
        probes = repeat(tally, args.workload, "run", args.seed, 1, stop,
                        POOL_THREADS)
        traced = repeat(tally, args.workload, "traced", args.seed, 1000,
                        stop)
        values = per_layer(setups, probes, traced)
        wanted = bench["per_layer"]
    else:
        setups, runs = [], []
        longest = 0.0
        rounds = 0
        measure = Rounds()
        while True:
            now = time.monotonic()
            if rounds >= MIN_ROUNDS and now + longest > stop:
                break
            if rounds > 0 and now + longest > deadline:
                break
            t0 = time.monotonic()
            s, r = measure.run(tally, args.workload, args.seed)
            setups += s
            runs += r
            longest = max(longest, time.monotonic() - t0)
            rounds += 1
        values = end_to_end(setups, runs)
        wanted = bench["end_to_end"]
    metrics = {}
    for m in wanted:
        if not values.get(m["name"]):
            log("no measurement of", m["name"])
            return 1
        metrics[m["name"]] = {"value": estimate(m["name"],
                                                values[m["name"]]),
                              "unit": m["unit"]}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def print_table(title, rows):
    print("\n" + title)
    print("%-14s %-28s %-11s %12s %12s %12s %12s %3s" %
          ("workload", "metric", "unit", "value", "median", "q1", "q3",
           "n"))
    for workload, name, unit, values in rows:
        q1, q3 = quartiles(values)
        print("%-14s %-28s %-11s %12.6g %12.6g %12.6g %12.6g %3d" %
              (workload, name, unit, estimate(name, values),
               median(values), q1, q3, len(values)))


def print_table_one(pins, table):
    """The High-tier slice beside the paper's Table I column, with the
    model error: success in points, performance relative."""
    paper = {row["policy"]: row for row in pins["paper_table1_high"]}
    print("\nTable I, High tier, seed %d, against the paper "
          "(informational: the model is validated in shape only)" %
          pins["workloads"]["table1_sweep"]["pinned_seed"])
    print("%-12s %16s %16s %16s %9s %9s" %
          ("policy", "norm.caps/paper", "success/paper", "norm.perf/paper",
           "d.success", "d.perf"))
    for row in table:
        ref = paper[row["policy"]]
        print("%-12s %7.1f/%-8.1f %7.3f/%-8.3f %7.3f/%-8.3f %+8.1fpt %+8.1f%%"
              % (row["policy"], row["norm_caps"], ref["norm_caps"],
                 row["success"], ref["success"], row["norm_perf"],
                 ref["norm_perf"], 100 * (row["success"] - ref["success"]),
                 100 * (row["norm_perf"] / ref["norm_perf"] - 1)))


def suite(args):
    if not build():
        log("build failed")
        return 1
    bench = spec()
    pins = suite_pins()
    out_dir = args.out or os.path.join(
        BUILD, "results", time.strftime("%Y%m%dT%H%M%S"))
    os.makedirs(out_dir, exist_ok=True)
    summary = {"workloads": {}}
    e2e_rows, layer_rows = [], []
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    failed = 0
    table_one = None
    workloads = list(pins["workloads"])
    tallies = {w: Tally(pins) for w in workloads}
    setups = {w: [] for w in workloads}
    runs = {w: [] for w in workloads}
    no_deadline = float("inf")

    def once(workload, mode, threads=E2E_THREADS):
        seed = pins["workloads"][workload]["pinned_seed"]
        return repeat(tallies[workload], workload, mode, seed, 1,
                      no_deadline, threads)

    # Round-robin over the workloads, so a slow spell of the host is
    # shared among them instead of landing on one workload's runs.
    measure = Rounds()
    for _ in range(SUITE_REPS):
        for workload in workloads:
            seed = pins["workloads"][workload]["pinned_seed"]
            s, r = measure.run(tallies[workload], workload, seed)
            setups[workload] += s
            runs[workload] += r
    for workload in workloads:
        tally = tallies[workload]
        probes = once(workload, "run", POOL_THREADS)
        traced = once(workload, "traced")
        for kind, results in (("setup", setups[workload]),
                              ("run", runs[workload]), ("probe", probes),
                              ("traced", traced)):
            for i, result in enumerate(results):
                name = "%s-%s-%d.json" % (workload, kind, i)
                with open(os.path.join(out_dir, name), "w") as f:
                    json.dump(result, f, indent=1)
        e2e = end_to_end(setups[workload], runs[workload])
        layers = per_layer(setups[workload], probes, traced)
        error_rate = tally.failed / tally.attempted
        summary["workloads"][workload] = {
            "end_to_end": e2e, "per_layer": layers,
            "attempted": tally.attempted, "failed": tally.failed,
            "error_rate": error_rate, "failures": tally.reasons,
            "provenance": (runs[workload][0]["provenance"]
                           if runs[workload] else None)}
        failed += tally.failed
        for m in bench["end_to_end"]:
            if e2e.get(m["name"]):
                e2e_rows.append((workload, m["name"], m["unit"],
                                 e2e[m["name"]]))
        e2e_rows.append((workload, "error_rate", "ratio", [error_rate]))
        if runs[workload]:
            e2e_rows.append((workload, "host_factor", "ratio",
                             [r["host_factor"] for r in runs[workload]]))
        for m in bench["per_layer"]:
            if any(layers.get(m["name"], [])):
                layer_rows.append((workload, m["name"], units[m["name"]],
                                   layers[m["name"]]))
        if workload == "table1_sweep" and runs[workload]:
            table_one = runs[workload][0]["table1_high"]
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print_table("Per-layer metrics (traced replica, set-up runs and the "
                "thread-pool probe; layers a workload leaves idle read 0 "
                "and are not shown)", layer_rows)
    print_table("End-to-end metrics (tracing off, %d repetitions, timings "
                "scaled by host_factor = %g s / reference time)" %
                (SUITE_REPS, REFERENCE_NOMINAL_S), e2e_rows)
    if table_one:
        print_table_one(pins, table_one)
    print("\nresult set:", out_dir)
    for workload, entry in summary["workloads"].items():
        for reason in entry["failures"]:
            log("FAILED", reason)
    return 1 if failed else 0


def agree(args):
    bench = spec()
    a = load_json(os.path.join(args.agree[0], "summary.json"))
    b = load_json(os.path.join(args.agree[1], "summary.json"))
    print("%-14s %-20s %12s %12s %12s | %12s %12s %12s %8s %6s" %
          ("workload", "metric", "A value", "A q1", "A q3", "B value",
           "B q1", "B q3", "diff", "bound"))
    disagreements = 0
    for workload in a["workloads"]:
        for m in bench["end_to_end"]:
            va = a["workloads"][workload]["end_to_end"].get(m["name"])
            vb = b["workloads"].get(workload, {}).get(
                "end_to_end", {}).get(m["name"])
            if not va or not vb:
                print("%-14s %-20s missing" % (workload, m["name"]))
                disagreements += 1
                continue
            ma, mb = estimate(m["name"], va), estimate(m["name"], vb)
            diff = (mb - ma) / ma
            ok = abs(diff) <= m["bound"]
            disagreements += not ok
            print("%-14s %-20s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g "
                  "%+7.1f%% %5.0f%% %s" %
                  ((workload, m["name"], ma) + quartiles(va) + (mb,) +
                   quartiles(vb) + (100 * diff, 100 * m["bound"],
                                    "" if ok else "DISAGREE")))
    print("%d disagreement(s)" % disagreements)
    return 1 if disagreements else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--agree", nargs=2, metavar=("A", "B"))
    parser.add_argument("--out")
    args = parser.parse_args()
    contract_args = (args.workload, args.seed, args.seconds, args.trace)
    if any(v is not None for v in contract_args):
        if any(v is None for v in contract_args) or args.seed < 0:
            parser.error("--workload, --seed, --seconds and --trace go "
                         "together")
        return contract(args)
    if args.agree:
        return agree(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
