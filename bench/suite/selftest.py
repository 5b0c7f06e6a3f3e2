#!/usr/bin/env python3
"""The suite's own checks, at --smoke sizes (registered in ctest).

  selftest.py --bin B --work DIR names        every workload completes in
                                              each mode, and the metric
                                              names it yields are exactly
                                              BENCHMARK.json's
  selftest.py --bin B --work DIR replica W    the traced replica equals
                                              runTraceSim(threads=1) and
                                              its spans cover the wall time
  selftest.py --bin B --work DIR threads W    same digest at 1 and 4 threads
  selftest.py --bin B --work DIR cli          bad command lines exit 2
"""

import argparse
import os
import subprocess
import sys

import runner

MIN_COVERAGE = 0.95


def fail(message):
    print("FAIL:", message)
    return 1


def run(args, workload, mode, threads=None):
    out = os.path.join(args.work, "%s-%s-%s.json" %
                       (workload, mode, threads or "default"))
    ok, result, error = runner.invoke(workload, mode, None, out,
                                      threads=threads, smoke=True,
                                      binary=args.bin)
    if not ok:
        raise RuntimeError("%s %s: %s" % (workload, mode, error))
    return result


def names(args):
    bench = runner.spec()
    pins = runner.suite_pins()
    if [w["name"] for w in bench["workloads"]] != list(pins["workloads"]):
        return fail("BENCHMARK.json and suite.json list different "
                    "workloads")
    want_e2e = {m["name"] for m in bench["end_to_end"]}
    want_layer = {m["name"] for m in bench["per_layer"]}
    for workload in pins["workloads"]:
        setups = [run(args, workload, "setup")]
        runs = [run(args, workload, "run")]
        traced = [run(args, workload, "traced")]
        e2e = set(runner.end_to_end(setups, runs))
        layers = set(runner.per_layer(setups, runs, traced))
        if e2e != want_e2e:
            return fail("%s end-to-end names differ: %s" %
                        (workload, sorted(e2e ^ want_e2e)))
        if layers != want_layer:
            return fail("%s per-layer names differ: %s" %
                        (workload, sorted(layers ^ want_layer)))
        print(workload, "ok")
    return 0


def replica(args):
    result = run(args, args.workload, "traced")
    coverage = result["metrics"]["trace.coverage"]
    if coverage < MIN_COVERAGE:
        return fail("span self times cover %.3f of the traced wall time"
                    % coverage)
    print("%s: replica equals the program; coverage %.4f, overhead %+.3f"
          % (args.workload, coverage, result["metrics"]["trace_overhead"]))
    return 0


def threads(args):
    one = run(args, args.workload, "run", threads=1)
    four = run(args, args.workload, "run", threads=4)
    if one["digest"] != four["digest"]:
        return fail("digest %s at 1 thread, %s at 4" %
                    (one["digest"], four["digest"]))
    print("%s: digest %s at 1 and 4 threads" % (args.workload,
                                                one["digest"]))
    return 0


def cli(args):
    out = os.path.join(args.work, "cli.json")
    bad = [
        ["--workload", "zone_fleet", "--out", out, "--bogus"],
        ["--workload", "no_such_workload", "--out", out],
        ["--workload", "zone_fleet", "--out", out, "--seed", "12x"],
        ["--workload", "zone_fleet", "--out", out, "--seed", "-1"],
        ["--workload", "zone_fleet", "--out", out, "--seed", ""],
        ["--workload", "zone_fleet", "--out", out, "--threads", "0"],
        ["--workload", "zone_fleet", "--out", out, "--threads", "abc"],
        ["--workload", "zone_fleet", "--out", out, "--threads", "4.5"],
        ["--workload", "zone_fleet", "--out", out, "--seed"],
        ["--workload", "zone_fleet"],
        ["--out", out],
        ["--workload", "zone_fleet", "--out", out, "--setup", "--traced"],
    ]
    for argv in bad:
        if os.path.exists(out):
            os.remove(out)
        code = subprocess.run([args.bin] + argv, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        if code != 2 or os.path.exists(out):
            return fail("%s exited %d (want 2, no output)" %
                        (" ".join(argv), code))
    print("%d malformed command lines rejected" % len(bad))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("check", choices=("names", "replica", "threads",
                                          "cli"))
    parser.add_argument("workload", nargs="?")
    args = parser.parse_args()
    os.makedirs(args.work, exist_ok=True)
    checks = {"names": names, "replica": replica, "threads": threads,
              "cli": cli}
    try:
        return checks[args.check](args)
    except RuntimeError as e:
        return fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
