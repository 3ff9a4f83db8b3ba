#!/usr/bin/env python3
"""Builds the benchmark driver and runs its workloads.

One workload (the form a harness calls; see BENCHMARK.json):

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out DIR]

  The last stdout line is one JSON object {correct, attempted, failed,
  metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
  with --trace 1. --out DIR also writes the result files described below.

Every workload, one process each, one after another (benchmark/run.sh):

    python3 benchmark/run.py [--seed N] [--seconds S] [--out DIR] [--smoke]

  Runs each workload traced and writes DIR/<workload>.json and
  DIR/<workload>.layers.json (default DIR: benchmark/build/results).
  --smoke runs every workload at a tiny scale and checks the output schema
  and the correctness gates, in well under a minute once built.

Either form exits non-zero if the build fails, a run fails a gate, or its
output does not match BENCHMARK.json's metric lists.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "scanshare_bench")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds the driver; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs,
              "--target", "scanshare_bench"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("benchmark build failed: %s\n" % " ".join(cmd))
            return False
    return True


def check_metrics(got, expected, where):
    """Names and units in `got` must be exactly the contract's `expected`."""
    want = {m["name"]: m["unit"] for m in expected}
    have = {name: m.get("unit") for name, m in got.items()}
    if have != want:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        units = sorted(n for n in set(want) & set(have) if want[n] != have[n])
        sys.stderr.write("%s: metric schema mismatch (missing %s, extra %s, "
                         "unit differs %s)\n" % (where, missing, extra, units))
        return False
    for name, m in got.items():
        if not isinstance(m.get("value"), (int, float)):
            sys.stderr.write("%s: %s has no numeric value\n" % (where, name))
            return False
    return True


def run_driver(args):
    """Runs the driver, echoing its stdout; returns (exit code, last line)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else "")


def driver_args(opts, workload, trace, out):
    args = ["--workload", workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(trace),
            "--work-dir", BUILD]
    if out:
        os.makedirs(out, exist_ok=True)
        args += ["--out", os.path.abspath(out)]
    if opts.smoke:
        args.append("--smoke")
    return args


def run_one(opts, contract):
    code, last = run_driver(
        driver_args(opts, opts.workload, opts.trace, opts.out))
    if code != 0:
        return code
    result = json.loads(last)
    expected = contract["per_layer" if opts.trace else "end_to_end"]
    return 0 if check_metrics(result["metrics"], expected, opts.workload) else 1


def run_all(opts, contract):
    out = os.path.abspath(opts.out or os.path.join(BUILD, "results"))
    ok = True
    started = time.monotonic()
    for w in contract["workloads"]:
        name = w["name"]
        code, _ = run_driver(driver_args(opts, name, 1, out))
        if code != 0:
            sys.stderr.write("%s: driver exited %d\n" % (name, code))
            ok = False
            continue
        with open(os.path.join(out, name + ".json")) as f:
            e2e = json.load(f)
        with open(os.path.join(out, name + ".layers.json")) as f:
            layers = json.load(f)
        ok &= check_metrics(e2e["metrics"], contract["end_to_end"], name)
        ok &= check_metrics(layers["metrics"], contract["per_layer"],
                            name + " layers")
        if not (e2e["correct"] and all(e2e["gates"].values())):
            sys.stderr.write("%s: correctness gates failed: %s\n"
                             % (name, e2e["gates"]))
            ok = False
    elapsed = time.monotonic() - started
    print("all workloads: %s in %.1f s, results in %s"
          % ("ok" if ok else "FAILED", elapsed, out))
    if opts.smoke and elapsed > 60:
        sys.stderr.write("smoke run took %.1f s (limit 60 s)\n" % elapsed)
        ok = False
    return 0 if ok else 1


def main():
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="directory for the result files")
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args()
    if opts.smoke:
        opts.seconds = min(opts.seconds, 0.2)
    if not build():
        return 1
    return run_one(opts, contract) if opts.workload else run_all(opts, contract)


if __name__ == "__main__":
    sys.exit(main())
