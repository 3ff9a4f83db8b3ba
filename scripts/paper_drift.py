#!/usr/bin/env python3
"""Pins the paper's numbers: a fresh bench_paper run, BENCH_paper.json and
EXPERIMENTS.md must agree, and the fresh run must keep DESIGN.md §4's
expected shapes.

  1. Runs `bench_paper --json=OUT` at default scale and byte-compares OUT
     with the committed BENCH_paper.json (every value is virtual time or a
     count, so the file is identical on every host, build type and --jobs).
  2. Checks the expected shapes on OUT (see SHAPES below).
  3. Runs `paper_tables.py --check`: every rendered cell of EXPERIMENTS.md
     must match the committed JSON.

Usage (ctest runs it as `paper_drift`, label `paper`):
  scripts/paper_drift.py --bench build/bench/bench_paper --out /tmp/BENCH_paper.json
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REGEN = ("build/bench/bench_paper --json=BENCH_paper.json && "
         "python3 scripts/paper_tables.py")


def gain(base, new):
    return 0.0 if base == 0 else 1.0 - new / base


def metric(data, label, name):
    return data["runs"][label]["metrics"][name]


def e2e_gain(data, base, shared):
    return gain(metric(data, base, "run.makespan_us"),
                metric(data, shared, "run.makespan_us"))


def seek_gain(data, base, shared):
    return gain(metric(data, base, "disk.seeks"), metric(data, shared, "disk.seeks"))


def regressed_templates(data, base, shared):
    b = data["runs"][base]["template_mean_us"]
    s = data["runs"][shared]["template_mean_us"]
    return [name for name in b if name in s and s[name] > b[name]]


def stream_gains(data, base, shared):
    b = data["runs"][base]["stream_elapsed_us"]
    s = data["runs"][shared]["stream_elapsed_us"]
    return [gain(x, y) for x, y in zip(b, s)]


# The pairs DESIGN.md §4 states the headline shapes for.
PAIRS = ["E1", "A7", "X1", "X2"]


def shapes(data):
    """Yields (description, holds) for each expected shape."""
    for exp in PAIRS:
        base, shared = exp + ".base", exp + ".shared"
        yield ("%s: shared beats baseline end to end" % exp,
               e2e_gain(data, base, shared) > 0)
        yield ("%s: seeks fall by a larger share than end-to-end time" % exp,
               seek_gain(data, base, shared) > e2e_gain(data, base, shared))
    for exp, base, shared in [("E7", "E1.base", "E1.shared"),
                              ("A7", "A7.base", "A7.shared"),
                              ("X2", "X2.base", "X2.shared")]:
        worse = regressed_templates(data, base, shared)
        yield ("%s: no template regresses%s" % (exp, " (%s)" % ", ".join(worse)
                                                if worse else ""), not worse)
    yield ("every E2 run gains more than every E3 run",
           min(stream_gains(data, "E2.base", "E2.shared")) >
           max(stream_gains(data, "E3.base", "E3.shared")))
    overhead = (metric(data, "E8.neutral", "run.makespan_us") /
                metric(data, "E8.base", "run.makespan_us") - 1.0)
    yield ("E8: infrastructure overhead %.2f %% is under 1 %%" % (overhead * 100),
           overhead < 0.01)
    for exp, base, ablated, full in [("A1", "A1.base", "A1.no-throttle", "A1.shared"),
                                     ("A2", "E1.base", "A2.no-hints", "E1.shared")]:
        kept, whole = e2e_gain(data, base, ablated), e2e_gain(data, base, full)
        yield ("%s: the ablated run keeps %.1f %% of a %.1f %% gain, under half" %
               (exp, kept * 100, whole * 100), kept < whole / 2)
    yield ("A5: the end-to-end gain at a 50 % pool is below the gain at 5 %",
           e2e_gain(data, "A5.bp-0.50.base", "A5.bp-0.50.shared") <
           e2e_gain(data, "A5.bp-0.05.base", "A5.bp-0.05.shared"))


def first_difference(fresh, golden):
    a, b = fresh.splitlines(), golden.splitlines()
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i + 1, x, y
    n = min(len(a), len(b))
    return (n + 1, a[n] if n < len(a) else "<end of file>",
            b[n] if n < len(b) else "<end of file>")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True, help="bench_paper binary")
    parser.add_argument("--out", required=True, help="where the fresh JSON goes")
    args = parser.parse_args()
    golden_path = os.path.join(ROOT, "BENCH_paper.json")
    failed = False

    run = subprocess.run([args.bench, "--json=" + args.out],
                         stdout=subprocess.DEVNULL)
    if run.returncode != 0:
        print("paper_drift: %s exited %d" % (args.bench, run.returncode))
        return 1

    with open(args.out, encoding="utf-8") as f:
        fresh = f.read()
    with open(golden_path, encoding="utf-8") as f:
        golden = f.read()
    if fresh == golden:
        print("paper_drift: %s matches the fresh run" % golden_path)
    else:
        line, have, want = first_difference(fresh, golden)
        print("paper_drift: fresh run diverged from %s at line %d\n"
              "  fresh:     %s\n  committed: %s\n"
              "if intentional, regen: %s" % (golden_path, line, have.strip(),
                                             want.strip(), REGEN))
        failed = True

    for what, holds in shapes(json.loads(fresh)):
        print("paper_drift: %s %s" % ("ok  " if holds else "FAIL", what))
        failed |= not holds

    check = subprocess.run([sys.executable,
                            os.path.join(ROOT, "scripts", "paper_tables.py"),
                            "--check", "--json", golden_path])
    failed |= check.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
