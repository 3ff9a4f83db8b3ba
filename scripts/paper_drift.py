#!/usr/bin/env python3
"""Pins the paper's numbers: a fresh bench_paper run, BENCH_paper.json and
EXPERIMENTS.md must agree, and the fresh run must keep DESIGN.md §4's
expected shapes.

  1. Runs `bench_paper --json=OUT` at default scale and byte-compares OUT
     with the committed BENCH_paper.json (every value is virtual time or a
     count, so the file is identical on every host, build type and --jobs).
  2. Checks the expected shapes on OUT (see shapes below).
  3. Runs `paper_tables.py --check`: every rendered cell of EXPERIMENTS.md
     must match the committed JSON.

--smoke is the A10/A11 smoke gate instead. It runs `bench_paper
--exp=A10,A11 --smoke --json=OUT` and `bench_a11_service --smoke`, then
checks only what holds at any scale: push-file's parity with push-sim and
with its own charges, prefetch hits, admission conservation in every A11
scenario, and adaptive regrouping beating legacy on updates/s at every
ladder size. It compares nothing with committed files.

Usage (ctest runs the first as `paper_drift`, label `paper`):
  scripts/paper_drift.py --bench build/bench/bench_paper --out /tmp/BENCH_paper.json
  scripts/paper_drift.py --smoke --bench build-asan/bench/bench_paper \
      --ladder build-asan/bench/bench_a11_service --out build-asan/paper_smoke.json
"""

import argparse
import itertools
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
# A10's arms and A11's arrival scenarios, as bench_paper labels their runs.
SYNC, PUSH, FILE = "A10.sync-sim", "A10.push-sim", "A10.push-file"
SCENARIOS = ["fixed_rate", "poisson_burst", "diurnal", "closed_loop"]


def a10_backend_shapes(data):
    """A10's push-file arm against push-sim and its own charges (any scale)."""
    for name in ("run.makespan_us", "disk.requests", "disk.pages_read",
                 "disk.seeks"):
        yield ("A10: push-file's %s equals push-sim's" % name,
               metric(data, FILE, name) == metric(data, PUSH, name))
    for real, charged in (("real_io.reads", "disk.requests"),
                          ("real_io.pages_read", "disk.pages_read")):
        yield ("A10: push-file's %s equals its %s" % (real, charged),
               metric(data, FILE, real) == metric(data, FILE, charged))
    real, charged = (metric(data, FILE, "real_io.seeks"),
                     metric(data, FILE, "disk.seeks"))
    yield ("A10: push-file's %d real seeks are within 10 %% of its %d "
           "charged seeks" % (real, charged), abs(real - charged) <= 0.1 * charged)
    yield ("A10: push-sim's prefetch hits are above 0",
           metric(data, PUSH, "io.prefetch_hits") > 0)


def a11_shapes(data):
    """Admission conservation in every A11 scenario (any scale)."""
    ran = [s for s in SCENARIOS if "A11." + s in data["runs"]]
    yield ("A11: all four arrival scenarios ran", ran == SCENARIOS)
    for s in ran:
        m = data["runs"]["A11." + s]["metrics"]
        yield ("A11 %s: arrived = admitted + queued + shed" % s,
               m["service.arrived"] ==
               m["service.admitted"] + m["service.queued"] + m["service.shed"])
        yield ("A11 %s: completed = admitted + queued, above 0" % s,
               0 < m["service.completed"] ==
               m["service.admitted"] + m["service.queued"])


def ladder_shapes(ladder):
    """bench_a11_service's wall-clock ladder: adaptive beats legacy."""
    cells = {(c["scans"], c["mode"]): c["updates_per_sec"]
             for c in ladder["regroup_scaling"]}
    sizes = sorted({n for n, _ in cells})
    yield ("A11 ladder: has cells", bool(sizes))
    for n in sizes:
        legacy, adaptive = cells[(n, "legacy")], cells[(n, "adaptive")]
        yield ("A11 ladder, %d scans: adaptive %.0f updates/s beats legacy %.0f"
               % (n, adaptive, legacy), adaptive > legacy)


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
    yield ("A10: push-sim seeks less than sync-sim",
           metric(data, PUSH, "disk.seeks") < metric(data, SYNC, "disk.seeks"))
    speedup = (metric(data, SYNC, "run.makespan_us") /
               metric(data, PUSH, "run.makespan_us"))
    yield ("A10: push-sim's virtual makespan speedup %.2fx over sync-sim is "
           "at least 1.2x" % speedup, speedup >= 1.2)
    yield from a10_backend_shapes(data)
    yield from a11_shapes(data)
    yield ("A11: closed_loop sheds nothing",
           metric(data, "A11.closed_loop", "service.shed") == 0)


def first_difference(fresh, golden):
    a, b = fresh.splitlines(), golden.splitlines()
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i + 1, x, y
    n = min(len(a), len(b))
    return (n + 1, a[n] if n < len(a) else "<end of file>",
            b[n] if n < len(b) else "<end of file>")


def report(checks):
    """Prints each (description, holds); returns True if any failed."""
    failed = False
    for what, holds in checks:
        print("paper_drift: %s %s" % ("ok  " if holds else "FAIL", what))
        failed |= not holds
    return failed


def run(cmd):
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        print("paper_drift: %s exited %d" % (" ".join(cmd), done.returncode))
    return done.returncode == 0


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def smoke(args):
    ladder_out = os.path.splitext(args.out)[0] + ".ladder.json"
    if not (run([args.bench, "--exp=A10,A11", "--smoke", "--json=" + args.out])
            and run([args.ladder, "--smoke", "--json=" + ladder_out])):
        return 1
    data = load(args.out)
    failed = report(itertools.chain(a10_backend_shapes(data), a11_shapes(data),
                                    ladder_shapes(load(ladder_out))))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True, help="bench_paper binary")
    parser.add_argument("--out", required=True, help="where the fresh JSON goes")
    parser.add_argument("--smoke", action="store_true",
                        help="run the A10/A11 smoke gate instead")
    parser.add_argument("--ladder", help="bench_a11_service binary (--smoke)")
    args = parser.parse_args()
    if args.smoke:
        if not args.ladder:
            parser.error("--smoke needs --ladder")
        return smoke(args)
    golden_path = os.path.join(ROOT, "BENCH_paper.json")
    failed = False

    if not run([args.bench, "--json=" + args.out]):
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

    failed |= report(shapes(json.loads(fresh)))

    check = subprocess.run([sys.executable,
                            os.path.join(ROOT, "scripts", "paper_tables.py"),
                            "--check", "--json", golden_path])
    failed |= check.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
