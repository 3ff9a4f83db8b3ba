#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change.

    python3 benchmark/compare.py --parent DIR [DIR ...] --change DIR [DIR ...]

Each DIR is one `run.sh --out DIR` invocation (one <workload>.json per
workload). The i-th parent DIR and the i-th change DIR form a pair, so run
them alternately. One row per (workload, end-to-end metric):

  parent / change   median over the DIRs, and the quartile spread
                    (Q3 - Q1) as a share of the median
  won               pairs the change won (ties count for neither side)
  verdict           regressed   the change's median is worse than the
                                parent's by more than the metric's bound
                    unresolved  a side's spread is wider than the bound and
                                the change does not beat the parent in
                                every run
                    gain        the change won >= 9/10 of at least 10 pairs
                                and the medians differ by more than the
                                parent's quartile spread
                    ok          none of the above

A failed_frac row per workload reports failed / attempted, which may not
increase. The virtual-time results (makespan, pages read, seeks, sojourn
quantiles) are deterministic for a seed, so their rows compare the first
run of each side exactly: `same`, or `changed` for a change that moves
the model. Bounds and directions come from BENCHMARK.json. Exits 1 if any
row regressed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(dirs, workload):
    runs = []
    for d in dirs:
        with open(os.path.join(d, workload + ".json")) as f:
            runs.append(json.load(f))
    return runs


def spread(values):
    """(median, (Q3 - Q1) / median) with Python's default quartiles."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def verdict(parent, change, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    p_med, p_spread = spread(parent)
    c_med, c_spread = spread(change)
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if worse > bound:
        v = "regressed"
    elif max(p_spread, c_spread) > bound and not all_better:
        v = "unresolved"
    elif len(pairs) >= 10 and won >= 0.9 * len(pairs) and -worse > p_spread:
        v = "gain"
    else:
        v = "ok"
    return p_med, p_spread, c_med, c_spread, won, len(pairs), v


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)

    header = ("workload", "metric", "parent", "spread", "change", "spread",
              "won", "verdict")
    print("%-16s %-24s %14s %7s %14s %7s %7s  %s" % header)
    regressed = False
    for w in contract["workloads"]:
        name = w["name"]
        parent = load(opts.parent, name)
        change = load(opts.change, name)
        rows = []
        for m in contract["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in parent]
            c = [r["metrics"][m["name"]]["value"] for r in change]
            rows.append((m["name"],) + verdict(p, c, m["bound"],
                                               m["better"] == "lower"))
        p_frac = statistics.median(r["failed_frac"] for r in parent)
        c_frac = statistics.median(r["failed_frac"] for r in change)
        rows.append(("failed_frac", p_frac, 0.0, c_frac, 0.0, 0,
                     min(len(parent), len(change)),
                     "regressed" if c_frac > p_frac else "ok"))
        for metric, p in parent[0]["virtual"].items():
            c = change[0]["virtual"][metric]["value"]
            rows.append((metric, p["value"], 0.0, c, 0.0, 0, 1,
                         "same" if c == p["value"] else "changed"))
        for metric, p_med, p_spr, c_med, c_spr, won, n, v in rows:
            regressed |= v == "regressed"
            print("%-16s %-24s %14.6g %6.1f%% %14.6g %6.1f%% %3d/%-3d  %s"
                  % (name, metric, p_med, 100 * p_spr, c_med, 100 * c_spr,
                     won, n, v))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
