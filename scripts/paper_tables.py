#!/usr/bin/env python3
"""Renders EXPERIMENTS.md's measured cells from BENCH_paper.json.

Every measured number of the E1-E8, A1-A11, V1, X1 and X2 tables sits
between marker comments in EXPERIMENTS.md:

    <!-- paper:E1 -->end-to-end +39.7 % ...<!-- /paper -->

This script rewrites the text between each pair from the JSON that
`bench_paper --json=BENCH_paper.json` writes. It only formats numbers and
takes ratios; it never runs the engine.

Usage:
  scripts/paper_tables.py            rewrite EXPERIMENTS.md in place
  scripts/paper_tables.py --check    exit 1 if any cell differs from the JSON
  [--json PATH] [--doc PATH]         defaults: the repo root's files
"""

import argparse
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CELL = re.compile(r"(<!-- paper:([\w.]+) -->)(.*?)(<!-- /paper -->)", re.S)
REGEN = "python3 scripts/paper_tables.py"


class Paper:
    """Read access to one BENCH_paper.json."""

    def __init__(self, data):
        self.data = data

    def run(self, label):
        return self.data["runs"][label]

    def metric(self, label, name):
        return self.run(label)["metrics"][name]

    def makespan(self, label):
        return self.metric(label, "run.makespan_us")

    def pages(self, label):
        return self.metric(label, "disk.pages_read")

    def seeks(self, label):
        return self.metric(label, "disk.seeks")

    def streams(self, label):
        return self.run(label)["stream_elapsed_us"]

    def templates(self, label):
        return self.run(label)["template_mean_us"]

    def cpu(self, label, part):
        return self.run(label)["cpu"][part]

    def rows(self, exp):
        """(printed name, run label) of experiment `exp`, in table order."""
        return [(r["name"], r["run"]) for r in self.data["experiments"][exp]]

    def label(self, exp, name):
        return dict(self.rows(exp))[name]


# ----------------------------------------------------------------- formats


def gain(base, new):
    """metrics::Gain: 1 - new/base (0.21 = 21 % better)."""
    return 0.0 if base == 0 else 1.0 - new / base


def pct(fraction):
    """A share, as FormatPercent prints it: 39.7 %."""
    return "%.1f %%" % (fraction * 100.0)


def signed(fraction):
    """A signed change: +39.7 % or −1.7 % (U+2212 minus)."""
    text = "%.1f %%" % (abs(fraction) * 100.0)
    return ("−" if fraction < 0 else "+") + text


def faster(base, new):
    """End-to-end gain of `new` over `base`, signed."""
    return signed(gain(base, new))


def change(base, new):
    """Relative change of a count, signed: reads −38.9 %."""
    return signed(-gain(base, new))


def secs(us):
    return "%.3f s" % (us / 1e6)


def count(n):
    return "{:,}".format(n)


def mib(pages):
    return "{:,.1f} MiB".format(pages * 32 / 1024)


def slash(values):
    return "/".join(values)


def stream_gains(p, base, shared):
    return [pct(gain(b, s)) for b, s in zip(p.streams(base), p.streams(shared))]


def template_gains(p, base, shared):
    b, s = p.templates(base), p.templates(shared)
    return {name: gain(b[name], s[name]) for name in b if name in s}


def span(fractions):
    return "%s to %s" % (pct(min(fractions)), pct(max(fractions)))


# ----------------------------------------------------------------- cells


def pair_cell(p, prefix):
    base, shared = prefix + ".base", prefix + ".shared"
    return "end-to-end %s (%s → %s), reads %s (%s → %s pages), seeks %s (%s → %s)" % (
        faster(p.makespan(base), p.makespan(shared)),
        secs(p.makespan(base)), secs(p.makespan(shared)),
        change(p.pages(base), p.pages(shared)),
        count(p.pages(base)), count(p.pages(shared)),
        change(p.seeks(base), p.seeks(shared)),
        count(p.seeks(base)), count(p.seeks(shared)))


def cpu_cell(p, prefix):
    base, shared = prefix + ".base", prefix + ".shared"
    return "wait %s → %s, user %s → %s of run time; runs gain %s" % (
        pct(p.cpu(base, "iowait")), pct(p.cpu(shared, "iowait")),
        pct(p.cpu(base, "user")), pct(p.cpu(shared, "user")),
        slash(stream_gains(p, base, shared)))


def e4(p):
    return "total %s → %s; SS series ends at %s vs %s" % (
        mib(p.pages("E1.base")), mib(p.pages("E1.shared")),
        secs(p.makespan("E1.shared")), secs(p.makespan("E1.base")))


def e5(p):
    return "total %s → %s seeks" % (count(p.seeks("E1.base")),
                                    count(p.seeks("E1.shared")))


def e7(p):
    gains = template_gains(p, "E1.base", "E1.shared")
    return ", ".join("%s %s" % (name, signed(g)) for name, g in gains.items())


def e8_overhead(p):
    return signed(p.makespan("E8.neutral") / p.makespan("E8.base") - 1.0)


def e8(p):
    calls = sum(p.metric("E8.neutral", "ssm." + k)
                for k in ("updates", "scans_started", "scans_ended"))
    return "pure infrastructure overhead %s (%s SSM calls); full mechanism %s" % (
        e8_overhead(p), count(calls),
        signed(p.makespan("E8.shared") / p.makespan("E8.base") - 1.0))


def a1(p):
    base, off, on = "A1.base", "A1.no-throttle", "A1.shared"
    return ("end-to-end %s / %s / %s (base / no throttling / full); reads gain "
            "%s without throttling, %s with; seeks %s → %s → %s; throttle waits %s") % (
        secs(p.makespan(base)), secs(p.makespan(off)), secs(p.makespan(on)),
        pct(gain(p.pages(base), p.pages(off))), pct(gain(p.pages(base), p.pages(on))),
        count(p.seeks(base)), count(p.seeks(off)), count(p.seeks(on)),
        secs(p.metric(on, "ssm.total_wait_us")))


def a2(p):
    base, off, on = "E1.base", "A2.no-hints", "E1.shared"
    return ("end-to-end %s / %s / %s (LRU / hints off / hints on); reads "
            "%s / %s / %s; throttle waits %s / %s") % (
        secs(p.makespan(base)), secs(p.makespan(off)), secs(p.makespan(on)),
        count(p.pages(base)), count(p.pages(off)), count(p.pages(on)),
        secs(p.metric(off, "ssm.total_wait_us")),
        secs(p.metric(on, "ssm.total_wait_us")))


def a2_read_cut(p):
    return pct(gain(p.pages("E1.base"), p.pages("A2.no-hints")))


def sweep(p, exp, fmt):
    """One `fmt % name` entry per row: end-to-end time and pages read."""
    return "; ".join("%s → %s / %s reads" % (fmt % name, secs(p.makespan(label)),
                                             count(p.pages(label)))
                     for name, label in p.rows(exp))


def best_row(p, exp, key):
    name, label = min(p.rows(exp), key=lambda row: key(row[1]))
    return "%s (%s)" % (name, secs(key(label)))


def a5(p):
    rows = p.rows("A5")
    pairs = list(zip(rows[0::2], rows[1::2]))
    ratios = slash(name.split()[0].rstrip("%") for (name, _), _ in pairs)
    e2e = slash(signed(gain(p.makespan(b), p.makespan(s))) for (_, b), (_, s) in pairs)
    reads = slash(signed(gain(p.pages(b), p.pages(s))) for (_, b), (_, s) in pairs)
    return "end-to-end gains at %s %%: %s; read gains %s" % (ratios, e2e, reads)


def matrix(p, exp):
    """Every row of `exp`, slash-separated: end-to-end time, reads, seeks."""
    rows = p.rows(exp)
    labels = [label for _, label in rows]
    return "%s: end-to-end %s; reads %s; seeks %s" % (
        " / ".join(name for name, _ in rows),
        slash(secs(p.makespan(x)) for x in labels),
        slash(count(p.pages(x)) for x in labels),
        slash(count(p.seeks(x)) for x in labels))


def a7(p):
    return "%s; template gains %s" % (
        pair_cell(p, "A7"), span(template_gains(p, "A7.base", "A7.shared").values()))


def a8(p):
    return "; ".join("%s → interactive %s, makespan %s" % (
        name, secs(p.streams(label)[0]), secs(p.makespan(label)))
        for name, label in p.rows("A8"))


def v1(p):
    return "reads %s → %s pages, end-to-end %s → %s" % (
        count(p.pages("V1.base")), count(p.pages("V1.shared")),
        secs(p.makespan("V1.base")), secs(p.makespan("V1.shared")))


def x1(p):
    return "%s; runs gain %s; %s SISCANs placed" % (
        pair_cell(p, "X1"), slash(stream_gains(p, "X1.base", "X1.shared")),
        count(p.metric("X1.shared", "ism.scans_joined")))


def x2(p):
    return "%s; template gains %s" % (
        pair_cell(p, "X2"), span(template_gains(p, "X2.base", "X2.shared").values()))


def a10_speedup(p):
    return "%.2f×" % (p.makespan("A10.sync-sim") / p.makespan("A10.push-sim"))


def a10_pipeline(p):
    push = "A10.push-sim"
    return ("%s prefetch hits against %s sync reads; %s extents dropped stale, "
            "%s re-issues suppressed") % tuple(
                count(p.metric(push, "io." + k)) for k in
                ("prefetch_hits", "sync_reads", "dropped_stale", "reissue_suppressed"))


def a10_real(p):
    file = "A10.push-file"
    return "preads %s (charged %s), pages %s (charged %s), seeks %s (charged %s)" % tuple(
        count(p.metric(file, k)) for k in
        ("real_io.reads", "disk.requests", "real_io.pages_read", "disk.pages_read",
         "real_io.seeks", "disk.seeks"))


A11_SCENARIOS = ("fixed_rate", "poisson_burst", "diurnal", "closed_loop")


def service(p, scenario, name):
    return p.metric("A11." + scenario, "service." + name)


def a11(p, scenario):
    def get(name):
        return service(p, scenario, name)
    return ("%s arrived: %s admitted + %s queued + %s shed (%s at the global cap, "
            "%s at a table cap); sojourn p50/p99/p999 %s; queue wait p99 %s; "
            "makespan %s") % (
        count(get("arrived")), count(get("admitted")), count(get("queued")),
        count(get("shed")), count(get("shed_global_cap")),
        count(get("shed_table_cap")),
        slash(secs(get("sojourn_" + q + "_us")) for q in ("p50", "p99", "p999")),
        secs(get("queue_wait_p99_us")), secs(get("makespan_us")))


def a11_open_shed(p):
    return slash(pct(service(p, s, "shed") / service(p, s, "arrived"))
                 for s in A11_SCENARIOS[:3])


CELLS = {
    "E1": lambda p: pair_cell(p, "E1"),
    "E2": lambda p: cpu_cell(p, "E2"),
    "E3": lambda p: cpu_cell(p, "E3"),
    "E4": e4,
    "E5": e5,
    "E6": lambda p: slash(stream_gains(p, "E1.base", "E1.shared")),
    "E7": e7,
    "E8": e8,
    "E8.overhead": e8_overhead,
    "A1": a1,
    "A2": a2,
    "A2.read_cut": a2_read_cut,
    "A2.lru": lambda p: secs(p.makespan("E1.base")),
    "A2.off": lambda p: secs(p.makespan("A2.no-hints")),
    "A3": lambda p: sweep(p, "A3", "cap %s"),
    "A3.best": lambda p: best_row(p, "A3", p.makespan),
    "A3.default": lambda p: secs(p.makespan(p.label("A3", "0.8"))),
    "A4": lambda p: sweep(p, "A4", "%s pages"),
    "A5": a5,
    "A6": lambda p: matrix(p, "A6"),
    "A6.clock": lambda p: "%s and reads %s pages" % (
        secs(p.makespan("A6.clock")), count(p.pages("A6.clock"))),
    "A7": a7,
    "A8": a8,
    "A8.best": lambda p: best_row(p, "A8", lambda label: p.streams(label)[0]),
    "A8.default": lambda p: secs(p.streams(p.label("A8", "1.00"))[0]),
    "A9": lambda p: matrix(p, "A9"),
    "V1": v1,
    "X1": x1,
    "X2": x2,
    "A10": lambda p: matrix(p, "A10"),
    "A10.speedup": a10_speedup,
    "A10.pipeline": a10_pipeline,
    "A10.real": a10_real,
    "A11.open_shed": a11_open_shed,
}
CELLS.update({"A11." + s: (lambda p, s=s: a11(p, s)) for s in A11_SCENARIOS})


def render(doc, paper):
    """Returns (rendered doc, [problems])."""
    problems = []
    seen = set()

    def fill(match):
        cell = match.group(2)
        seen.add(cell)
        if cell not in CELLS:
            problems.append("unknown cell '%s' in the doc" % cell)
            return match.group(0)
        return match.group(1) + CELLS[cell](paper) + match.group(4)

    out = CELL.sub(fill, doc)
    for cell in CELLS:
        if cell not in seen:
            problems.append("cell '%s' has no marker in the doc" % cell)
    return out, problems


def first_stale_cell(doc, rendered):
    for old, new in zip(CELL.finditer(doc), CELL.finditer(rendered)):
        if old.group(3) != new.group(3):
            return old.group(2), old.group(3), new.group(3)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default=os.path.join(ROOT, "BENCH_paper.json"))
    parser.add_argument("--doc", default=os.path.join(ROOT, "EXPERIMENTS.md"))
    parser.add_argument("--check", action="store_true",
                        help="fail instead of rewriting when a cell is stale")
    args = parser.parse_args()

    with open(args.json, encoding="utf-8") as f:
        paper = Paper(json.load(f))
    with open(args.doc, encoding="utf-8") as f:
        doc = f.read()
    rendered, problems = render(doc, paper)
    for problem in problems:
        print("paper_tables: %s" % problem, file=sys.stderr)
    if problems:
        return 1
    if not args.check:
        if rendered != doc:
            with open(args.doc, "w", encoding="utf-8") as f:
                f.write(rendered)
            print("paper_tables: rewrote %s" % args.doc)
        return 0
    stale = first_stale_cell(doc, rendered)
    if stale is None:
        print("paper_tables: %s matches %s" % (args.doc, args.json))
        return 0
    cell, have, want = stale
    print("paper_tables: cell %s of %s is stale\n  doc:  %s\n  json: %s\n"
          "regen: %s" % (cell, args.doc, have, want, REGEN), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
