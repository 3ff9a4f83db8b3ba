#!/usr/bin/env python3
"""Summarize line coverage of a --coverage (gcov) instrumented build.

Usage:
  python3 scripts/coverage_summary.py --build build-coverage \
      [--min-ssm 91] [--min-exec 90]

After `ctest` has run in a build tree configured with SCANSHARE_COVERAGE=ON
(the `coverage` preset), every object file has an accompanying .gcda with
execution counts. This script runs `gcov --json-format` on each, merges the
per-line counts across objects (a header inlined into ten tests counts as
covered if ANY of them executed the line), and prints a per-directory
summary for the project's own sources (src/ only — tests and benches are
the instruments, not the subject).

Exits non-zero if a floor is given and the aggregate line coverage of
its directory falls below that percentage. --min-ssm gates src/ssm/, the
paper's core contribution; --min-exec gates src/exec/, whose tuple
kernel has paths (keys wider than 8 bytes, group-id table growth) that
only the oracle tests reach. .github/workflows/ci.yml pins each floor at
the value measured when its gate was introduced.
"""

import argparse
import collections
import gzip
import json
import os
import subprocess
import sys
import tempfile


def find_gcda(build_dir):
    for root, _dirs, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                yield os.path.join(root, name)


def run_gcov(gcda, repo_root, scratch):
    """Returns the parsed gcov JSON records for one .gcda, or [] on error."""
    try:
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--object-directory",
             os.path.dirname(gcda), gcda],
            cwd=scratch, capture_output=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"warning: gcov failed on {gcda}: {err}", file=sys.stderr)
        return []
    if proc.returncode != 0:
        print(f"warning: gcov failed on {gcda}: {proc.stderr.decode()[:200]}",
              file=sys.stderr)
        return []
    records = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            # Older gcov writes .gcov.json.gz files instead of honouring
            # --stdout; sweep them up from the scratch directory below.
            break
    if not records:
        for name in os.listdir(scratch):
            if name.endswith(".gcov.json.gz"):
                path = os.path.join(scratch, name)
                with gzip.open(path, "rt") as fh:
                    records.append(json.load(fh))
                os.unlink(path)
    return records


def merge_counts(records, repo_root, per_file):
    for record in records:
        for entry in record.get("files", []):
            path = entry.get("file", "")
            if not os.path.isabs(path):
                path = os.path.join(repo_root, path)
            rel = os.path.relpath(os.path.realpath(path), repo_root)
            if rel.startswith(".."):
                continue  # System or third-party header.
            counts = per_file[rel]
            for line in entry.get("lines", []):
                number = line["line_number"]
                counts[number] = max(counts.get(number, 0), line["count"])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build-coverage",
                        help="build tree configured with SCANSHARE_COVERAGE=ON")
    parser.add_argument("--min-ssm", type=float, default=None,
                        help="fail if src/ssm/ line coverage (%%) is below this")
    parser.add_argument("--min-exec", type=float, default=None,
                        help="fail if src/exec/ line coverage (%%) is below "
                             "this")
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of this script)")
    args = parser.parse_args()

    repo_root = os.path.realpath(
        args.root or os.path.join(os.path.dirname(__file__), os.pardir))
    build_dir = os.path.realpath(args.build)
    gcda = sorted(find_gcda(build_dir))
    if not gcda:
        print(f"error: no .gcda files under {build_dir} — configure with the "
              "'coverage' preset and run ctest first", file=sys.stderr)
        return 2

    per_file = collections.defaultdict(dict)  # rel path -> {line: max count}
    with tempfile.TemporaryDirectory() as scratch:
        for path in gcda:
            merge_counts(run_gcov(path, repo_root, scratch), repo_root, per_file)

    # Aggregate src/ files by second-level directory (src/ssm, src/buffer...).
    by_dir = collections.defaultdict(lambda: [0, 0])  # dir -> [covered, total]
    for rel, counts in sorted(per_file.items()):
        if not rel.startswith("src" + os.sep):
            continue
        parts = rel.split(os.sep)
        group = os.sep.join(parts[:2]) if len(parts) > 2 else parts[0]
        by_dir[group][0] += sum(1 for c in counts.values() if c > 0)
        by_dir[group][1] += len(counts)

    if not by_dir:
        print("error: no src/ coverage records found", file=sys.stderr)
        return 2

    print(f"{'directory':<16} {'lines':>7} {'covered':>8} {'coverage':>9}")
    total_covered = total_lines = 0
    for group in sorted(by_dir):
        covered, lines = by_dir[group]
        total_covered += covered
        total_lines += lines
        pct = 100.0 * covered / lines if lines else 0.0
        print(f"{group:<16} {lines:>7} {covered:>8} {pct:>8.2f}%")
    overall = 100.0 * total_covered / total_lines if total_lines else 0.0
    print(f"{'total (src/)':<16} {total_lines:>7} {total_covered:>8} "
          f"{overall:>8.2f}%")

    status = 0
    for name, floor in (("ssm", args.min_ssm), ("exec", args.min_exec)):
        if floor is None:
            continue
        covered, lines = by_dir.get(os.path.join("src", name), [0, 0])
        pct = 100.0 * covered / lines if lines else 0.0
        if pct < floor:
            print(f"FAIL: src/{name} coverage {pct:.2f}% is below the "
                  f"required floor of {floor:.2f}%", file=sys.stderr)
            status = 1
        else:
            print(f"src/{name} coverage {pct:.2f}% >= floor {floor:.2f}%")
    return status


if __name__ == "__main__":
    sys.exit(main())
