#!/usr/bin/env bash
# Rebuilds the Release tree and regenerates the checked-in bench artifacts
# (BENCH_hotpath.json from bench_p1, BENCH_parallel.json from bench_p2,
# BENCH_paper.json from bench_paper — every virtual-time experiment, A10's
# push pipeline and A11's scan service included — and BENCH_service.json,
# A11's wall-clock regroup-scaling ladder, from bench_a11_service), then
# runs the SSM-overhead experiment (bench_paper --exp=E8) as a sanity check
# that the mechanism's bookkeeping stays cheap. BENCH_paper.json feeds
# EXPERIMENTS.md's measured cells: re-render them with
# scripts/paper_tables.py after a refresh. The paper_drift ctest compares it
# with a default-scale run, so commit it only from a run without scale flags.
#
# Usage: scripts/bench.sh [--smoke] [extra bench flags...]
#   e.g. scripts/bench.sh --pages=4096 --reps=7 --jobs=8
#
# Flags are passed through to the bench binaries (see bench/bench_common.h):
#   --jobs=N   worker threads for the parallel run driver (default: cores)
#   --smoke    tiny pages/streams/reps — a fast CI-style pass over EVERY
#              harness bench binary instead of the artifact refresh
#
# Wall-clock numbers depend on the machine; regenerate the artifacts on the
# machine whose numbers you want to quote, and commit the refresh together
# with the change that motivated it. BENCH_parallel.json records the
# machine's hardware_concurrency — a parallel-driver speedup below 1 on a
# single-core box is expected, not a regression.

set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
for arg in "$@"; do
  [[ "$arg" == "--smoke" ]] && SMOKE=1
done

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release

# A bench binary that should exist but doesn't (dropped from the build,
# renamed, target failure swallowed by a glob) must fail the script, not
# silently shrink the sweep. Every run goes through this gate.
run_bench() {
  local bin="$1"; shift
  if [[ ! -x "$bin" ]]; then
    echo "ERROR: bench binary missing: $bin (build failure or renamed target?)" >&2
    exit 1
  fi
  "$bin" "$@"
}

if [[ "$SMOKE" == "1" ]]; then
  # Smoke mode: every figure/table harness at tiny scale. Skips the
  # google-benchmark micros (bench_m1/m2 have their own flag syntax).
  cmake --build build -j "$(nproc)"
  # The harness list comes from the build definition, not a directory glob:
  # a target that failed to build is a loud error instead of a skipped line.
  mapfile -t expected < <(sed -n 's/^scanshare_bench(\(.*\))$/\1/p' bench/CMakeLists.txt)
  if [[ "${#expected[@]}" -eq 0 ]]; then
    echo "ERROR: no scanshare_bench targets parsed from bench/CMakeLists.txt" >&2
    exit 1
  fi
  for name in "${expected[@]}"; do
    echo "=== $name ==="
    run_bench "build/bench/$name" "$@"
    echo
  done
  exit 0
fi

cmake --build build -j "$(nproc)" --target bench_p1_hotpath bench_p2_parallel \
  bench_paper bench_a11_service

run_bench ./build/bench/bench_p1_hotpath --json=BENCH_hotpath.json "$@"
echo
run_bench ./build/bench/bench_p2_parallel --json=BENCH_parallel.json "$@"
echo
run_bench ./build/bench/bench_paper --json=BENCH_paper.json "$@"
echo
run_bench ./build/bench/bench_a11_service --json=BENCH_service.json "$@"
echo
run_bench ./build/bench/bench_paper --exp=E8 "$@"
