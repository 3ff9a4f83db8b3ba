#!/usr/bin/env bash
# Builds the benchmark and runs every workload, one process each:
#   benchmark/run.sh [--seed=N] [--out=DIR] [--smoke]
# See run.py for the single-workload form and the output files.
exec python3 "$(dirname "$0")/run.py" "$@"
