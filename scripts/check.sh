#!/usr/bin/env bash
# Repository quality gates.
#
# Default mode runs the whole test suite under the strictest runtime
# configuration: the `audit` preset — AddressSanitizer +
# UndefinedBehaviorSanitizer plus SCANSHARE_AUDIT=ON, which re-verifies the
# buffer pool's and the Scan Sharing Manager's cross-structure invariants
# after every mutation and after every executor step (see DESIGN.md
# "Error-path semantics and the correctness audit"). The preset leaves out
# the `paper` label (paper_drift): its 60 full-scale runs take over ten
# minutes under the audits, and its byte-identity is checked by the
# release and asan presets.
#
# --lint runs the static-analysis stack instead (see DESIGN.md "Static
# analysis"): a warnings-as-errors build (`lint` preset: -Wall -Wextra
# -Wconversion -Wshadow -Wold-style-cast -Werror), clang-tidy over
# compile_commands.json, the domain linter (scripts/domain_lint.py), and a
# format check. clang-tidy / clang-format are optional tooling: when the
# binary is absent the step is skipped with a notice (CI installs both, so
# nothing is skipped there).
#
# --thread-safety builds the whole tree with clang under
# SCANSHARE_THREAD_SAFETY=ON (-Wthread-safety -Wthread-safety-beta, plus
# SCANSHARE_WERROR) — the annotation gate from DESIGN.md "Lock hierarchy
# and thread-safety annotations" — then runs the compile-fail suite
# (scripts/thread_safety_compile_test.sh) and the cross-TU lock-order
# check (scripts/lock_order.py). clang is required for the analysis; when
# clang++ is absent the mode skips with a notice (CI installs it).
#
# Usage:
#   scripts/check.sh [extra ctest flags...]   # audit-mode test suite
#   scripts/check.sh --lint                   # all four static gates
#   scripts/check.sh --tidy                   # clang-tidy only
#   scripts/check.sh --format-check           # clang-format only
#   scripts/check.sh --domain-lint            # domain linter only
#   scripts/check.sh --thread-safety          # clang TSA gate + lock order
#   scripts/check.sh --service                # scan-service gate (the A10/A11
#                                             # smoke checker + the service
#                                             # test layer, under ASan)

set -euo pipefail
cd "$(dirname "$0")/.."

CLANG_TIDY="${CLANG_TIDY:-clang-tidy}"
CLANG_FORMAT="${CLANG_FORMAT:-clang-format}"

# Everything we lint/format: the library, tests, benches, and examples.
lintable_sources() {
  find src tests bench examples \
       \( -name '*.cc' -o -name '*.cpp' -o -name '*.h' -o -name '*.hpp' \) \
       -type f | sort
}

configure_lint_build() {
  cmake --preset lint >/dev/null
}

run_werror_build() {
  echo "== warnings-as-errors build (lint preset) =="
  configure_lint_build
  cmake --build --preset lint -j "$(nproc)"
}

run_tidy() {
  echo "== clang-tidy =="
  if ! command -v "$CLANG_TIDY" >/dev/null 2>&1; then
    echo "   $CLANG_TIDY not installed; skipping (CI runs this gate)."
    return 0
  fi
  configure_lint_build
  # Headers are covered via HeaderFilterRegex in .clang-tidy.
  lintable_sources | grep -E '\.(cc|cpp)$' | \
    xargs -P "$(nproc)" -n 4 "$CLANG_TIDY" -p build-lint --quiet
}

run_domain_lint() {
  echo "== domain lint =="
  python3 scripts/domain_lint.py --selftest
  python3 scripts/domain_lint.py
}

run_format_check() {
  echo "== format check =="
  if command -v "$CLANG_FORMAT" >/dev/null 2>&1; then
    local bad=0
    while IFS= read -r f; do
      if ! "$CLANG_FORMAT" --dry-run -Werror "$f" >/dev/null 2>&1; then
        echo "   needs clang-format: $f"
        bad=1
      fi
    done < <(lintable_sources)
    if [[ $bad -ne 0 ]]; then
      echo "   run: clang-format -i <file> on the files above"
      return 1
    fi
  else
    echo "   $CLANG_FORMAT not installed; running mechanical fallback" \
         "(tabs / trailing whitespace / CRLF / missing final newline)."
    python3 - <<'PYEOF'
import subprocess, sys
files = subprocess.run(
    ["bash", "-c",
     r"find src tests bench examples \( -name '*.cc' -o -name '*.cpp' "
     r"-o -name '*.h' -o -name '*.hpp' \) -type f"],
    capture_output=True, text=True, check=True).stdout.split()
bad = 0
for path in sorted(files):
    data = open(path, "rb").read()
    if b"\t" in data:
        print("   tab character:", path); bad = 1
    if b"\r" in data:
        print("   CRLF line ending:", path); bad = 1
    if data and not data.endswith(b"\n"):
        print("   missing final newline:", path); bad = 1
    for i, line in enumerate(data.split(b"\n"), 1):
        if line != line.rstrip():
            print("   trailing whitespace: %s:%d" % (path, i)); bad = 1
sys.exit(bad)
PYEOF
  fi
}

run_thread_safety() {
  echo "== thread-safety analysis (clang -Wthread-safety) =="
  # Cross-TU lock-order check first: pure python, runs everywhere.
  python3 scripts/lock_order.py --selftest
  python3 scripts/lock_order.py
  local clangxx="${CLANGXX:-clang++}"
  if ! command -v "$clangxx" >/dev/null 2>&1; then
    echo "   $clangxx not installed; skipping the clang analysis build" \
         "and compile-fail suite (CI runs this gate)."
    return 0
  fi
  cmake --preset thread-safety >/dev/null
  cmake --build --preset thread-safety -j "$(nproc)"
  bash scripts/thread_safety_compile_test.sh "$clangxx" "$(pwd)"
  echo "thread-safety: analysis build + compile-fail suite passed"
}

run_service() {
  echo "== scan service gate (DESIGN.md §16) =="
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j "$(nproc)" --target \
    bench_paper bench_a11_service service_scale_test \
    arrival_determinism_test admission_golden_test
  python3 scripts/paper_drift.py --smoke \
    --bench build-asan/bench/bench_paper \
    --ladder build-asan/bench/bench_a11_service \
    --out build-asan/paper_smoke.json
  ctest --test-dir build-asan -j "$(nproc)" --output-on-failure -R \
    '^(service_scale_test|arrival_determinism_test|admission_golden_test)$'
  echo "service: A10/A11 smoke checker + test layer passed under ASan"
}

case "${1:-}" in
  --lint)
    run_werror_build
    run_tidy
    run_domain_lint
    run_format_check
    echo "lint: all gates passed"
    ;;
  --tidy)
    run_tidy
    ;;
  --format-check)
    run_format_check
    ;;
  --domain-lint)
    run_domain_lint
    ;;
  --thread-safety)
    run_thread_safety
    ;;
  --service)
    run_service
    ;;
  *)
    cmake --preset audit
    cmake --build --preset audit -j "$(nproc)"
    ctest --preset audit -j "$(nproc)" "$@"
    ;;
esac
