#!/usr/bin/env python3
"""Domain lint: repo-specific static rules for scanshare.

Generic tools (the compiler, clang-tidy) cannot express this repository's
contracts, so this linter enforces them lexically:

  clock      Determinism: no wall-clock or non-deterministic randomness in
             src/. All time comes from sim/virtual_clock.h; all randomness
             from common/random.h (xoshiro256**, identical on every
             platform). Wall clocks in bench/ and tests/ are fine — they
             measure the simulator, they do not feed it.

  nodiscard  Status discipline: Status, StatusOr, and PageGuard must be
             declared `class [[nodiscard]]`, and every Status/StatusOr-
             returning function declaration in the fallible API headers
             (BufferPool, DiskManager, SSM, ...) must carry a
             per-declaration [[nodiscard]]. The class attribute makes the
             compiler flag dropped results; the per-declaration attribute
             keeps the contract visible at the API and survives a future
             Status refactor that loses the class attribute.

  pin        Guard discipline: raw Pin()/Unpin()/UnpinPage() calls are the
             buffer pool's internals. Everything outside src/buffer/ holds
             pins through PageGuard so error paths cannot leak a pin.

  logging    No iostream / printf-family output in src/: the library is
             silent and reports every failure through the Status it returns.
             (The audit abort path in common/audit.h and the report
             printers in src/metrics are allowlisted.)

  auditflow  SCANSHARE_AUDIT_OK must not sit in dead code after an early
             `return` — an audit the function returns past is an audit
             that never runs on the path it was meant to police.

  threads    Thread confinement: every simulation decision is made on
             the event-loop thread (that is what makes a run
             deterministic). Concurrency primitives are confined to the
             seven files in THREADS_ALLOWED that start or synchronise
             threads: common/thread_pool.{h,cc}, common/mutex.h, the file
             backend's pread workers (io/file_backend.{h,cc}), and kernel
             run-ahead (exec/kernel_runahead.{h,cc}), whose workers run
             only the pure tuple kernel over immutable page images. The
             pool, the SSM, the position board, the prefetcher, the page
             store and the tracer take no lock. Everything else
             must not include <thread>/<mutex>/<atomic>/
             <condition_variable>/<future> or name the std types — a stray
             mutex elsewhere in the engine would mean simulation state is
             shared across threads or runs, which breaks the parallel
             driver's bit-identity contract. Harness code (bench/, tests/)
             may use threads freely; it sits above the simulator.

  policy     Policy purity: implementations under src/ssm/policies/ and
             src/buffer/policies/ are pure decision functions of the state
             the engine hands them. They must not read any clock (not even
             the virtual one), use scanshare::Rng, or touch sim::Env —
             that is what keeps every PolicyKind replayable and the
             A9 policy A/B matrix of bench_paper seed-exact.

  trace      Tracing hooks stay one untaken branch when tracing is off:
             outside src/obs/, events are emitted through
             SCANSHARE_TRACE_EVENT(tracer, ...) — never by calling
             Tracer::Emit directly. The macro null-checks the tracer, so
             disabled runs pay one untaken branch and never evaluate the
             arguments; a direct Emit() call skips that check.

  locks      Capability discipline (the static companion to the Clang
             Thread Safety build): everywhere in src/ except
             common/mutex.h itself, (a) raw std::mutex/std::shared_mutex
             declarations are banned — use the annotated scanshare::Mutex
             wrapper so the analysis sees a capability; (b) manual
             .lock()/.unlock()/.try_lock() calls are banned — hold locks
             through the RAII guard (MutexLock) so no path can leak a
             capability; (c) every Mutex variable declaration must carry
             a SCANSHARE_ACQUIRED_BEFORE/AFTER ordering annotation (same
             line or the continuation line) naming its place in the
             common/lock_order.h hierarchy, which scripts/lock_order.py
             checks for cycles.

  rawio      Byte-source discipline: raw POSIX read/pread/write/pwrite
             calls are confined to the real-file I/O backend
             (src/io/file_backend.{h,cc}). Everywhere else in src/, page
             bytes flow through the io::IoBackend seam (or the
             DiskManager's charged-read path), so virtual-time accounting
             and fault injection stay authoritative — a stray pread would
             be a read the simulator never charged and the fault injector
             never saw.

  constcast  No const_cast in src/. Buffer-pool frames alias the disk
             manager's immutable page images, so a write through a
             const-stripped pointer would change the table for every later
             run in the process. Readers hold storage::PageView; only the
             bulk loader holds a writable storage::Page.

Suppression: append `// NOLINT(scanshare-<rule>)` to the offending line,
or add `<rule> <path> -- <justification>` to tools/lint/allowlist.txt.

Usage:
  scripts/domain_lint.py [--root DIR]   lint the tree; exit 1 on findings
  scripts/domain_lint.py --selftest     run every rule against its
                                        fixtures in tools/lint/fixtures/
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Shared helpers


def strip_comments_keep_lines(text):
    """Blanks out // and /* */ comment bodies and string literals, keeping
    line structure so findings report real line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(" " if c != "\n" else c)
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return "%s:%d: [scanshare-%s] %s" % (self.path, self.line, self.rule,
                                             self.message)


def has_nolint(raw_line, rule):
    return ("NOLINT(scanshare-%s)" % rule) in raw_line


# --------------------------------------------------------------------------
# Rule: clock — determinism

CLOCK_ALLOWED = ("src/sim/virtual_clock.h", "src/common/random.h")
CLOCK_PATTERNS = [
    (re.compile(r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"),
     "wall clock use; take sim::Micros from the virtual clock instead"),
    (re.compile(r"std::random_device"),
     "non-deterministic entropy; seed a scanshare::Rng with a constant"),
    (re.compile(r"std::(mt19937(_64)?|default_random_engine|minstd_rand0?)"),
     "std RNG engine; use scanshare::Rng (common/random.h)"),
    (re.compile(r"#\s*include\s*<random>"),
     "<random> include; use scanshare::Rng (common/random.h)"),
    (re.compile(r"(?<![\w:.])(rand|srand|rand_r|drand48)\s*\("),
     "C RNG; use scanshare::Rng (common/random.h)"),
    (re.compile(r"(?<![\w:.>])(gettimeofday|clock_gettime|timespec_get)\s*\(|"
                r"std::(time|clock)\s*\("),
     "wall clock call; take sim::Micros from the virtual clock instead"),
]

# Bare `time(` / `clock(` need context: `env->clock()` is the virtual-clock
# accessor and `VirtualClock& clock()` its declaration, while `return
# time(nullptr)` or `= clock()` are libc wall-clock calls. Flag only when
# the token is used as a call in expression position.
BARE_TIME_RE = re.compile(r"\b(time|clock)\s*\(")
EXPR_TAIL_CHARS = ";{}(=,!<>+-|?:"
EXPR_TAIL_WORDS = ("return", "co_return", "case", "co_yield")


def bare_wallclock_call(line, match_start):
    prefix = line[:match_start].rstrip()
    if not prefix:
        return True
    if prefix[-1] in EXPR_TAIL_CHARS:
        # `->`/`.`/`::` member access already excluded by rstrip-less check:
        # those leave `>` `.` `:` adjacent to the token with no space.
        return not prefix.endswith(("->", ".", "::"))
    return prefix.split()[-1] in EXPR_TAIL_WORDS


def check_clock(relpath, raw, code):
    findings = []
    raw_lines = raw.splitlines()
    for lineno, line in enumerate(code.splitlines(), 1):
        if has_nolint(raw_lines[lineno - 1], "clock"):
            continue
        for pat, why in CLOCK_PATTERNS:
            if pat.search(line):
                findings.append(Finding("clock", relpath, lineno, why))
        for m in BARE_TIME_RE.finditer(line):
            if bare_wallclock_call(line, m.start()):
                findings.append(Finding(
                    "clock", relpath, lineno,
                    "wall clock call; take sim::Micros from the virtual "
                    "clock instead"))
    return findings


# --------------------------------------------------------------------------
# Rule: nodiscard — Status discipline

# Headers whose Status/StatusOr-returning declarations must each carry a
# per-declaration [[nodiscard]].
NODISCARD_API_HEADERS = (
    "src/buffer/buffer_pool.h",
    "src/buffer/replacer.h",
    "src/storage/disk_manager.h",
    "src/storage/catalog.h",
    "src/storage/block_index.h",
    "src/ssm/scan_sharing_manager.h",
    "src/ssm/index_scan_sharing_manager.h",
    "src/sim/disk.h",
    "src/exec/engine.h",
    "src/exec/stream_executor.h",
    "src/service/scan_service.h",
    "src/service/arrival.h",
)

# class-level [[nodiscard]] requirements: file -> class names.
NODISCARD_CLASSES = {
    "src/common/status.h": ("Status", "StatusOr"),
    "src/buffer/page_guard.h": ("PageGuard",),
}

# A declaration line opening with a Status/StatusOr return type. `virtual`
# may precede the type; `[[nodiscard]]` must precede both. Factory members
# inside the Status class itself (`static Status OK()`) are covered by the
# class attribute, not this rule.
DECL_RE = re.compile(r"^\s*(virtual\s+)?(Status\s|StatusOr<)[^;=]*\(")
NODISCARD_DECL_RE = re.compile(
    r"^\s*\[\[nodiscard\]\]\s*(virtual\s+)?(Status|StatusOr<)")


def check_nodiscard(relpath, raw, code):
    findings = []
    raw_lines = raw.splitlines()
    # Class-level attribute: required in the canonical files; in fixture
    # files any definition of the three named classes is checked.
    if relpath in NODISCARD_CLASSES:
        check_classes = NODISCARD_CLASSES[relpath]
    elif "fixtures/nodiscard/" in relpath:
        check_classes = ("Status", "StatusOr", "PageGuard")
    else:
        check_classes = ()
    for cls in check_classes:
        declared = re.search(
            r"class\s+(\[\[nodiscard\]\]\s+)?%s\b(?!\s*;)" % re.escape(cls),
            code)
        if declared and "[[nodiscard]]" not in declared.group(0):
            lineno = code[:declared.start()].count("\n") + 1
            if not has_nolint(raw_lines[lineno - 1], "nodiscard"):
                findings.append(Finding(
                    "nodiscard", relpath, lineno,
                    "class %s must be declared `class [[nodiscard]] %s`"
                    % (cls, cls)))
    for lineno, line in enumerate(code.splitlines(), 1):
        if DECL_RE.match(line) and not NODISCARD_DECL_RE.match(line):
            if has_nolint(raw_lines[lineno - 1], "nodiscard"):
                continue
            findings.append(Finding(
                "nodiscard", relpath, lineno,
                "Status-returning API declaration missing [[nodiscard]]"))
    return findings


def nodiscard_applies(relpath):
    return relpath in NODISCARD_API_HEADERS or relpath in NODISCARD_CLASSES


# --------------------------------------------------------------------------
# Rule: pin — guard discipline

PIN_RE = re.compile(r"(->|\.)\s*(Pin|Unpin|UnpinPage)\s*\(")


def check_pin(relpath, raw, code):
    findings = []
    raw_lines = raw.splitlines()
    for lineno, line in enumerate(code.splitlines(), 1):
        if PIN_RE.search(line):
            if has_nolint(raw_lines[lineno - 1], "pin"):
                continue
            findings.append(Finding(
                "pin", relpath, lineno,
                "raw pin-count manipulation outside src/buffer/; hold the "
                "pin through buffer::PageGuard"))
    return findings


# --------------------------------------------------------------------------
# Rule: logging — silent library

LOGGING_ALLOWED = ("src/common/audit.h",)
LOGGING_PATTERNS = [
    (re.compile(r"#\s*include\s*<iostream>"), "iostream include"),
    (re.compile(r"std::(cout|cerr|clog)\b"), "stream output"),
    (re.compile(r"(?<![\w:.])(printf|puts|putchar)\s*\("), "stdout output"),
    (re.compile(r"(?<![\w.])fprintf\s*\(\s*std(err|out)\b"),
     "stderr/stdout output"),
]


def check_logging(relpath, raw, code):
    findings = []
    raw_lines = raw.splitlines()
    for lineno, line in enumerate(code.splitlines(), 1):
        for pat, what in LOGGING_PATTERNS:
            if pat.search(line):
                if has_nolint(raw_lines[lineno - 1], "logging"):
                    continue
                findings.append(Finding(
                    "logging", relpath, lineno,
                    "%s in library code; the library is silent and "
                    "returns a Status" % what))
    return findings


# --------------------------------------------------------------------------
# Rule: auditflow — no audit after an early return

RETURN_STMT_RE = re.compile(r"(^|[;{}])\s*return\b[^;]*;\s*$")
AUDIT_RE = re.compile(r"\bSCANSHARE_AUDIT_OK\s*\(")


def check_auditflow(relpath, raw, code):
    """Flags SCANSHARE_AUDIT_OK calls that are unreachable because the
    previous statement at the same nesting level is a `return`: the audit
    was meant to run after the mutation, but an early return was inserted
    above it, so the mutated path exits unaudited AND the audit is dead."""
    findings = []
    raw_lines = raw.splitlines()
    lines = code.splitlines()
    for lineno, line in enumerate(lines, 1):
        if not AUDIT_RE.search(line):
            continue
        if has_nolint(raw_lines[lineno - 1], "auditflow"):
            continue
        # Walk back to the previous non-blank line of code.
        j = lineno - 2
        while j >= 0 and not lines[j].strip():
            j -= 1
        if j < 0:
            continue
        prev = lines[j].strip()
        # `}` means the previous thing was a block (if/loop) — fine.
        if prev.endswith("}") or prev.endswith("{"):
            continue
        if RETURN_STMT_RE.search(prev):
            findings.append(Finding(
                "auditflow", relpath, lineno,
                "SCANSHARE_AUDIT_OK is dead code after `return`; audit "
                "before every exit of the mutating path"))
    return findings


# --------------------------------------------------------------------------
# Rule: threads — concurrency confined to the files that start or
# synchronise threads: the thread pool (run drivers and kernel run-ahead
# workers), the annotated mutex wrapper, the real-file backend's pread
# workers, and kernel run-ahead. Every simulation decision stays on each
# run's event-loop thread; run-ahead workers run only the pure tuple kernel
# over immutable page images, and everything else in src/ (the pool, the
# SSM, the position board, the prefetcher, the page store, the tracer) is
# touched by that one thread per run and takes no lock.

THREADS_ALLOWED = (
    "src/common/thread_pool.h",
    "src/common/thread_pool.cc",
    # The annotated mutex wrappers ARE the concurrency seam: the only file
    # allowed to name std::mutex (the `locks` rule holds everyone else to
    # the wrappers), and including it opts a file into this confinement
    # check via the include pattern below.
    "src/common/mutex.h",
    # Push I/O pipeline (DESIGN.md §15): the real-file backend runs pread
    # worker threads by nature; its job-queue lock is a leaf.
    "src/io/file_backend.h",
    "src/io/file_backend.cc",
    # Kernel run-ahead (DESIGN.md §10.4): workers run each scan's pure
    # tuple kernel over immutable page images; the turn lock is a leaf.
    "src/exec/kernel_runahead.h",
    "src/exec/kernel_runahead.cc",
)
THREADS_PATTERNS = [
    (re.compile(r"#\s*include\s*<(thread|mutex|shared_mutex|atomic|"
                r"condition_variable|future|semaphore|latch|barrier|"
                r"stop_token)>"),
     "concurrency header include"),
    (re.compile(r"std::(jthread|thread)\b"), "std::thread"),
    (re.compile(r"std::(recursive_|shared_|timed_)?mutex\b"), "std::mutex"),
    (re.compile(r"std::atomic"), "std::atomic"),
    (re.compile(r"std::condition_variable"), "std::condition_variable"),
    (re.compile(r"std::(future|promise|packaged_task|async)\b"),
     "std future/promise machinery"),
    (re.compile(r"std::(lock_guard|unique_lock|scoped_lock|call_once|"
                r"once_flag)\b"),
     "std lock machinery"),
    # The annotated wrappers are still concurrency: without this pattern a
    # stray `#include "common/mutex.h"` + MutexLock in simulator code would
    # evade the std:: patterns above one wrapper at a time.
    (re.compile(r"#\s*include\s*\"common/(mutex|lock_order)\.h\""),
     "annotated mutex wrapper include"),
]


def check_threads(relpath, raw, code):
    findings = []
    raw_lines = raw.splitlines()
    for lineno, line in enumerate(code.splitlines(), 1):
        for pat, what in THREADS_PATTERNS:
            if pat.search(line):
                if has_nolint(raw_lines[lineno - 1], "threads"):
                    continue
                findings.append(Finding(
                    "threads", relpath, lineno,
                    "%s in simulator code; concurrency is confined to "
                    "the files in THREADS_ALLOWED that start or synchronise "
                    "threads — simulation state must stay single-threaded "
                    "per run"
                    % what))
    return findings


# --------------------------------------------------------------------------
# Rule: policy — sharing/page policies are pure decision functions
#
# Everything under src/ssm/policies/ and src/buffer/policies/ implements a
# pluggable policy behind SharingPolicy/PagePolicy. Policies must be pure
# functions of the state the engine hands them (scan registry snapshots,
# the position board, ReleaseContext) — no clock reads, no randomness, no
# reach into the simulator environment. That is what makes every
# PolicyKind replayable and the A/B policy matrix seed-exact: two runs of
# the same workload differ only through the policy's declared inputs.
# (The global `clock` rule already bans wall clocks and std RNG tree-wide;
# this rule additionally bans the *virtual* clock and scanshare::Rng,
# which are legitimate elsewhere in the engine.)

POLICY_DIRS = ("src/ssm/policies/", "src/buffer/policies/")
POLICY_PATTERNS = [
    (re.compile(r"#\s*include\s*\"sim/virtual_clock\.h\""),
     "virtual-clock include in a policy"),
    (re.compile(r"\bVirtualClock\b"), "virtual-clock access in a policy"),
    (re.compile(r"(->|\.)\s*Now\s*\("), "clock read in a policy"),
    (re.compile(r"#\s*include\s*\"common/random\.h\""),
     "RNG include in a policy"),
    (re.compile(r"\bRng\b"), "RNG use in a policy"),
    (re.compile(r"\bsim::Env\b|#\s*include\s*\"sim/env\.h\""),
     "simulator-environment access in a policy"),
]


def check_policy(relpath, raw, code):
    findings = []
    raw_lines = raw.splitlines()
    for lineno, line in enumerate(code.splitlines(), 1):
        for pat, what in POLICY_PATTERNS:
            if pat.search(line):
                if has_nolint(raw_lines[lineno - 1], "policy"):
                    continue
                findings.append(Finding(
                    "policy", relpath, lineno,
                    "%s; policies must be pure functions of their declared "
                    "inputs (registry snapshots, position board, "
                    "ReleaseContext) so every PolicyKind is replayable and "
                    "policy A/B runs stay seed-exact" % what))
    return findings


# --------------------------------------------------------------------------
# Rule: trace — hooks go through SCANSHARE_TRACE_EVENT

TRACE_EMIT_RE = re.compile(r"(->|\.)\s*Emit\s*\(")


def check_trace(relpath, raw, code):
    findings = []
    raw_lines = raw.splitlines()
    for lineno, line in enumerate(code.splitlines(), 1):
        if TRACE_EMIT_RE.search(line):
            if has_nolint(raw_lines[lineno - 1], "trace"):
                continue
            findings.append(Finding(
                "trace", relpath, lineno,
                "direct Tracer::Emit call; emit through "
                "SCANSHARE_TRACE_EVENT so disabled tracing stays a null "
                "test that evaluates no arguments"))
    return findings


# --------------------------------------------------------------------------
# Rule: locks — capability discipline for the thread-safety analysis
#
# The Clang Thread Safety build (-Wthread-safety, SCANSHARE_THREAD_SAFETY)
# only analyses what it can see: a raw std::mutex carries no capability, a
# manual .lock() call hides the acquisition from scope-based checking, and
# a mutex without an ordering annotation is invisible to the
# scripts/lock_order.py hierarchy check. This rule keeps all three visible
# on every compiler, not just clang.

LOCKS_ALLOWED = ("src/common/mutex.h",)
LOCKS_PATTERNS = [
    (re.compile(r"std::(recursive_|shared_|timed_|recursive_timed_)?mutex\b"),
     "raw std mutex type; declare a scanshare::Mutex (common/mutex.h) so "
     "the thread-safety analysis sees a capability"),
    (re.compile(r"std::lock_guard\b"),
     "std::lock_guard is invisible to the capability analysis; use "
     "scanshare::MutexLock"),
    (re.compile(r"(->|\.)\s*(unlock_shared|lock_shared|try_lock_shared|"
                r"try_lock|unlock|lock)\s*\("),
     "manual lock()/unlock() call; hold the capability through a RAII "
     "guard (MutexLock) so no path can leak it"),
]

# A Mutex *variable* declaration (member or local). `&` after
# the type excludes references/parameters; `(` on the line before the type
# would be a function declaration using the type, which the \s+\w+ tail
# already rejects for parameter lists ending in `&` or `*`.
LOCKS_DECL_RE = re.compile(
    r"^\s*(mutable\s+)?(scanshare::)?Mutex\s+\w+\s*"
    r"(SCANSHARE_\w+|;|$|=)")
LOCKS_ORDER_RE = re.compile(r"SCANSHARE_ACQUIRED_(BEFORE|AFTER)\b")


def check_locks(relpath, raw, code):
    findings = []
    raw_lines = raw.splitlines()
    lines = code.splitlines()
    for lineno, line in enumerate(lines, 1):
        if has_nolint(raw_lines[lineno - 1], "locks"):
            continue
        for pat, why in LOCKS_PATTERNS:
            if pat.search(line):
                findings.append(Finding("locks", relpath, lineno, why))
        if LOCKS_DECL_RE.match(line):
            # The ordering annotation may sit on the declaration line or on
            # its continuation line (clang-format wraps long attribute
            # lists).
            nxt = lines[lineno] if lineno < len(lines) else ""
            if not (LOCKS_ORDER_RE.search(line) or LOCKS_ORDER_RE.search(nxt)):
                findings.append(Finding(
                    "locks", relpath, lineno,
                    "Mutex declaration without a "
                    "SCANSHARE_ACQUIRED_BEFORE/AFTER ordering annotation; "
                    "every engine lock must name its place in the "
                    "common/lock_order.h hierarchy (checked acyclic by "
                    "scripts/lock_order.py)"))
    return findings


# --------------------------------------------------------------------------
# Rule: rawio — raw POSIX byte movement confined to the file I/O backend
#
# src/io/file_backend.{h,cc} is the single place allowed to call
# read/pread/write/pwrite against real file descriptors. Everything else
# gets page bytes through the io::IoBackend seam or the DiskManager's
# charged-read path — the two channels where virtual-time charging and
# fault injection happen. A stray pread elsewhere would be a read the
# simulator never charged and the fault injector never saw.

RAWIO_ALLOWED = (
    "src/io/file_backend.h",
    "src/io/file_backend.cc",
)
RAWIO_PATTERNS = [
    # pread/pwrite (and the v/64 variants) are unambiguous POSIX calls in
    # any spelling; plain read/write only when explicitly global-qualified
    # (bare `read(`/`write(` would false-positive on istream-style member
    # calls and local helpers).
    (re.compile(r"(?<![\w.>])(::\s*)?p(read|write)v?(64)?\s*\("),
     "raw POSIX pread/pwrite"),
    (re.compile(r"(?<![\w.>:])::\s*(read|write)\s*\("),
     "raw POSIX ::read/::write"),
]


def check_rawio(relpath, raw, code):
    findings = []
    raw_lines = raw.splitlines()
    for lineno, line in enumerate(code.splitlines(), 1):
        for pat, what in RAWIO_PATTERNS:
            if pat.search(line):
                if has_nolint(raw_lines[lineno - 1], "rawio"):
                    continue
                findings.append(Finding(
                    "rawio", relpath, lineno,
                    "%s outside the file I/O backend; byte movement goes "
                    "through the io::IoBackend seam (or DiskManager's "
                    "charged reads) so virtual-time accounting and fault "
                    "injection stay authoritative" % what))
    return findings


# --------------------------------------------------------------------------
# Rule: constcast — page bytes stay read-only
#
# A pull-path frame points at DiskManager's page image itself (DESIGN.md
# §10.3). Every read path hands out `const uint8_t*`; a const_cast anywhere
# in the library is the one way to turn that back into a write into the
# shared store, so the library has none.

CONSTCAST_RE = re.compile(r"\bconst_cast\s*<")


def check_constcast(relpath, raw, code):
    findings = []
    raw_lines = raw.splitlines()
    for lineno, line in enumerate(code.splitlines(), 1):
        if CONSTCAST_RE.search(line):
            if has_nolint(raw_lines[lineno - 1], "constcast"):
                continue
            findings.append(Finding(
                "constcast", relpath, lineno,
                "const_cast in library code; frames alias the page store's "
                "immutable images, so read pages through storage::PageView "
                "and keep writable pointers to the bulk loader"))
    return findings


# --------------------------------------------------------------------------
# Rule registry and scoping

RULES = {
    "clock": check_clock,
    "nodiscard": check_nodiscard,
    "pin": check_pin,
    "logging": check_logging,
    "auditflow": check_auditflow,
    "threads": check_threads,
    "policy": check_policy,
    "trace": check_trace,
    "locks": check_locks,
    "rawio": check_rawio,
    "constcast": check_constcast,
}


def rules_for(relpath):
    """Which rules apply to a repo-relative path in tree mode."""
    rules = []
    if not relpath.startswith("src/"):
        # auditflow applies anywhere the macro is used; the rest are
        # library-only contracts.
        return ["auditflow"] if relpath.startswith(("src/", "tests/",
                                                    "bench/")) else []
    if relpath not in CLOCK_ALLOWED:
        rules.append("clock")
    if nodiscard_applies(relpath):
        rules.append("nodiscard")
    if not relpath.startswith("src/buffer/"):
        rules.append("pin")
    if relpath not in LOGGING_ALLOWED:
        rules.append("logging")
    rules.append("auditflow")
    if relpath not in THREADS_ALLOWED:
        rules.append("threads")
    if relpath not in LOCKS_ALLOWED:
        rules.append("locks")
    if relpath not in RAWIO_ALLOWED:
        rules.append("rawio")
    rules.append("constcast")
    if relpath.startswith(POLICY_DIRS):
        rules.append("policy")
    if not relpath.startswith("src/obs/"):
        rules.append("trace")
    return rules


def load_allowlist(root):
    """tools/lint/allowlist.txt: `<rule> <path> -- <justification>`."""
    allow = set()
    path = os.path.join(root, "tools", "lint", "allowlist.txt")
    if not os.path.exists(path):
        return allow
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 4 or parts[2] != "--":
                sys.stderr.write(
                    "allowlist.txt:%d: malformed entry (want `<rule> <path> "
                    "-- <justification>`): %s\n" % (lineno, line))
                sys.exit(2)
            rule, rel = parts[0], parts[1]
            if rule not in RULES:
                sys.stderr.write("allowlist.txt:%d: unknown rule %r\n"
                                 % (lineno, rule))
                sys.exit(2)
            allow.add((rule, rel))
    return allow


def lint_file(root, relpath, rule_names):
    path = os.path.join(root, relpath)
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except (OSError, UnicodeDecodeError) as e:
        sys.stderr.write("cannot read %s: %s\n" % (relpath, e))
        sys.exit(2)
    code = strip_comments_keep_lines(raw)
    findings = []
    for name in rule_names:
        findings.extend(RULES[name](relpath, raw, code))
    return findings


def lint_tree(root):
    allow = load_allowlist(root)
    findings = []
    for top in ("src", "tests", "bench"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for fname in sorted(files):
                if not fname.endswith((".h", ".cc", ".cpp", ".hpp")):
                    continue
                relpath = os.path.relpath(os.path.join(dirpath, fname), root)
                relpath = relpath.replace(os.sep, "/")
                applicable = [r for r in rules_for(relpath)
                              if (r, relpath) not in allow]
                findings.extend(lint_file(root, relpath, applicable))
    # Tree mode also asserts the API headers still exist: silently skipping
    # a renamed header would turn the nodiscard rule into a no-op.
    for header in NODISCARD_API_HEADERS + tuple(NODISCARD_CLASSES):
        if not os.path.exists(os.path.join(root, header)):
            findings.append(Finding(
                "nodiscard", header, 1,
                "API header named in scripts/domain_lint.py no longer "
                "exists; update NODISCARD_API_HEADERS"))
    return findings


# --------------------------------------------------------------------------
# Self-test: every rule against its fixtures

def selftest(root):
    fixtures = os.path.join(root, "tools", "lint", "fixtures")
    failures = []
    ran = 0
    for rule in sorted(RULES):
        rule_dir = os.path.join(fixtures, rule)
        if not os.path.isdir(rule_dir):
            failures.append("%s: no fixture directory %s" % (rule, rule_dir))
            continue
        names = sorted(os.listdir(rule_dir))
        good = [n for n in names if n.startswith("good")]
        bad = [n for n in names if n.startswith("bad")]
        if not good or not bad:
            failures.append("%s: need at least one good_* and one bad_* "
                            "fixture" % rule)
            continue
        for name in good + bad:
            relpath = "tools/lint/fixtures/%s/%s" % (rule, name)
            found = lint_file(root, relpath, [rule])
            ran += 1
            if name.startswith("good") and found:
                failures.append("%s: good fixture %s raised findings:\n  %s"
                                % (rule, name,
                                   "\n  ".join(str(f) for f in found)))
            if name.startswith("bad") and not found:
                failures.append("%s: bad fixture %s raised no findings"
                                % (rule, name))
    if failures:
        for f in failures:
            print("SELFTEST FAIL: %s" % f)
        return 1
    print("domain_lint selftest: %d fixture checks passed for %d rules"
          % (ran, len(RULES)))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repository root (default: the script's parent)")
    parser.add_argument("--selftest", action="store_true",
                        help="run rules against tools/lint/fixtures/")
    args = parser.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.selftest:
        sys.exit(selftest(root))
    findings = lint_tree(root)
    for f in findings:
        print(f)
    if findings:
        print("domain lint: %d finding(s)" % len(findings))
        sys.exit(1)
    print("domain lint: clean")


if __name__ == "__main__":
    main()
