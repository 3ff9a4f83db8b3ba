// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Shared test scaffolding. Every integration-style test used to hand-roll
// the same three things — a lineitem database, a RunConfig, a stream shape
// — with slightly different constants; this header is the single home for
// those helpers so a schema or config change is a one-file edit.
//
// Also home of the concurrency witness the threaded tests use to avoid
// *silently* passing on machines where hardware_concurrency == 1: a test
// that claims to exercise cross-thread behaviour must either observe real
// overlap or say out loud that it could not.

#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "exec/engine.h"

namespace scanshare::testutil {

/// Builds a fresh database holding one lineitem-like table named `table`
/// with `pages` 32 KiB pages, generated from `seed`. Aborts the test
/// binary on generation failure (tests have no recovery story).
std::unique_ptr<exec::Database> MakeLineitemDb(uint64_t pages, uint64_t seed,
                                               const std::string& table = "lineitem");

/// Process-lifetime database for tests that only read: built once per
/// distinct (pages, seed) and intentionally leaked. Do NOT mutate the
/// catalog through this pointer — Database::Run itself is fine, it resets
/// all run state.
exec::Database* SharedLineitemDb(uint64_t pages, uint64_t seed);

/// The canonical test RunConfig: `frames` buffer frames, `extent` prefetch
/// pages, 250 ms series buckets.
exec::RunConfig MakeRunConfig(exec::ScanMode mode, size_t frames,
                              uint64_t extent = 16);

/// The canonical staggered two-stream workload on `table`: a Q1-like scan
/// starting at t=0 and a Q6-like scan starting `stagger` later (the
/// paper's staggered-start experiment, also the golden-trace workload).
std::vector<exec::StreamSpec> StaggeredQ1Q6(const std::string& table,
                                            sim::Micros stagger);

// ---------------------------------------------------------------- threads

/// Observes how many tasks were ever inside a region simultaneously.
/// Enter() at region start, Exit() at region end, max_concurrent() after
/// every participating task has joined.
class ConcurrencyWitness {
 public:
  /// Returns the occupancy at entry (>= 1) and folds it into the maximum.
  /// Until two tasks have been seen inside at once, Enter() waits (up to
  /// 200 ms, yielding) for a second task, so regions shorter than a thread
  /// start-up still overlap on a multi-core host.
  int Enter();
  void Exit();
  int max_concurrent() const { return max_.load(); }

 private:
  std::atomic<int> current_{0};
  std::atomic<int> max_{0};
};

/// The threaded-test degradation contract: returns true if real overlap
/// was observed (max_observed >= 2). If not, and the machine cannot
/// overlap threads (hardware_concurrency <= 1), prints an explicit notice
/// and records the gtest property `degraded_single_core` so the run is
/// visibly partial rather than silently green — and still returns true
/// (degradation, not failure). Returns false only when overlap was
/// expected (multi-core host) and missing; callers EXPECT_TRUE the result.
bool OverlapObservedOrSingleCoreNoted(const char* what, int max_observed);

}  // namespace scanshare::testutil
