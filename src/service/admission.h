// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Admission control between the arrival process and the engine. Every
// arriving job is offered to the controller, which decides one of three
// outcomes:
//
//   admit — a global slot AND a slot on the job's table are free; the job
//           runs immediately.
//   queue — some cap is saturated but the bounded admission queue has
//           room; the job waits in FIFO arrival order.
//   shed  — the cap is saturated and the queue is full; the job is
//           rejected with a typed reason naming the cap that blocked it.
//
// When a running job finishes, Release frees its slots and
// DrainAdmissible walks the queue front to back, admitting every waiter
// whose caps now fit. That is deliberately NOT head-of-line blocking: a
// job queued behind a saturated table does not stall jobs of idle tables
// behind it (slots only get consumed during the walk, so one forward pass
// is complete). Within one table, FIFO order is preserved.
//
// Single-threaded by design, like the discrete-event service loop that
// owns it. All counters are exact, and CheckInvariants() verifies the
// conservation law the stress tests lean on:
//   arrived == admitted + queued + shed   (decisions at arrival)
//   running == admitted + admitted_from_queue - released.

#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/status.h"

namespace scanshare::service {

/// Why a job was shed: the cap that blocked admission when the queue was
/// full. Values are stable trace identifiers (kShed's arg1).
enum class ShedReason : uint8_t {
  kGlobalCap = 0,  ///< Global concurrency cap saturated.
  kTableCap = 1,   ///< The job's per-table cap saturated.
};

/// Admission-control knobs.
struct AdmissionOptions {
  /// Concurrently running jobs across all tables (> 0).
  size_t global_cap = 64;
  /// Concurrently running jobs per table (> 0).
  size_t per_table_cap = 16;
  /// Admission-queue bound; 0 = no queue (saturation sheds immediately).
  size_t queue_bound = 256;
};

/// Exact admission counters.
struct AdmissionStats {
  uint64_t arrived = 0;             ///< Offer calls.
  uint64_t admitted = 0;            ///< Admitted immediately at arrival.
  uint64_t queued = 0;              ///< Parked in the queue at arrival.
  uint64_t shed = 0;                ///< Rejected at arrival (all reasons).
  uint64_t shed_global_cap = 0;     ///< Rejections blamed on the global cap.
  uint64_t shed_table_cap = 0;      ///< Rejections blamed on a table cap.
  uint64_t admitted_from_queue = 0; ///< Dequeued by DrainAdmissible.
  uint64_t released = 0;            ///< Completions reported via Release.
  uint64_t max_queue_depth = 0;     ///< High-water queue depth.
  uint64_t max_running = 0;         ///< High-water running count.
};

/// AdmissionStats' counters in registry order (common/counters.h).
inline constexpr counters::Field<AdmissionStats> kAdmissionStatsCounters[] = {
    {"service.arrived", &AdmissionStats::arrived},
    {"service.admitted", &AdmissionStats::admitted},
    {"service.queued", &AdmissionStats::queued},
    {"service.shed", &AdmissionStats::shed},
    {"service.shed_global_cap", &AdmissionStats::shed_global_cap},
    {"service.shed_table_cap", &AdmissionStats::shed_table_cap},
    {"service.admitted_from_queue", &AdmissionStats::admitted_from_queue},
    {"service.released", &AdmissionStats::released},
    {"service.max_queue_depth", &AdmissionStats::max_queue_depth},
    {"service.max_running", &AdmissionStats::max_running},
};
static_assert(counters::Covers(kAdmissionStatsCounters,
                               sizeof(AdmissionStats)));

/// One admission decision.
struct AdmissionDecision {
  enum class Outcome : uint8_t { kAdmit, kQueue, kShed };
  Outcome outcome = Outcome::kAdmit;
  /// Valid iff outcome == kShed.
  ShedReason reason = ShedReason::kGlobalCap;
  /// Queue depth right after the decision.
  size_t queue_depth = 0;
};

/// Bounded-queue, capped-concurrency admission controller. Not
/// thread-safe; owned by the single-threaded service loop.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options);

  /// Decides the fate of job `job` targeting `table`. On kAdmit the job
  /// counts as running immediately.
  AdmissionDecision Offer(uint64_t job, size_t table);

  /// Reports a running job on `table` finished, freeing its slots. The
  /// caller then typically calls DrainAdmissible.
  void Release(size_t table);

  /// Admits every queued job the freed caps now fit, front to back (see
  /// the file comment for the non-head-of-line semantics). Returned jobs
  /// count as running; the caller owns their start bookkeeping.
  std::vector<uint64_t> DrainAdmissible();

  size_t running() const { return running_total_; }
  size_t running_on(size_t table) const;
  size_t queue_depth() const { return queue_.size(); }
  const AdmissionOptions& options() const { return options_; }
  const AdmissionStats& stats() const { return stats_; }

  /// Verifies the conservation law, the cap bounds, and the queue bound.
  /// Returns Internal describing the first violation.
  [[nodiscard]] Status CheckInvariants() const;

 private:
  struct Waiter {
    uint64_t job = 0;
    size_t table = 0;
  };

  bool CanRun(size_t table) const;
  void NoteAdmitted(size_t table);

  AdmissionOptions options_;
  AdmissionStats stats_;
  std::deque<Waiter> queue_;
  size_t running_total_ = 0;
  std::unordered_map<size_t, size_t> running_per_table_;
};

}  // namespace scanshare::service
