// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Scan-lifecycle event tracing. A Tracer is a fixed-capacity, append-only
// ring of POD events stamped with *virtual* time only — tracing must never
// perturb the simulation (no allocation on the steady-state emit path, no
// wall clock, no I/O), so a traced run is bit-identical to an untraced one
// in every RunResult counter, and two traced runs of the same config emit
// byte-identical event logs (the golden-trace test pins this).
//
// Emission goes through the SCANSHARE_TRACE_EVENT hook macro below: when
// no tracer is attached (the default) a hook is a single pointer test,
// which keeps the buffer-pool hit path within the <2 % overhead budget.
// Components never own their tracer — the engine wires one borrowed
// pointer per run.
//
// Event vocabulary: the full scan lifecycle (admit -> group join ->
// leader/trailer transition -> throttle wait inserted/released ->
// fairness-cap suppression -> completion), point events from the buffer
// pool (hit/miss/evict), the disk (read/seek/fault), SSM regroup
// decisions, and query begin/end from the executor.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/virtual_clock.h"

namespace scanshare::obs {

/// Typed trace events. Values are stable export identifiers: the Chrome
/// exporter, the CSV timeline, and the golden structural snapshot all key
/// on the kind name, so renumbering is fine but renaming is a golden-file
/// change.
enum class EventKind : uint8_t {
  // Scan lifecycle (actor = ssm::ScanId).
  kScanAdmit = 0,     ///< StartScan accepted; arg0 = start page, arg1 = table.
  kScanJoin,          ///< Placed at an ongoing scan; arg0 = joined scan id.
  kScanLeader,        ///< Became its group's leader; arg0 = group size.
  kScanTrailer,       ///< Became its group's trailer; arg0 = group size.
  kThrottleInsert,    ///< Wait granted; arg0 = wait us, arg1 = gap pages.
  kThrottleRelease,   ///< Wait elapsed (scan side); arg0 = wait us.
  kCapSuppress,       ///< Fairness cap suppressed a wanted wait; arg0 = gap.
  kScanEnd,           ///< EndScan; arg0 = final position, arg1 = total wait.
  // SSM decisions (actor = table id).
  kRegroup,           ///< Groups rebuilt; arg0 = group count, arg1 = active.
  // Buffer pool (actor = 0; arg0 = page).
  kPoolHit,           ///< Fetch satisfied from memory.
  kPoolMiss,          ///< Fetch read an extent; arg1 = pages read.
  kPoolEvict,         ///< Victim frame recycled; arg0 = evicted page.
  // Disk (actor = 0).
  kDiskRead,          ///< Span: arg0 = first page, arg1 = page count.
  kDiskSeek,          ///< Head repositioned; arg0 = travel distance in pages.
  kDiskFault,         ///< Injected failure; arg0 = first page, arg1 = count.
  // Executor (actor = stream index).
  kQueryBegin,        ///< Cursor opened; arg0 = query index in its job.
  kQueryEnd,          ///< Span over the whole query; arg0 = query index.
  // Push I/O pipeline (actor = table id; src/io/). Only emitted when a
  // prefetcher is attached (RunConfig::io.prefetch_depth > 0), so default
  // runs and the trace goldens never see these kinds.
  kIoSubmit,          ///< Extent read issued; arg0 = first page, arg1 = count.
  kIoComplete,        ///< Extent ready; arg0 = first page, arg1 = count.
  kIoQueueFull,       ///< Group ready queue at bound; arg0 = group leader id.
  kIoPrefetchHit,     ///< Miss served from the ready queue; arg0 = first page.
  kIoPrefetchDrop,    ///< Stale ready extent evicted; arg0 = first page.
  // Scan service admission control (actor = service job id; src/service/).
  // Only emitted by ScanService runs, so engine-level runs and their trace
  // goldens never see these kinds.
  kAdmit,             ///< Job admitted to run; arg0 = table, arg1 = queue wait us.
  kQueue,             ///< Job parked in the admission queue; arg0 = table,
                      ///< arg1 = queue depth after enqueue.
  kShed,              ///< Job rejected; arg0 = table, arg1 = shed reason
                      ///< (service::ShedReason numeric value).
};

/// Number of EventKind values (bounds the per-kind counter array).
inline constexpr size_t kNumEventKinds =
    static_cast<size_t>(EventKind::kShed) + 1;

/// Stable lower_snake name of a kind ("scan_admit", "pool_hit", ...).
const char* EventKindName(EventKind kind);

/// True for the low-volume scan-lifecycle kinds that make up the golden
/// structural snapshot (everything actor-ed by a scan id, plus query
/// begin/end). Per-page pool/disk events are excluded: they are valid
/// trace content but would make golden files page-count-sized.
bool IsLifecycleKind(EventKind kind);

/// One trace record. POD by design: emission is a bounds check and a
/// 6-word store; export and analysis happen after the run.
struct TraceEvent {
  sim::Micros at = 0;    ///< Virtual timestamp of the event (span start).
  sim::Micros dur = 0;   ///< Span duration; 0 = instant event.
  uint64_t actor = 0;    ///< Scan id / table id / stream index / 0 (see kind).
  uint64_t arg0 = 0;     ///< Kind-specific payload.
  uint64_t arg1 = 0;     ///< Kind-specific payload.
  EventKind kind = EventKind::kScanAdmit;
};

/// Per-run trace configuration (part of exec::RunConfig).
struct TraceOptions {
  /// Master switch: when false no tracer is built and every hook costs one
  /// untaken branch.
  bool enabled = false;

  /// Event capacity of the ring. When the ring is full new events are
  /// *dropped* (counted, never silently) rather than overwriting old ones:
  /// keeping the deterministic prefix is what makes truncated traces still
  /// comparable across runs. 1<<18 events is ~12 MiB.
  size_t capacity = size_t{1} << 18;
};

/// Append-only bounded event log with per-kind counters.
///
/// Not thread-safe: like every simulation component it is confined to the
/// event loop of the run that owns it (one tracer per run, never shared).
class Tracer {
 public:
  explicit Tracer(size_t capacity) : capacity_(capacity) {
    events_.reserve(capacity);
  }

  /// Records one event (drop-newest once full; see TraceOptions).
  void Emit(EventKind kind, sim::Micros at, uint64_t actor, uint64_t arg0 = 0,
            uint64_t arg1 = 0, sim::Micros dur = 0) {
    ++counts_[static_cast<size_t>(kind)];
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    TraceEvent e;
    e.at = at;
    e.dur = dur;
    e.actor = actor;
    e.arg0 = arg0;
    e.arg1 = arg1;
    e.kind = kind;
    events_.push_back(e);
  }

  /// Events in emission order (virtual timestamps are near-sorted but not
  /// strictly monotonic: a throttle release is emitted at insert time with
  /// a future timestamp).
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Total emissions of `kind`, including dropped ones.
  uint64_t count(EventKind kind) const {
    return counts_[static_cast<size_t>(kind)];
  }

  /// Events refused because the ring was full.
  uint64_t dropped() const { return dropped_; }

  /// Total Emit calls (stored + dropped).
  uint64_t emitted() const {
    uint64_t total = 0;
    for (uint64_t c : counts_) total += c;
    return total;
  }

  size_t capacity() const { return capacity_; }

  /// Forgets all events and counters; capacity is kept.
  void Clear() {
    events_.clear();
    dropped_ = 0;
    for (uint64_t& c : counts_) c = 0;
  }

 private:
  size_t capacity_;
  std::vector<TraceEvent> events_;
  uint64_t dropped_ = 0;
  uint64_t counts_[kNumEventKinds] = {};
};

}  // namespace scanshare::obs

// ---------------------------------------------------------------------------
// Hook macro. All emission outside src/obs/ goes through it (enforced by the
// scanshare-trace domain-lint rule): the null test is what keeps disabled
// tracing within the overhead budget, and a direct Emit call skips it.

/// Emits an event iff `tracer` is attached. Arguments after `tracer` are
/// forwarded to obs::Tracer::Emit and are NOT evaluated when it is null —
/// hooks may therefore compute payloads inline without a disabled-path cost.
#define SCANSHARE_TRACE_EVENT(tracer, ...)                   \
  do {                                                       \
    ::scanshare::obs::Tracer* scanshare_trace_tr = (tracer); \
    if (scanshare_trace_tr != nullptr) {                     \
      scanshare_trace_tr->Emit(__VA_ARGS__);                 \
    }                                                        \
  } while (false)
