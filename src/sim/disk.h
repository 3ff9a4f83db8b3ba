// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Deterministic disk model.
//
// The paper's evaluation hinges on two iostat-level effects that this model
// reproduces faithfully:
//   1. *Re-reads*: a page evicted before a second scan arrives costs a second
//      physical read (counted in pages_read / bytes_read).
//   2. *Seek amplification*: interleaved scans at distant positions force the
//      head to jump, so the same set of page reads can cost many more seeks
//      (counted in seeks, and charged seek latency).
// The model is a single head over a linear page address space with a simple
// but standard cost decomposition: positioning cost (seek + settle) when the
// requested start page is not the successor of the previous access, plus a
// per-page transfer cost. A shared busy-until timestamp models contention:
// concurrent streams queue behind each other, which is exactly the "busier
// disk delays the leader too" feedback loop the paper describes.

#pragma once

#include <cstdint>

#include "common/counters.h"
#include "common/random.h"
#include "common/status.h"
#include "obs/trace.h"
#include "sim/virtual_clock.h"

namespace scanshare::sim {

/// Page number in the linear disk address space.
using PageId = uint64_t;

/// Sentinel for "no page".
inline constexpr PageId kInvalidPageId = ~0ULL;

/// Cost-model knobs for the simulated disk.
struct DiskOptions {
  /// Fixed positioning cost charged when an access is not sequential with
  /// the previous one (average seek + rotational settle). Default 5 ms,
  /// a typical 2006-era enterprise drive.
  Micros seek_micros = 5000;

  /// Additional positioning cost per page of head travel distance. Models
  /// the (weak) dependence of seek time on distance. Default 0.002 us/page,
  /// i.e. a full sweep over a 1M-page volume adds ~2 ms.
  double seek_per_page_micros = 0.002;

  /// Transfer cost per page once positioned. Default 400 us for a 32 KiB
  /// page (~80 MB/s streaming bandwidth).
  Micros transfer_micros_per_page = 400;

  /// Page size in bytes, used only for byte accounting. Default 32 KiB
  /// (the paper's configuration).
  uint64_t page_size_bytes = 32 * 1024;
};

/// Aggregate I/O counters, mirroring the iostat quantities the paper reports.
struct DiskStats {
  uint64_t requests = 0;        ///< Number of read requests issued.
  uint64_t pages_read = 0;      ///< Total pages transferred.
  uint64_t bytes_read = 0;      ///< Total bytes transferred.
  uint64_t seeks = 0;           ///< Requests that required repositioning.
  Micros busy_micros = 0;       ///< Total time the device was transferring/seeking.
  Micros queue_wait_micros = 0; ///< Total time requests waited behind the device.
};

/// DiskStats' counters in registry order (common/counters.h).
inline constexpr counters::Field<DiskStats> kDiskStatsCounters[] = {
    {"disk.requests", &DiskStats::requests},
    {"disk.pages_read", &DiskStats::pages_read},
    {"disk.bytes_read", &DiskStats::bytes_read},
    {"disk.seeks", &DiskStats::seeks},
    {"disk.busy_us", &DiskStats::busy_micros},
    {"disk.queue_wait_us", &DiskStats::queue_wait_micros},
};
static_assert(counters::Covers(kDiskStatsCounters, sizeof(DiskStats)));

/// Fault-injection configuration for the simulated device (tests only).
///
/// Each armed knob independently selects read requests to fail with
/// Status::Corruption *before* any cost, queueing, head movement, or
/// counter is charged — an injected failure is observable only through the
/// returned status and the faults_injected() counter, never through disk
/// statistics. This is what makes "a failed fetch leaves disk time
/// untouched" testable (see DESIGN.md "Error-path semantics").
struct DiskFaultOptions {
  /// Fail the Nth Read() issued after SetFaults() (1-based). 0 disables.
  /// One-shot per arming: it fires once and stays quiet until the next
  /// SetFaults()/Reset() restarts the count.
  uint64_t fail_nth_read = 0;

  /// Fail every read whose page range intersects [fail_range_first,
  /// fail_range_end). kInvalidPageId bounds disable the knob.
  PageId fail_range_first = kInvalidPageId;
  PageId fail_range_end = kInvalidPageId;

  /// Fail each read independently with this probability, drawn from a
  /// deterministic generator seeded with `seed` at SetFaults() time.
  double fail_rate = 0.0;
  uint64_t seed = 0;

  /// True if any knob is armed.
  bool armed() const {
    return fail_nth_read != 0 || fail_range_first != kInvalidPageId ||
           fail_rate > 0.0;
  }
};

/// Result of one read request against the simulated device.
struct IoResult {
  Micros start_micros = 0;     ///< When the device began servicing the request.
  Micros complete_micros = 0;  ///< When the last page was available.
  bool seeked = false;         ///< Whether the request required repositioning.
};

/// Single-spindle simulated disk with FCFS queueing.
///
/// Not thread-safe; the deterministic executor serializes access.
class Disk {
 public:
  explicit Disk(DiskOptions options) : options_(options) {}

  /// Reads `page_count` contiguous pages starting at `first_page`, issued at
  /// virtual time `now`. Returns when the transfer would complete. The
  /// device is busy until the returned complete time; later requests queue.
  ///
  /// Returns InvalidArgument if `page_count` is zero.
  [[nodiscard]] StatusOr<IoResult> Read(PageId first_page, uint64_t page_count, Micros now);

  /// Page the head would read next at zero positioning cost.
  PageId head_position() const { return head_; }

  /// Time until which the device is busy with earlier requests.
  Micros busy_until() const { return busy_until_; }

  /// Cumulative counters since construction or the last ResetStats().
  const DiskStats& stats() const { return stats_; }

  /// Zeroes the counters (head position and queue state are preserved).
  void ResetStats() { stats_ = DiskStats{}; }

  /// Full reset for a fresh experiment run: counters, head position, and
  /// queue state all return to the initial state. An armed fault
  /// configuration is *re-armed* (Nth-read counter and failure-rate
  /// generator reset), not cleared, so a test can arm faults once and then
  /// start a run that begins with Reset() — every such run fails the same
  /// requests.
  void Reset() {
    ResetStats();
    head_ = 0;
    busy_until_ = 0;
    SetFaults(faults_);
  }

  /// Arms fault injection (tests only). Resets the Nth-read counter and
  /// reseeds the failure-rate generator, so the same configuration always
  /// fails the same requests.
  void SetFaults(const DiskFaultOptions& faults) {
    faults_ = faults;
    reads_since_arm_ = 0;
    fault_rng_.Reseed(faults.seed);
  }

  /// Disarms all fault injection. The faults_injected() counter persists
  /// until the next SetFaults()/Reset().
  void ClearFaults() { faults_ = DiskFaultOptions{}; }

  /// The fault configuration in force.
  const DiskFaultOptions& faults() const { return faults_; }

  /// Reads failed by injection since construction (never by ResetStats(),
  /// so tests can assert on it after a run that resets disk counters).
  uint64_t faults_injected() const { return faults_injected_; }

  /// The cost model in force.
  const DiskOptions& options() const { return options_; }

  /// Attaches a borrowed event tracer (or detaches with nullptr). The disk
  /// emits kDiskRead spans plus kDiskSeek/kDiskFault instants. The caller
  /// owns the tracer and must detach it before destroying it — the engine
  /// wires one per run and detaches on every exit path.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  DiskOptions options_;
  obs::Tracer* tracer_ = nullptr;
  PageId head_ = 0;
  Micros busy_until_ = 0;
  DiskStats stats_;
  DiskFaultOptions faults_;
  uint64_t reads_since_arm_ = 0;
  uint64_t faults_injected_ = 0;
  Rng fault_rng_{0};
};

}  // namespace scanshare::sim
