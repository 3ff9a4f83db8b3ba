// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Per-scan bookkeeping kept by the Scan Sharing Manager (paper §"attributes
// maintained": location, remaining pages, speed, range, accumulated
// slowdown). The SSM sees scans as opaque position/speed trajectories; it
// knows nothing about predicates, tuples, or the buffer pool.

#pragma once

#include <cstdint>

#include "sim/disk.h"
#include "sim/virtual_clock.h"

namespace scanshare::ssm {

/// Identifier the SSM assigns to each registered scan.
using ScanId = uint64_t;

/// Sentinel for "no scan".
inline constexpr ScanId kInvalidScanId = 0;

/// Group role of a scan at its most recent location update, kept so the
/// tracer can emit leader/trailer *transitions* instead of one event per
/// update. kNone also covers singleton groups (nobody to lead or trail).
enum class GroupRole : uint8_t {
  kNone = 0,  ///< Ungrouped, singleton group, or never updated.
  kLeader,    ///< Frontmost member of a group of >= 2.
  kTrailer,   ///< Backmost member of a group of >= 2.
  kInner,     ///< Mid-group member.
};

/// The windowed speed rule of both managers (paper: units processed since
/// the last update / time since the last update). A scan that has
/// processed `progress` units in total reports at `now`; its window opened
/// at `*window_start` with `*window_units` processed. A report that is
/// not later than the window start keeps the window open. Closing it at
/// the same timestamp would drop that report's units from every later
/// window and underestimate the speed for good. For a trailer, that
/// inflates the wait the throttle imposes on its leader. An earlier `now`
/// would wrap the unsigned time delta.
inline void AdvanceSpeedWindow(uint64_t progress, sim::Micros now,
                               double* speed, sim::Micros* window_start,
                               uint64_t* window_units) {
  if (now <= *window_start) return;
  if (progress > *window_units) {
    *speed = static_cast<double>(progress - *window_units) /
             (static_cast<double>(now - *window_start) / 1e6);
  }
  *window_start = now;
  *window_units = progress;
}

/// What a scan declares when it registers (paper: supplied by the costing
/// component of the query compiler).
struct ScanDescriptor {
  /// Table identity — scans group only with scans of the same table.
  uint32_t table_id = 0;

  /// The table's full page span (the circle shared scans wrap around).
  sim::PageId table_first = 0;
  sim::PageId table_end = 0;

  /// The range this scan must cover, [range_first, range_end) within the
  /// table span. Full-table scans set it equal to the table span.
  sim::PageId range_first = 0;
  sim::PageId range_end = 0;

  /// Estimated pages the scan will read (usually range size).
  uint64_t estimated_pages = 0;

  /// Estimated total scan duration; with estimated_pages this yields the
  /// initial speed estimate (paper: "(estimated pages)/(estimated time)").
  sim::Micros estimated_duration = 1;

  /// Query-priority extension (the paper's stated future work: "make this
  /// threshold dynamic by taking into account query priorities"): scales
  /// this scan's throttle budget. 1.0 = the configured fairness cap;
  /// 0.5 = a high-priority query that may only donate half as much time;
  /// 0 = never throttle this scan; 2.0 = a background query that may
  /// donate twice the default.
  double throttle_tolerance = 1.0;
};

/// Live state of one registered scan.
struct ScanState {
  ScanId id = kInvalidScanId;
  ScanDescriptor desc;

  /// Where the SSM placed the scan (its wrap point).
  sim::PageId start_page = 0;
  /// Scan id this scan was placed next to, or kInvalidScanId.
  ScanId joined_scan = kInvalidScanId;

  /// Most recently reported position (page about to be processed).
  sim::PageId position = 0;
  /// Total pages processed so far.
  uint64_t pages_processed = 0;

  /// Current speed estimate in pages per second. Updated at every location
  /// update from the pages/time delta since the previous update (paper
  /// §"speed = (pages read since last update)/(time since last update)").
  double speed_pps = 1.0;

  /// Registration time.
  sim::Micros started_at = 0;
  /// Time of the previous location update (for the speed window).
  sim::Micros last_update_at = 0;
  /// Pages processed as of the previous location update.
  uint64_t pages_at_last_update = 0;

  /// Group role observed at the previous location update (trace-transition
  /// bookkeeping only; policies never read it).
  GroupRole last_role = GroupRole::kNone;

  /// Total throttle wait inserted into this scan so far.
  sim::Micros accumulated_wait = 0;
  /// True once accumulated_wait exceeded the fairness cap; the scan is
  /// never throttled again (paper: 80 % rule).
  bool throttling_exhausted = false;

  /// Pages the scan still has to read (estimate).
  uint64_t remaining_pages() const {
    return pages_processed >= desc.estimated_pages
               ? 0
               : desc.estimated_pages - pages_processed;
  }
};

}  // namespace scanshare::ssm
