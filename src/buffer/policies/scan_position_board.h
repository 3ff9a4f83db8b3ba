// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Scan-position board: the registry of scan trajectories PBM-style
// predictive eviction reads. The PBM sharing policy publishes every scan's
// position/speed/range here from the SSM's observation hooks; the PBM
// replacer asks, at eviction time, how soon ANY registered scan will
// consume a candidate page — the victim is the page with the farthest
// predicted next consumption (pages nobody will read again are infinitely
// far and go first).
//
// Types are deliberately neutral (raw uint64 pages/ids) so buffer/ does
// not depend on ssm/: the board is the one object both sides of the
// policy seam share.
//
// Concurrency: writers run under the SSM lock, readers under buffer-pool
// partition latches — so the board carries its own mutex, taken last on
// both paths (leaf lock; no ordering cycles). All math is a pure function of published state: identical runs
// publish identical trajectories and therefore evict identically.
//
// This file is on the domain lint's concurrent-engine allowlist
// (scanshare-threads).

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/lock_order.h"
#include "common/mutex.h"

namespace scanshare::buffer {

/// Thread-safe blackboard of scan trajectories.
class ScanPositionBoard {
 public:
  /// One scan's published trajectory. A scan starts at `start_page`,
  /// proceeds forward to `range_end`, wraps to `range_first`, and finishes
  /// back at `start_page` (the shared-scan wrap protocol) — which is what
  /// lets the board predict the remaining path from the position alone:
  /// position >= start_page means the wrap is still ahead.
  struct Trajectory {
    uint64_t scan_id = 0;
    uint64_t position = 0;     ///< Next page the scan will consume.
    double speed_pps = 1.0;    ///< Current speed estimate (pages/second).
    uint64_t range_first = 0;  ///< Scan range [range_first, range_end).
    uint64_t range_end = 0;
    uint64_t start_page = 0;   ///< Wrap point the scan started at.
  };

  /// Publishes (or refreshes) one scan's trajectory, keyed by scan_id.
  void Upsert(const Trajectory& t) SCANSHARE_EXCLUDES(mu_);

  /// Removes a finished scan.
  void Erase(uint64_t scan_id) SCANSHARE_EXCLUDES(mu_);

  /// Registered trajectory count.
  size_t size() const SCANSHARE_EXCLUDES(mu_);

  /// Predicted microseconds until the SOONEST registered scan consumes
  /// `page`, or nullopt when no scan's remaining path covers it (the page
  /// is dead weight in the pool). Pure function of the published state.
  std::optional<double> NextConsumptionUs(uint64_t page) const
      SCANSHARE_EXCLUDES(mu_);

 private:
  /// Leaf lock: writers arrive under the SSM lock, readers under a
  /// buffer-pool partition latch; nothing is acquired while it is held.
  mutable Mutex mu_ SCANSHARE_ACQUIRED_AFTER(lock_order::kSsm,
                                             lock_order::kPoolPartition);
  std::unordered_map<uint64_t, Trajectory> scans_ SCANSHARE_GUARDED_BY(mu_);
};

}  // namespace scanshare::buffer
