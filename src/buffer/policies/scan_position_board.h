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
// Writers (the SSM's hooks) and readers (the replacer) both run on the
// run's event loop, so the board takes no lock. All math is a pure
// function of published state: identical runs publish identical
// trajectories and therefore evict identically.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>

namespace scanshare::buffer {

/// Blackboard of scan trajectories.
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
  void Upsert(const Trajectory& t) { scans_[t.scan_id] = t; }

  /// Removes a finished scan.
  void Erase(uint64_t scan_id) { scans_.erase(scan_id); }

  /// Registered trajectory count.
  size_t size() const { return scans_.size(); }

  /// Predicted microseconds until the SOONEST registered scan consumes
  /// `page`, or nullopt when no scan's remaining path covers it (the page
  /// is dead weight in the pool). Pure function of the published state.
  std::optional<double> NextConsumptionUs(uint64_t page) const;

 private:
  std::unordered_map<uint64_t, Trajectory> scans_;
};

}  // namespace scanshare::buffer
