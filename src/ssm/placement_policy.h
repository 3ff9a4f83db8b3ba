// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Placement of a new shared scan (paper §"scan placement"): starting a new
// scan at the position of an ongoing scan converts all of the follower's
// reads into buffer hits for as long as the two stay together. Candidates
// are the ongoing scans whose position lies inside the new scan's range;
// they are scored by the number of pages the pair can be expected to share,
// which depends on (1) how similar the speeds are (dissimilar speeds drift
// apart and stop sharing at the group distance threshold) and (2) how much
// scan range the candidate has left. If no scan is active, the new scan is
// placed at the last *finished* scan's final position to harvest whatever
// pages it left in the pool (paper's special case).
//
// The rules are free functions so every placement runs one copy of them:
// GroupThrottlePolicy::Place, AbmRelevancePolicy::Place (range test and
// extent grid under its own score) and the index-scan manager's placement
// loop (score and range test on the block and key axes).

#pragma once

#include <cstdint>

#include "ssm/scan_state.h"

namespace scanshare::ssm {

/// True if `pos` lies in the scan range from `first` to `last`, both
/// inclusive. A new scan's range never wraps. Table scans pass their page
/// range as [range_first, range_end - 1]; index scans their key range.
template <typename Pos>
constexpr bool InScanRange(Pos pos, Pos first, Pos last) {
  return pos >= first && pos <= last;
}

/// Expected units (pages, or blocks for index scans) a new scan shares
/// with an ongoing candidate if placed at its position: the time the pair
/// stays within `threshold` units of each other, bounded by the
/// candidate's remaining work and the new scan's total, times the slower
/// speed. Speeds are in units per second.
double SharingScore(double cand_speed, uint64_t cand_remaining,
                    double new_speed, uint64_t new_units, uint64_t threshold);

/// Aligns a start page down to the `extent` grid (>= 1), clamped into the
/// scan's range [range_first, range_end).
sim::PageId AlignStart(sim::PageId page, const ScanDescriptor& desc,
                       uint64_t extent);

/// Where a new scan should start and whom it joined.
struct Placement {
  sim::PageId start_page = 0;          ///< The scan's wrap point.
  ScanId joined_scan = kInvalidScanId; ///< Ongoing scan joined, if any.
  double expected_shared_pages = 0.0;  ///< Score of the chosen placement.
};

}  // namespace scanshare::ssm
