// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Scan-group formation — the paper's Fig.-14 algorithm:
//
//   1 fct findLeadersTrailers( scanset S )
//   2   R := empty set;
//   3   while sum of extents of groups in R < bufferpool size
//   4     pick a pair (x,y) not in R with x º y and d(x,y) minimal;
//   5     if (w,x) in R, replace it with (w,x,y)
//   6     elsif (y,z) in R, replace it with (x,y,z)
//   7     else add (x,y) to R;
//   8   endwhile
//   9   for each group (x, ..., y) in R
//  10     mark x as trailer and y as leader;
//
// The candidate pairs are the adjacencies of scans listed in axis order,
// and d(x,y) is the forward distance between neighbours. Merging an
// adjacency extends a chain; the extent of a chain is the distance from its
// trailer (backmost scan) to its leader (frontmost). Merging stops before
// the summed extents would exceed the buffer-pool size — a group wider
// than the pool cannot share anyway.
//
// One kernel, MergeAdjacentScans, runs the greedy merge for both axes:
//   - table scans (BuildScanGroups): scans sorted by position on the
//     table's circle, one edge per neighbour pair plus the wrap edge from
//     the frontmost scan back to the first;
//   - index scans (IndexScanSharingManager): scans sorted by (anchor,
//     offset), edges only between neighbours sharing an anchor (paper
//     §5.3's partial order), no wrap edge.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ssm/scan_order.h"
#include "ssm/scan_state.h"

namespace scanshare::ssm {

/// One scan's position on its axis, as input to grouping.
struct ScanPoint {
  ScanId id = kInvalidScanId;
  sim::PageId position = 0;
};

/// The circle order grouping walks: position, then id.
inline bool CircleOrderLess(const ScanPoint& a, const ScanPoint& b) {
  return a.position != b.position ? a.position < b.position : a.id < b.id;
}

/// A formed scan group: members ordered back-to-front in scan direction.
struct ScanGroup {
  /// Members from trailer (back) to leader (front).
  std::vector<ScanId> members;
  /// Backmost member — throttling lets this one catch up.
  ScanId trailer = kInvalidScanId;
  /// Frontmost member — the one that gets throttled.
  ScanId leader = kInvalidScanId;
  /// Forward distance from trailer to leader in pages (0 for singletons).
  uint64_t extent_pages = 0;

  /// Number of scans in the group.
  size_t size() const { return members.size(); }
};

/// A candidate pair for Fig. 14: joins the scan at index `from` of an
/// axis-ordered list to the next one (index 0 after the last, for a
/// circle's wrap edge), `gap` units apart.
struct GroupEdge {
  size_t from = 0;
  uint64_t gap = 0;
};

/// Fig. 14's greedy merge. `points` are the scans in axis order; `edges`
/// the candidate adjacencies, listed in the caller's tie order: edges are
/// taken by ascending gap, equal gaps in list order. Taking stops at the
/// first edge that would push the summed extents over `budget`, or after
/// points.size() - 1 edges — on a circle the n-th edge would close the
/// loop, and with fewer edges no loop can form. Chains of taken edges
/// become groups, emitted in list order of their trailers (a chain that
/// takes the wrap edge starts at its trailer near the end of the list).
/// Scans that merged with nobody come out as singleton groups.
std::vector<ScanGroup> MergeAdjacentScans(const std::vector<ScanPoint>& points,
                                          const std::vector<GroupEdge>& edges,
                                          uint64_t budget);

/// Runs the Fig.-14 grouping for the scans of one table.
///
/// `points` are the active scans' positions; `circle` is the table's page
/// span; `bufferpool_pages` is the merge budget. Input already sorted by
/// CircleOrderLess (the manager's maintained order) is used as is; other
/// input, such as a test's hand-written points, is sorted first. The
/// manager's regroups pay only the one-pass sortedness check for that,
/// within noise of the builder's own cost (bench_m1_ssm_micro's
/// BM_BuildScanGroups, which feeds sorted points). Deterministic: ties on
/// distance break towards the pair with the smaller trailer position, then
/// smaller scan id — which is index order in the sorted list.
std::vector<ScanGroup> BuildScanGroups(const std::vector<ScanPoint>& points,
                                       const ScanCircle& circle,
                                       uint64_t bufferpool_pages);

/// Reverse index of a group list: scan id -> index of the group holding
/// it. A flat open-addressed table (linear probing, capacity a power of
/// two at least twice the member count). Assign refills it in place,
/// allocating only to grow — no per-member node, no rehash; Add doubles
/// it when half full; Remove deletes by backward shift, leaving no
/// tombstone.
class GroupIndex {
 public:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  /// Indexes every member of `groups`. A scan listed twice maps to the
  /// later group (the audits detect that as a membership disagreement).
  void Assign(const std::vector<ScanGroup>& groups);

  /// Maps `id` to `group`, in amortized O(1). An id already indexed maps
  /// to `group` from now on, which is Assign's later-group rule.
  void Add(ScanId id, size_t group);

  /// Unmaps `id` (a no-op if it is not indexed), in O(1) expected: the
  /// entries after it in its probe run shift back over the hole.
  void Remove(ScanId id);

  /// Index of the group holding `id`, or kNotFound.
  size_t Find(ScanId id) const;

  /// Distinct scans indexed.
  size_t size() const { return size_; }

 private:
  struct Slot {
    ScanId id = kInvalidScanId;  ///< kInvalidScanId marks an empty slot.
    size_t group = 0;
  };
  size_t Home(ScanId id) const;

  std::vector<Slot> slots_;
  size_t size_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(capacity).
};

}  // namespace scanshare::ssm
