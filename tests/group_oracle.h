// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Reference Fig.-14 grouping for the tests: the from-scratch builder the
// Scan Sharing Manager used before it kept each table's scans in circle
// order. It sorts the scans, sorts the adjacency edges by (gap, trailer
// position, trailer id), and merges them greedily under the budget with a
// union-find guard against closing the circle. Tests compare the
// production kernel (ssm::BuildScanGroups over a maintained order) with
// it; nothing in src/ calls it.

#pragma once

#include <cstdint>
#include <vector>

#include "ssm/group_builder.h"
#include "ssm/scan_order.h"

namespace scanshare::testutil {

/// Groups `points` (any order) on `circle` under `bufferpool_pages`, the
/// way Fig. 14 reads: independent of ssm::MergeAdjacentScans.
std::vector<ssm::ScanGroup> ReferenceScanGroups(
    const std::vector<ssm::ScanPoint>& points, const ssm::ScanCircle& circle,
    uint64_t bufferpool_pages);

}  // namespace scanshare::testutil
