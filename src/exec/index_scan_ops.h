// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The block-index scan operator (extension layer, after the authors' VLDB
// 2007 follow-up). Like the table scan, its sharing role is switched on by
// the manager in its environment:
//
//  * without an Index Scan Sharing Manager it is the baseline IXSCAN over
//    an MDC block index: it visits the keys of [key_lo, key_hi] in order
//    and each key's blocks in BID order, releasing pages at Normal
//    priority (paper Fig. 1);
//  * with one it is the SISCAN: it asks the ISM where to start, traverses
//    [startLoc → end key] then wraps to [start key → startLoc] (paper
//    Fig. 3), reports its (key, block) location every block, inserts the
//    ISM's throttle waits, and releases pages at the ISM-advised priority.
//
// It steps one *block* at a time (the block is the prefetch unit of an
// MDC scan), so the discrete-event executor interleaves index scans at
// block granularity.

#pragma once

#include <memory>

#include "exec/scan_ops.h"
#include "ssm/index_scan_sharing_manager.h"
#include "storage/block_index.h"

namespace scanshare::exec {

/// Environment for the index scan operator: the table-scan ScanEnv plus
/// the block index and, for a sharing scan, the ISM.
struct IndexScanEnv {
  ScanEnv base;                                ///< pool/table/cost (ssm unread).
  const storage::BlockIndex* index = nullptr;  ///< Required.
  /// Set, it makes the index scan a sharing scan; null for baseline scans.
  ssm::IndexScanSharingManager* ism = nullptr;
};

/// Creates the block-index scan cursor for `query` (query.access must be
/// kIndexScan): a sharing scan if env.ism is set, the baseline otherwise.
std::unique_ptr<ScanCursor> MakeIndexScan(const IndexScanEnv& env,
                                          QuerySpec query);

/// Clamps a query's key range to the index's key domain and returns the
/// number of blocks it covers (0 if the range misses every key).
uint64_t ResolveIndexRange(const storage::BlockIndex& index,
                           const QuerySpec& query, int64_t* key_lo,
                           int64_t* key_hi);

}  // namespace scanshare::exec
