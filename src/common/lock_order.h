// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The engine-wide lock hierarchy, as code (DESIGN.md §14.1). Each Rank
// below is a pure ordering token: a capability that is never locked at
// runtime, existing only so SCANSHARE_ACQUIRED_BEFORE/AFTER edges can be
// written across classes (clang's attributes can only name expressions
// that are in scope, so two mutexes in unrelated classes cannot reference
// each other directly — they each reference the global token for their
// level instead).
//
// Every real mutex in the concurrent engine declares its place in this
// hierarchy on its declaration (enforced by the domain lint's `locks`
// rule); scripts/lock_order.py parses all SCANSHARE_ACQUIRED_BEFORE/AFTER
// annotations in src/ — token-to-token edges here plus mutex-to-token
// edges at the declarations — and fails if the combined graph has a cycle.
//
// The hierarchy (a lock may only be acquired while holding locks of
// strictly earlier ranks):
//
//   kSsm             ScanSharingManager::mu_ (the manager's one lock)
//   kPoolPartition   per-partition buffer-pool latch
//     -> kIoQueue    io::Prefetcher's ready-queue mutex (FetchSlow pops a
//                    ready extent under its partition latch)
//       -> kIo       DiskManager::io_mu_ (disk charge under a partition
//                    latch, or under the prefetcher mutex at issue time)
//       -> kIoBackend io::FileIoBackend's job-queue mutex (the prefetcher
//                    joins an async read while holding its own mutex)
//   {kSsm, kPoolPartition, kIoQueue, kIo}
//     -> kBoard      ScanPositionBoard::mu_ (leaf: SSM hooks publish under
//                    the SSM lock; replacers read under a partition latch)
//     -> kTracer     Tracer's concurrent-mode mutex (leaf: every subsystem
//                    emits under whatever lock it already holds)
//   kDriver          driver-side leaves with no engine nesting: the thread
//                    pool's queue mutex and the parallel driver's error
//                    latch (never held while an engine lock is taken)
//   kScanKernel      each scan's kernel run-ahead lock (exec/
//                    kernel_runahead.h): a leaf shared by the event loop
//                    and one worker, never held while another lock is
//                    taken and never taken under one

#pragma once

#include "common/thread_annotations.h"

namespace scanshare::lock_order {

/// An ordering token. Deliberately not lockable: it has no lock()/unlock(),
/// so it can never appear in a critical section — only in annotations.
class SCANSHARE_CAPABILITY("lock_order") Rank {
 public:
  constexpr Rank() = default;
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;
};

/// Scan Sharing Manager lock level: its one mutex, held by every public
/// call.
inline constinit Rank kSsm;

/// Buffer-pool partition latch level (root of the pool chain; FetchPage /
/// UnpinPage hold exactly one, aggregate readers take all in index order).
inline constinit Rank kPoolPartition;

/// Push-pipeline ready-queue level (io::Prefetcher): FetchSlow consumes a
/// ready extent while holding its partition latch; the pump path issues
/// charged reads (kIo) and joins backend completions (kIoBackend) while
/// holding this mutex.
inline constinit Rank kIoQueue SCANSHARE_ACQUIRED_AFTER(kPoolPartition);

/// Disk I/O charge latch level: taken under a partition latch on the
/// charged-read path, or under the prefetcher mutex at submit time.
inline constinit Rank kIo SCANSHARE_ACQUIRED_AFTER(kPoolPartition, kIoQueue);

/// Real-file backend job-queue level: a leaf below the prefetcher mutex —
/// workers take it alone; the prefetcher takes it (via Submit/Join) while
/// holding kIoQueue, never the other way round.
inline constinit Rank kIoBackend SCANSHARE_ACQUIRED_AFTER(kIoQueue);

/// Scan-position board level: a leaf — written from SSM hooks (SSM lock
/// held), read from predictive replacers (partition latch held).
inline constinit Rank kBoard SCANSHARE_ACQUIRED_AFTER(kSsm, kPoolPartition);

/// Concurrent-tracer level: the terminal leaf — every subsystem emits
/// while holding its own lock, so the tracer mutex orders after all of
/// them and may never be held while acquiring anything else.
inline constinit Rank kTracer
    SCANSHARE_ACQUIRED_AFTER(kSsm, kPoolPartition, kIoQueue, kIo, kIoBackend,
                             kBoard);

/// Driver-side leaf level: thread-pool queue mutex and the morsel driver's
/// error latch. Never nested with engine locks in either direction.
inline constinit Rank kDriver;

/// Kernel run-ahead level: one lock per scan, taken by the event loop and
/// the worker running that scan's kernel. A leaf: the holder only reads and
/// writes the scan's progress and turn, and submits nothing while it holds
/// it.
inline constinit Rank kScanKernel;

}  // namespace scanshare::lock_order
