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
// Every real mutex in src/ declares its place in this
// hierarchy on its declaration (enforced by the domain lint's `locks`
// rule); scripts/lock_order.py parses all SCANSHARE_ACQUIRED_BEFORE/AFTER
// annotations in src/ — token-to-token edges here plus mutex-to-token
// edges at the declarations — and fails if the combined graph has a cycle.
//
// The hierarchy. Every lock is a leaf: no lock is taken while another is
// held, so the ranks order nothing against each other. Each run's
// simulation (pool, SSM, position board, prefetcher, page store, tracer)
// runs on its event loop alone and takes no lock; the three locks below
// are the ones a second thread really contends for.
//
//   kIoBackend       io::FileIoBackend's job-queue mutex: the event loop
//                    (StartBytes/Join) and the backend's pread workers
//   kDriver          the thread pool's queue mutex: submitters (a run
//                    driver, or a run's event loop handing out kernels)
//                    and the pool's workers
//   kScanKernel      each scan's kernel run-ahead lock (exec/
//                    kernel_runahead.h): the event loop and the one worker
//                    running that scan's kernel

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

/// Real-file backend job-queue level: a leaf taken by the event loop and
/// by the backend's pread workers.
inline constinit Rank kIoBackend;

/// Thread-pool level: a leaf taken by whoever submits a task and by the
/// pool's workers, never held while a task runs.
inline constinit Rank kDriver;

/// Kernel run-ahead level: one lock per scan, taken by the event loop and
/// the worker running that scan's kernel. A leaf: the holder only reads and
/// writes the scan's progress and turn, and submits nothing while it holds
/// it.
inline constinit Rank kScanKernel;

}  // namespace scanshare::lock_order
