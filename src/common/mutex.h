// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Capability-annotated mutex wrapper (DESIGN.md §14). libstdc++'s
// std::mutex carries no thread-safety attributes, so Clang Thread Safety
// Analysis cannot see through it; this zero-overhead wrapper is the
// annotated replacement every lock in src/ uses. The domain
// lint's `locks` rule bans raw std mutex declarations and manual
// lock()/unlock() calls in src/ — locks are declared as Mutex (with an
// SCANSHARE_ACQUIRED_BEFORE/AFTER hierarchy edge, see
// common/lock_order.h) and held through the RAII guard below.
//
// This file is the one place in src/ allowed to name std::mutex and to
// define lock()/unlock(); it is on the domain lint's thread allowlist
// (scanshare-threads) and exempt from the `locks` rule.

#pragma once

#include <mutex>

#include "common/thread_annotations.h"

namespace scanshare {

/// Annotated std::mutex. Satisfies Lockable, so std::unique_lock<Mutex>
/// and std::condition_variable_any work with it (the thread pool blocks
/// its workers that way); prefer MutexLock for plain critical sections —
/// the analysis sees scoped guards, not std::unique_lock.
class SCANSHARE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SCANSHARE_ACQUIRE() { mu_.lock(); }
  void unlock() SCANSHARE_RELEASE() { mu_.unlock(); }
  bool try_lock() SCANSHARE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII exclusive hold of a Mutex for one scope.
class SCANSHARE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SCANSHARE_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SCANSHARE_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace scanshare
