// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Clang Thread Safety Analysis macros (DESIGN.md §14). The locking
// contracts of the thread pool, the file backend and kernel run-ahead —
// which lock guards which field, which helper requires which capability,
// and where each lock sits in common/lock_order.h — are encoded
// with these annotations and machine-checked at compile time by clang's
// -Wthread-safety / -Wthread-safety-beta analysis (the SCANSHARE_THREAD_SAFETY
// CMake option; scripts/check.sh --thread-safety; the thread-safety CI job).
//
// Under any compiler other than clang every macro expands to nothing, so
// the annotations are zero-cost documentation there; under clang they are
// enforced, and scripts/thread_safety_compile_test.sh proves the
// enforcement bites (unlocked guarded access, a missing-REQUIRES call,
// out-of-order and double acquisition all fail to compile).
//
// Use the wrapper types in common/mutex.h rather than std::mutex:
// libstdc++'s std::mutex carries no capability attributes, so only the
// wrappers make these macros meaningful. The annotation style guide lives
// in DESIGN.md §14.2; the hierarchy tokens referenced by
// SCANSHARE_ACQUIRED_BEFORE/AFTER live in common/lock_order.h and are
// checked acyclic by scripts/lock_order.py.

#pragma once

#if defined(__clang__)
#define SCANSHARE_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define SCANSHARE_THREAD_ANNOTATION__(x)  // no-op off clang
#endif

/// Class attribute: instances are lockable capabilities (mutexes).
#define SCANSHARE_CAPABILITY(x) SCANSHARE_THREAD_ANNOTATION__(capability(x))

/// Class attribute: RAII object that acquires on construction and releases
/// on destruction (MutexLock).
#define SCANSHARE_SCOPED_CAPABILITY \
  SCANSHARE_THREAD_ANNOTATION__(scoped_lockable)

/// Field attribute: reads and writes require the capability held.
#define SCANSHARE_GUARDED_BY(x) SCANSHARE_THREAD_ANNOTATION__(guarded_by(x))

/// Field attribute for pointers: the *pointee* is guarded.
#define SCANSHARE_PT_GUARDED_BY(x) \
  SCANSHARE_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function attribute: caller must hold the capability exclusively.
#define SCANSHARE_REQUIRES(...) \
  SCANSHARE_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function attribute: acquires the capability (exclusive) and does not
/// release it before returning.
#define SCANSHARE_ACQUIRE(...) \
  SCANSHARE_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// Function attribute: releases a held capability (exclusive or generic).
#define SCANSHARE_RELEASE(...) \
  SCANSHARE_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// Function attribute: acquires the capability iff the return value equals
/// the first macro argument.
#define SCANSHARE_TRY_ACQUIRE(...) \
  SCANSHARE_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Function attribute: caller must NOT hold the capability (the function
/// acquires it itself — encodes non-reentrancy of the public entry points).
#define SCANSHARE_EXCLUDES(...) \
  SCANSHARE_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Declaration attribute on a capability: this capability is acquired
/// before the listed ones. Edges feed scripts/lock_order.py.
#define SCANSHARE_ACQUIRED_BEFORE(...) \
  SCANSHARE_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))

/// Declaration attribute on a capability: this capability is acquired
/// after the listed ones. Edges feed scripts/lock_order.py.
#define SCANSHARE_ACQUIRED_AFTER(...) \
  SCANSHARE_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

/// Function attribute: the function returns a reference to the capability
/// that guards its result.
#define SCANSHARE_RETURN_CAPABILITY(x) \
  SCANSHARE_THREAD_ANNOTATION__(lock_returned(x))

/// Function attribute: asserts (at runtime) that the capability is held —
/// the analysis assumes it afterwards.
#define SCANSHARE_ASSERT_CAPABILITY(x) \
  SCANSHARE_THREAD_ANNOTATION__(assert_capability(x))

/// Escape hatch: disables the analysis for one function. The acceptance
/// bar for the engine is ZERO uses outside this header's own definition
/// (DESIGN.md §14.2).
#define SCANSHARE_NO_THREAD_SAFETY_ANALYSIS \
  SCANSHARE_THREAD_ANNOTATION__(no_thread_safety_analysis)
