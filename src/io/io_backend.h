// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// IoBackend — the seam between the push I/O pipeline and wherever extent
// bytes physically come from (DESIGN.md §15). Two implementations:
//
//   SimIoBackend   serves extents in place: the pages are the in-memory
//                  DiskManager store's own images, so nothing is copied
//                  (default; every test and golden runs on it), and
//   FileIoBackend  preads a real preallocated table file on a worker pool
//                  (O_DIRECT when the filesystem allows it).
//
// Both backends charge *virtual* time identically through
// DiskManager::ChargedRead, so the deterministic counters (reads, seeks,
// queue waits, stall accounting) are bit-identical across backends; only
// where the bytes move differs. That split is what lets the A10 experiment
// validate the file backend's real seek/read behaviour against the sim
// prediction instead of against nothing.
//
// A read is a three-step protocol driven by the prefetcher:
//
//   Charge(first, count, now)  deterministic cost-model accounting, fault
//                              injection included; nothing charged on error.
//   StartBytes(..., dest, &t)  begin moving the extent's bytes into `dest`
//                              (file: enqueue a pread job), or answer
//                              kInPlace when the pages are the store's
//                              images and `dest` was not written (sim).
//                              Media faults may surface here.
//   Join(t)                    block until the bytes are readable.
//                              kNoToken and kInPlace join trivially.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "common/counters.h"
#include "common/status.h"
#include "sim/disk.h"

namespace scanshare::io {

/// Alignment of every pipeline read buffer: the O_DIRECT contract (buffer,
/// file offset, and length all 512B/4KiB-aligned on current kernels). Page
/// sizes are 32 KiB so offsets and lengths align for free; buffers come
/// from AllocateIoBuffer below.
inline constexpr size_t kIoBufferAlignment = 4096;

/// Deleter matching AllocateIoBuffer's aligned operator new[].
struct AlignedDeleter {
  void operator()(uint8_t* p) const noexcept {
    ::operator delete[](p, std::align_val_t{kIoBufferAlignment});
  }
};

/// An owned, O_DIRECT-compatible byte buffer for one extent read.
using AlignedBuffer = std::unique_ptr<uint8_t[], AlignedDeleter>;

/// Allocates `bytes` of kIoBufferAlignment-aligned storage.
inline AlignedBuffer AllocateIoBuffer(size_t bytes) {
  return AlignedBuffer(static_cast<uint8_t*>(
      ::operator new[](bytes, std::align_val_t{kIoBufferAlignment})));
}

/// Join handle for an in-flight byte movement. kNoToken means there is
/// nothing to wait for; kInPlace means the bytes were never moved: page i
/// of the extent is DiskManager::PageData(first + i), the store's stable
/// image, and `dest` was not written (the sim backend).
using ReadToken = uint64_t;
inline constexpr ReadToken kNoToken = 0;
inline constexpr ReadToken kInPlace = UINT64_MAX;

/// Real-device counters kept by FileIoBackend (all zero for the sim
/// backend). `seeks` counts preads whose file offset was not the byte
/// after the previous pread's end, in submission order — the analogue of
/// the sim disk's successor rule, compared against the virtual seek count
/// in the A10 experiment.
struct RealIoStats {
  uint64_t reads = 0;       ///< pread system calls issued.
  uint64_t pages_read = 0;  ///< Pages transferred.
  uint64_t bytes_read = 0;  ///< Bytes transferred.
  uint64_t seeks = 0;       ///< Non-successor offsets at submission.
  bool direct_io = false;   ///< File is open with O_DIRECT.
};

/// RealIoStats' counters in registry order (common/counters.h); the
/// direct_io flag after them is not a counter.
inline constexpr counters::Field<RealIoStats> kRealIoStatsCounters[] = {
    {"real_io.reads", &RealIoStats::reads},
    {"real_io.pages_read", &RealIoStats::pages_read},
    {"real_io.bytes_read", &RealIoStats::bytes_read},
    {"real_io.seeks", &RealIoStats::seeks},
};
static_assert(counters::Covers(kRealIoStatsCounters,
                               offsetof(RealIoStats, direct_io)));

/// Abstract byte source for the push pipeline. The run's event loop makes
/// every call; Join may block on backend worker threads, and the backend
/// outlives every outstanding token.
class IoBackend {
 public:
  virtual ~IoBackend() = default;

  /// Bytes per page (mirrors the DiskManager the backend charges against).
  virtual uint32_t page_size() const = 0;

  /// Stable identifier for reports ("sim", "file").
  virtual const char* name() const = 0;

  /// Deterministic virtual-time accounting for reading `count` contiguous
  /// pages from `first` at time `now` — cost model, head movement, queueing
  /// and fault injection, identical across backends. On error nothing was
  /// charged (sim::Disk faults fail before any accounting).
  [[nodiscard]] virtual StatusOr<sim::IoResult> Charge(sim::PageId first,
                                                       uint64_t count,
                                                       sim::Micros now) = 0;

  /// Begins moving the extent's bytes into `dest` (count * page_size
  /// bytes, kIoBufferAlignment-aligned) and returns the join handle
  /// through `token` — or sets kInPlace when the extent's pages are the
  /// page store's images, leaving `dest` unwritten for the caller's next
  /// read. An error here (per-page media fault) surfaces after the charge
  /// — the caller keeps the I/O accounting but installs nothing.
  [[nodiscard]] virtual Status StartBytes(sim::PageId first, uint64_t count,
                                          uint8_t* dest, ReadToken* token) = 0;

  /// Blocks until the bytes behind `token` are fully in their destination
  /// buffer and returns the read's status. Each token joins exactly once;
  /// kNoToken, and kInPlace from a backend that answers it, are no-op
  /// successes.
  [[nodiscard]] virtual Status Join(ReadToken token) = 0;

  /// Real-device counters (zeroes for backends that move no real bytes).
  virtual RealIoStats real_stats() const { return RealIoStats{}; }
};

}  // namespace scanshare::io
