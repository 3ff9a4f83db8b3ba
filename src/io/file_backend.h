// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// FileIoBackend — the real-file IoBackend: extent bytes come from pread(2)
// against a preallocated flat table file instead of the in-memory page
// store. Virtual-time accounting still routes through
// DiskManager::ChargedRead (see io_backend.h: backends differ only in
// where bytes move), so a push-file run reports the same deterministic
// counters as a push-sim run plus the RealIoStats measured here.
//
// Byte movement: StartBytes enqueues a job; a pool of kWorkers threads
// drains the queue with positional reads into the caller's aligned
// buffer; Join blocks on the job's completion.
//
// The file is opened O_DIRECT when the filesystem supports it (tmpfs does
// not — Open falls back to buffered reads and records it in RealIoStats),
// which is why every pipeline buffer is kIoBufferAlignment-aligned.
//
// Wall-clock only: nothing in this file may feed back into virtual time.
// Determinism of the simulation is untouched by real I/O latency; the A10
// bench is the consumer of the real-side numbers.
//
// This file is on the domain lint's thread allowlist (scanshare-threads)
// and is one of the two files allowed to issue raw positional reads
// (scanshare-rawio).

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/status.h"
#include "io/io_backend.h"
#include "storage/disk_manager.h"

namespace scanshare::io {

/// IoBackend over a real file. Thread-safe per the IoBackend contract;
/// Join blocks the calling thread until the worker finished the pread.
class FileIoBackend final : public IoBackend {
 public:
  /// Opens the flat table image at `path` (O_DIRECT first, buffered when
  /// the filesystem refuses), validates it covers every allocated page of
  /// `disk`, and spawns the byte-movement threads. The file must have been
  /// produced by WriteTableFile (or be at least num_pages * page_size
  /// bytes). Borrows `disk` for the backend's lifetime.
  [[nodiscard]] static StatusOr<std::unique_ptr<FileIoBackend>> Open(
      storage::DiskManager* disk, std::string path);

  /// Materializes every allocated page of `disk` into a flat file at
  /// `path` (page id * page_size = byte offset) — the bulk-load step of a
  /// file-backed run. Overwrites an existing file.
  [[nodiscard]] static Status WriteTableFile(const storage::DiskManager& disk,
                                             const std::string& path);

  /// Joins all workers; outstanding tokens must have been joined already.
  ~FileIoBackend() override;

  FileIoBackend(const FileIoBackend&) = delete;
  FileIoBackend& operator=(const FileIoBackend&) = delete;

  uint32_t page_size() const override { return disk_->page_size(); }
  const char* name() const override { return "file"; }

  [[nodiscard]] StatusOr<sim::IoResult> Charge(sim::PageId first,
                                               uint64_t count,
                                               sim::Micros now) override {
    return disk_->ChargedRead(first, count, now);
  }

  [[nodiscard]] Status StartBytes(sim::PageId first, uint64_t count,
                                  uint8_t* dest, ReadToken* token) override
      SCANSHARE_EXCLUDES(mu_);

  [[nodiscard]] Status Join(ReadToken token) override SCANSHARE_EXCLUDES(mu_);

  RealIoStats real_stats() const override SCANSHARE_EXCLUDES(mu_);

 private:
  /// One queued byte movement.
  struct Job {
    ReadToken token = kNoToken;
    uint64_t offset = 0;  ///< Byte offset into the table file.
    size_t length = 0;    ///< Bytes to read.
    uint8_t* dest = nullptr;
  };

  /// pread worker threads.
  static constexpr size_t kWorkers = 2;

  FileIoBackend(storage::DiskManager* disk, std::string path, int fd,
                bool direct);

  /// pread-pool worker: drains queue_, publishes into done_.
  void WorkerLoop();
  /// Full positional read of one job (short-read loop).
  [[nodiscard]] Status ReadJob(const Job& job) const;

  storage::DiskManager* disk_;
  std::string path_;
  int fd_ = -1;

  /// Job-queue lock, a leaf (common/lock_order.h kIoBackend): contended
  /// by the event loop (StartBytes, Join, real_stats) and the kWorkers
  /// pread workers (WorkerLoop).
  mutable Mutex mu_ SCANSHARE_ACQUIRED_AFTER(lock_order::kIoBackend);
  /// _any variants: wait directly on the annotated Mutex (see ThreadPool).
  std::condition_variable_any job_ready_;
  std::condition_variable_any job_done_;
  std::deque<Job> queue_ SCANSHARE_GUARDED_BY(mu_);
  /// Completed tokens -> read status; erased by Join (each token joins
  /// exactly once).
  std::unordered_map<ReadToken, Status> done_ SCANSHARE_GUARDED_BY(mu_);
  ReadToken next_token_ SCANSHARE_GUARDED_BY(mu_) = 1;
  bool stop_ SCANSHARE_GUARDED_BY(mu_) = false;
  /// Real-device counters, maintained at *submission* (StartBytes) so the
  /// seek rule (offset != previous end) is deterministic in issue order
  /// rather than racing on worker scheduling.
  RealIoStats real_ SCANSHARE_GUARDED_BY(mu_);
  uint64_t next_sequential_offset_ SCANSHARE_GUARDED_BY(mu_) = UINT64_MAX;

  std::vector<std::thread> workers_;
};

}  // namespace scanshare::io
