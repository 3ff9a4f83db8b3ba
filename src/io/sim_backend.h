// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// SimIoBackend — the deterministic IoBackend over the in-memory
// DiskManager page store. It moves no bytes: StartBytes checks each page
// through PageData() and answers kInPlace, so the pool's frames alias the
// same immutable images the pull path installs. The push pipeline on this
// backend therefore sees exactly the data, the virtual-time charges, and
// the injected faults (sim::DiskFaultOptions before the charge,
// SetPageDataFaultRange after it) that the pull path sees.

#pragma once

#include "common/status.h"
#include "io/io_backend.h"
#include "storage/disk_manager.h"

namespace scanshare::io {

/// IoBackend over the simulated page store. Default for every run; the
/// only backend the trace goldens and bit-identity gates ever execute.
class SimIoBackend final : public IoBackend {
 public:
  /// Borrows `disk` for the backend's lifetime.
  explicit SimIoBackend(storage::DiskManager* disk) : disk_(disk) {}

  uint32_t page_size() const override { return disk_->page_size(); }
  const char* name() const override { return "sim"; }

  [[nodiscard]] StatusOr<sim::IoResult> Charge(sim::PageId first,
                                               uint64_t count,
                                               sim::Micros now) override {
    return disk_->ChargedRead(first, count, now);
  }

  /// Answers kInPlace and never writes `dest`; fails on the first page in
  /// a media-fault range.
  [[nodiscard]] Status StartBytes(sim::PageId first, uint64_t count,
                                  uint8_t* dest, ReadToken* token) override;

  [[nodiscard]] Status Join(ReadToken token) override {
    (void)token;  // Always kInPlace: there is nothing in flight.
    return Status::OK();
  }

 private:
  storage::DiskManager* disk_;
};

}  // namespace scanshare::io
