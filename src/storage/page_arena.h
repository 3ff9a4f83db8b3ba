// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// PageArena: one private anonymous mapping holding a run of page images.
// The kernel hands out its pages zero-filled on first touch, so bytes no
// one writes cost no memory: an MDC padding page costs only the OS page
// its header sits on. The bulk loader formats a table straight into its
// arenas, and the DiskManager adopts them (DESIGN.md §10.3).

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace scanshare::storage {

/// Owns one `mmap(MAP_PRIVATE | MAP_ANONYMOUS)` region; move-only, and
/// unmapped on destruction. Never pre-faulted and never advised onto huge
/// pages, so untouched pages stay non-resident. A region never moves, so
/// pointers into it stay valid for the arena's lifetime.
class PageArena {
 public:
  /// An arena with no mapping.
  PageArena() = default;

  /// Maps `bytes` of zero-filled memory. InvalidArgument for zero,
  /// ResourceExhausted if the kernel refuses.
  [[nodiscard]] static StatusOr<PageArena> Map(size_t bytes);

  PageArena(PageArena&& other) noexcept;
  PageArena& operator=(PageArena&& other) noexcept;
  PageArena(const PageArena&) = delete;
  PageArena& operator=(const PageArena&) = delete;
  ~PageArena();

  /// First byte of the mapping (null when empty).
  uint8_t* data() const { return data_; }
  /// Mapped bytes.
  size_t size() const { return size_; }

 private:
  PageArena(uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace scanshare::storage
