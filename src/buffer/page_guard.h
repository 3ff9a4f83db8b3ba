// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// RAII pin guard. Scan operators set the release priority before the guard
// goes out of scope (paper: "release page with priority p").

#pragma once

#include "buffer/buffer_pool.h"

namespace scanshare::buffer {

/// Holds a pin on one buffered page; unpins on destruction with the
/// priority configured via set_release_priority (default kNormal).
///
/// [[nodiscard]]: discarding a returned guard would drop the pin on the
/// spot with the default priority — always a bug in scan code, which must
/// hold the guard for the lifetime of the tuple pointers it hands out.
class [[nodiscard]] PageGuard {
 public:
  /// Empty guard.
  PageGuard() = default;

  /// Adopts a pin on `page` in `pool` (the pin must already be held, e.g.
  /// from BufferPool::FetchPage).
  PageGuard(BufferPool* pool, sim::PageId page, const uint8_t* data)
      : pool_(pool), page_(page), data_(data) {}

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      page_ = other.page_;
      data_ = other.data_;
      priority_ = other.priority_;
      other.pool_ = nullptr;
      other.data_ = nullptr;
    }
    return *this;
  }

  ~PageGuard() { Release(); }

  /// Sets the priority used when the pin is dropped.
  void set_release_priority(PagePriority priority) { priority_ = priority; }

  /// Drops the pin now (idempotent).
  void Release() {
    if (pool_ != nullptr) {
      (void)pool_->UnpinPage(page_, priority_);
      pool_ = nullptr;
      data_ = nullptr;
    }
  }

  /// Frame contents; valid while the guard holds the pin.
  const uint8_t* data() const { return data_; }
  /// The guarded page id.
  sim::PageId page_id() const { return page_; }
  /// True if this guard holds a pin.
  bool holds() const { return pool_ != nullptr; }

 private:
  BufferPool* pool_ = nullptr;
  sim::PageId page_ = sim::kInvalidPageId;
  const uint8_t* data_ = nullptr;
  PagePriority priority_ = PagePriority::kNormal;
};

}  // namespace scanshare::buffer
