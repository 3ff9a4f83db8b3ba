// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Slotted heap page. Tuples grow down from the end of the page; the slot
// directory grows up after the header. This is the classic layout (supports
// variable-length tuples even though the bundled workloads are fixed-width).
//
//   +--------+-----------------+ .... +---------+---------+
//   | header | slot0 slot1 ... | free | tuple1  | tuple0  |
//   +--------+-----------------+ .... +---------+---------+

#pragma once

#include <cstdint>
#include <cstring>

#include "common/status.h"
#include "sim/disk.h"

namespace scanshare::storage {

/// Default page size: 32 KiB, the configuration used in the paper.
inline constexpr uint32_t kDefaultPageSize = 32 * 1024;

/// A read-only view over one page-sized buffer: the slotted-page read
/// accessors.
///
/// PageView does not own memory. Buffer-pool frames alias the disk
/// manager's immutable page images (DESIGN.md §10.3), so every reader
/// above the bulk loader sees pages through this type and cannot write
/// them. All offsets are 16-bit, so the page size must be <= 64 KiB.
class PageView {
 public:
  /// Slot index within a page.
  using SlotId = uint16_t;

  /// Wraps `data` (exactly `page_size` bytes).
  PageView(const uint8_t* data, uint32_t page_size)
      : data_(data), page_size_(page_size) {}

  /// Checks the magic number — detects reads of unformatted pages.
  bool IsValid() const;

  /// The disk page id recorded at Init time.
  sim::PageId page_id() const;

  /// Number of tuples stored.
  uint16_t tuple_count() const;

  /// Free bytes remaining for one more insert (tuple bytes + slot entry).
  uint32_t free_space() const;

  /// Returns a pointer to the tuple in slot `slot`, or OutOfRange.
  /// The pointer stays valid as long as the underlying buffer does.
  StatusOr<const uint8_t*> GetTuple(SlotId slot) const;

  /// Length of the tuple in slot `slot`, or OutOfRange.
  StatusOr<uint16_t> GetTupleLength(SlotId slot) const;

  /// Raw access for the hot scan path: no bounds check beyond asserts.
  const uint8_t* TupleDataUnchecked(SlotId slot) const {
    const SlotEntry* s = SlotAt(slot);
    return data_ + s->offset;
  }

  /// Underlying buffer (page_size bytes).
  const uint8_t* data() const { return data_; }
  /// Size of the underlying buffer in bytes.
  uint32_t page_size() const { return page_size_; }

 protected:
  struct Header {
    uint32_t magic;       // kMagic when formatted.
    uint16_t tuple_count; // Number of slots in use.
    uint16_t free_begin;  // First free byte (end of slot directory).
    uint32_t free_end;    // One past the last free byte (start of tuple data).
    uint64_t page_id;     // Owning disk page.
  };
  struct SlotEntry {
    uint16_t offset;  // Tuple start within the page.
    uint16_t length;  // Tuple length in bytes.
  };

  static constexpr uint32_t kMagic = 0x5343414eu;  // "SCAN"

  const Header* header() const { return reinterpret_cast<const Header*>(data_); }
  const SlotEntry* SlotAt(SlotId slot) const {
    return reinterpret_cast<const SlotEntry*>(data_ + sizeof(Header)) + slot;
  }

 private:
  const uint8_t* data_;
  uint32_t page_size_;
};

/// A writable view: PageView's accessors plus the operations that format
/// and fill a page. Only the bulk loader and tests hold one; it wraps a
/// staging buffer or a page image before any pool reads it.
class Page : public PageView {
 public:
  /// Wraps `data` (exactly `page_size` bytes). Does not modify the buffer.
  Page(uint8_t* data, uint32_t page_size)
      : PageView(data, page_size), writable_(data) {}

  /// Formats the buffer as an empty page owned by `page_id`.
  /// Returns InvalidArgument if the page size is out of range.
  Status Init(sim::PageId page_id);

  /// Rewrites the owning page id (used by the bulk loader when a staged
  /// page image is assigned its physical location).
  void SetPageId(sim::PageId page_id);

  /// Appends a tuple; returns its slot, or ResourceExhausted if it does not
  /// fit, or InvalidArgument for zero-length tuples.
  StatusOr<SlotId> InsertTuple(const uint8_t* tuple, uint16_t length);

  /// Underlying buffer (page_size bytes).
  using PageView::data;
  uint8_t* data() { return writable_; }

 private:
  Header* mutable_header() { return reinterpret_cast<Header*>(writable_); }
  SlotEntry* MutableSlotAt(SlotId slot) {
    return reinterpret_cast<SlotEntry*>(writable_ + sizeof(Header)) + slot;
  }

  uint8_t* writable_;  // The view's buffer, writable.
};

}  // namespace scanshare::storage
