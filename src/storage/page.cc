#include "storage/page.h"

namespace scanshare::storage {

bool PageView::IsValid() const { return header()->magic == kMagic; }

sim::PageId PageView::page_id() const { return header()->page_id; }

uint16_t PageView::tuple_count() const { return header()->tuple_count; }

uint32_t PageView::free_space() const {
  const Header* h = header();
  const uint32_t gap = h->free_end - h->free_begin;
  return gap >= sizeof(SlotEntry) ? gap - static_cast<uint32_t>(sizeof(SlotEntry)) : 0;
}

StatusOr<const uint8_t*> PageView::GetTuple(SlotId slot) const {
  if (slot >= header()->tuple_count) {
    return Status::OutOfRange("Page::GetTuple: slot " + std::to_string(slot) +
                              " >= count " + std::to_string(header()->tuple_count));
  }
  return data_ + SlotAt(slot)->offset;
}

StatusOr<uint16_t> PageView::GetTupleLength(SlotId slot) const {
  if (slot >= header()->tuple_count) {
    return Status::OutOfRange("Page::GetTupleLength: slot out of range");
  }
  return SlotAt(slot)->length;
}

Status Page::Init(sim::PageId page_id) {
  if (page_size() < sizeof(Header) + sizeof(SlotEntry) || page_size() > 64 * 1024) {
    return Status::InvalidArgument("Page::Init: page size out of range");
  }
  Header* h = mutable_header();
  h->magic = kMagic;
  h->tuple_count = 0;
  h->free_begin = static_cast<uint16_t>(sizeof(Header));
  h->free_end = page_size();
  h->page_id = page_id;
  return Status::OK();
}

void Page::SetPageId(sim::PageId page_id) { mutable_header()->page_id = page_id; }

StatusOr<Page::SlotId> Page::InsertTuple(const uint8_t* tuple, uint16_t length) {
  if (length == 0) {
    return Status::InvalidArgument("Page::InsertTuple: zero-length tuple");
  }
  Header* h = mutable_header();
  const uint32_t needed = static_cast<uint32_t>(length) + sizeof(SlotEntry);
  if (h->free_end - h->free_begin < needed) {
    return Status::ResourceExhausted("Page::InsertTuple: page full");
  }
  h->free_end -= length;
  std::memcpy(data() + h->free_end, tuple, length);
  const SlotId slot = h->tuple_count;
  SlotEntry* entry = MutableSlotAt(slot);
  entry->offset = static_cast<uint16_t>(h->free_end);
  entry->length = length;
  h->free_begin = static_cast<uint16_t>(h->free_begin + sizeof(SlotEntry));
  ++h->tuple_count;
  return slot;
}

}  // namespace scanshare::storage
