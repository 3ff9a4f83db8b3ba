#include "storage/disk_manager.h"

#include <algorithm>
#include <string>
#include <utility>

namespace scanshare::storage {

DiskManager::DiskManager(sim::Env* env, uint32_t page_size)
    : env_(env), page_size_(page_size) {}

StatusOr<sim::PageId> DiskManager::AllocateContiguous(uint64_t count) {
  if (count == 0) {
    return Status::InvalidArgument("AllocateContiguous: count must be positive");
  }
  std::vector<PageArena> arena(1);
  SCANSHARE_ASSIGN_OR_RETURN(arena[0], PageArena::Map(count * page_size_));
  return Adopt(std::move(arena), count);
}

StatusOr<sim::PageId> DiskManager::Adopt(std::vector<PageArena> arenas,
                                         uint64_t count) {
  uint64_t capacity = 0;
  for (const PageArena& arena : arenas) capacity += arena.size() / page_size_;
  if (count == 0 || capacity < count) {
    return Status::InvalidArgument("Adopt: arenas holding " +
                                   std::to_string(capacity) +
                                   " pages cannot supply " +
                                   std::to_string(count));
  }
  const sim::PageId first = images_.size();
  for (PageArena& arena : arenas) {
    const uint64_t pages = std::min<uint64_t>(arena.size() / page_size_,
                                              first + count - images_.size());
    for (uint64_t i = 0; i < pages; ++i) {
      images_.push_back(arena.data() + i * page_size_);
    }
    arenas_.push_back(std::move(arena));
  }
  return first;
}

StatusOr<uint8_t*> DiskManager::MutablePageData(sim::PageId page) {
  if (page >= images_.size()) {
    return Status::OutOfRange("MutablePageData: page " + std::to_string(page) +
                              " not allocated");
  }
  return images_[page];
}

StatusOr<const uint8_t*> DiskManager::PageData(sim::PageId page) const {
  if (page >= images_.size()) {
    return Status::OutOfRange("PageData: page " + std::to_string(page) +
                              " not allocated");
  }
  if (page >= fault_first_ && page < fault_end_) {
    ++faults_injected_;
    return Status::Corruption("PageData: injected media fault on page " +
                              std::to_string(page));
  }
  return static_cast<const uint8_t*>(images_[page]);
}

StatusOr<sim::IoResult> DiskManager::ChargedRead(sim::PageId first, uint64_t count,
                                                 sim::Micros now) {
  if (count == 0) {
    return Status::InvalidArgument("ChargedRead: count must be positive");
  }
  if (first + count > images_.size()) {
    return Status::OutOfRange("ChargedRead: range [" + std::to_string(first) + ", " +
                              std::to_string(first + count) + ") not allocated");
  }
  return env_->disk().Read(first, count, now);
}

}  // namespace scanshare::storage
