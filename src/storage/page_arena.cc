#include "storage/page_arena.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

namespace scanshare::storage {

StatusOr<PageArena> PageArena::Map(size_t bytes) {
  if (bytes == 0) {
    return Status::InvalidArgument("PageArena: size must be positive");
  }
  void* region = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (region == MAP_FAILED) {
    return Status::ResourceExhausted("PageArena: cannot map " +
                                     std::to_string(bytes) + " bytes: " +
                                     std::strerror(errno));
  }
  return PageArena(static_cast<uint8_t*>(region), bytes);
}

PageArena::PageArena(PageArena&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

PageArena& PageArena::operator=(PageArena&& other) noexcept {
  if (this != &other) {
    PageArena old(std::move(*this));
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

PageArena::~PageArena() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

}  // namespace scanshare::storage
