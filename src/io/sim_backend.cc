#include "io/sim_backend.h"

namespace scanshare::io {

Status SimIoBackend::StartBytes(sim::PageId first, uint64_t count,
                                uint8_t* dest, ReadToken* token) {
  (void)dest;  // The store's images are the extent's bytes.
  *token = kInPlace;
  for (uint64_t i = 0; i < count; ++i) {
    // PageData is the media-fault injection point (DiskManager::
    // SetPageDataFaultRange): a fault mid-extent fails the read after the
    // charge, mirroring where the pull install would fail.
    StatusOr<const uint8_t*> image = disk_->PageData(first + i);
    if (!image.ok()) return image.status();
  }
  return Status::OK();
}

}  // namespace scanshare::io
