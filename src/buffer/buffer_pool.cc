#include "buffer/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace scanshare::buffer {

BufferPool::BufferPool(storage::DiskManager* disk_manager,
                       std::unique_ptr<ReplacementPolicy> policy,
                       BufferPoolOptions options)
    : disk_(disk_manager),
      policy_(std::move(policy)),
      options_(options) {
  // One contiguous cache-line-aligned arena with a slot per frame, sized
  // once here and left unwritten: only moved bytes (push-file) are copied
  // into it, so a pull or push-sim pool never faults its pages in.
  const size_t slab_bytes = std::max<size_t>(
      size_t{1}, options_.num_frames * size_t{disk_->page_size()});
  slab_.reset(static_cast<uint8_t*>(
      ::operator new[](slab_bytes, std::align_val_t{kSlabAlignment})));
  frames_.resize(options_.num_frames);
  free_list_.reserve(options_.num_frames);
  for (size_t i = 0; i < options_.num_frames; ++i) {
    free_list_.push_back(static_cast<FrameId>(options_.num_frames - 1 - i));
  }
  const uint64_t pages = disk_->num_pages();
  translation_.assign(pages, kInvalidFrame);
  resident_.assign(static_cast<size_t>((pages + 63) / 64), 0);
}

void BufferPool::EnsureCapacity(sim::PageId max_page) {
  if (max_page >= translation_.size()) {
    translation_.resize(max_page + 1, kInvalidFrame);
  }
  const size_t word = static_cast<size_t>(max_page >> 6);
  if (word >= resident_.size()) resident_.resize(word + 1, 0);
}

StatusOr<FrameId> BufferPool::GetVictimFrame(sim::Micros now) {
  if (installing_) {
    // Regression guard: frames for an extent read are acquired before any
    // page of that extent is installed, so an eviction here would reclaim
    // pages the in-flight read just installed.
    return Status::Internal(
        "BufferPool: eviction requested during extent install");
  }
  if (!free_list_.empty()) {
    const FrameId frame = free_list_.back();
    free_list_.pop_back();
    return frame;
  }
  SCANSHARE_ASSIGN_OR_RETURN(FrameId victim, policy_->Evict());
  Frame& f = frames_[victim];
  SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kPoolEvict, now, /*actor=*/0,
                        f.page);
  MapErase(f.page);
  f.page = sim::kInvalidPageId;
  ++stats_.evictions;
  return victim;
}

Status BufferPool::InstallInto(FrameId frame, sim::PageId page,
                               const uint8_t* src, uint32_t initial_pins) {
  const uint8_t* data = nullptr;
  if (src == nullptr) {
    SCANSHARE_ASSIGN_OR_RETURN(data, disk_->PageData(page));
  } else {
    uint8_t* slot = SlabSlot(frame);
    std::memcpy(slot, src, disk_->page_size());
    data = slot;
  }
  Frame& f = frames_[frame];
  f.data = data;
  f.copied = src != nullptr;
  f.page = page;
  f.pin_count = initial_pins;
  MapInsert(page, frame);
  policy_->Pin(frame);  // Marks present+pinned.
  policy_->NotePage(frame, page);  // Predictive policies track identity.
  if (initial_pins == 0) {
    // Prefetched sibling: evictable, but at High priority until the scan
    // that requested the extent consumes and releases it.
    policy_->SetPriority(frame, PagePriority::kHigh);
    policy_->Unpin(frame);
  }
  return Status::OK();
}

StatusOr<FetchResult> BufferPool::FetchPage(sim::PageId page, sim::Micros now,
                                            sim::PageId clip_first,
                                            sim::PageId clip_end) {
  if (page < translation_.size()) {
    const FrameId frame = translation_[page];
    if (frame != kInvalidFrame) {
      if (page < clip_first || page >= clip_end) {
        return Status::InvalidArgument("FetchPage: page outside clip range");
      }
      ++stats_.logical_reads;
      ++stats_.hits;
      SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kPoolHit, now,
                            /*actor=*/0, page);
      Frame& f = frames_[frame];
      ++f.pin_count;
      policy_->Pin(frame);
      policy_->RecordAccess(frame);
      FetchResult result;
      result.data = f.data;
      result.hit = true;
      SCANSHARE_AUDIT_OK(CheckInvariants());
      return result;
    }
  }
  return FetchSlow(page, now, clip_first, clip_end);
}

StatusOr<FetchResult> BufferPool::FetchPage(sim::PageId page, sim::Micros now) {
  return FetchPage(page, now, 0, disk_->num_pages());
}

StatusOr<FetchResult> BufferPool::FetchSlow(sim::PageId page, sim::Micros now,
                                            sim::PageId clip_first,
                                            sim::PageId clip_end) {
  if (page >= disk_->num_pages()) {
    return Status::OutOfRange("FetchPage: page " + std::to_string(page) +
                              " not allocated");
  }
  if (page < clip_first || page >= clip_end) {
    return Status::InvalidArgument("FetchPage: page outside clip range");
  }

  FetchResult result;
  // Miss (FetchPage returned every hit): read the aligned prefetch extent
  // containing `page`, clipped.
  // Frames are secured *before* the disk is touched and the counters are
  // only charged once the read succeeds, so a fetch that fails for lack of
  // frames (or an injected read fault) leaves the statistics and the
  // virtual disk exactly as it found them.
  const uint64_t extent = prefetch_extent_pages();
  sim::PageId first = page - (page % extent);
  sim::PageId end = first + extent;
  first = std::max(first, clip_first);
  end = std::min(end, clip_end);
  EnsureCapacity(end - 1);

  // Frames needed: the residency bitmap answers "already cached?" per
  // extent page without a translation probe.
  uint64_t needed = 0;
  for (sim::PageId p = first; p < end; ++p) {
    if (!IsResident(p)) ++needed;
  }

  // Acquire every victim frame up front, *then* install. Evictions can
  // therefore never reclaim a page this read just installed — a clipped
  // extent at worst installs fewer prefetch siblings when the pool is
  // mostly pinned (tolerated; the demanded page always gets frame 0 of
  // the acquired batch).
  std::vector<FrameId> acquired;
  acquired.reserve(static_cast<size_t>(needed));
  for (uint64_t i = 0; i < needed; ++i) {
    auto frame = GetVictimFrame(now);
    if (!frame.ok()) {
      if (frame.status().code() != Status::Code::kResourceExhausted) {
        ReturnFrames(acquired, 0);
        return frame.status();
      }
      break;  // Pool smaller than the extent or mostly pinned.
    }
    acquired.push_back(*frame);
  }
  if (acquired.empty()) {
    // Nothing was mutated or charged: the free list was empty and the
    // first eviction attempt failed.
    SCANSHARE_AUDIT_OK(CheckInvariants());
    return Status::ResourceExhausted("FetchPage: every frame is pinned");
  }

  // The extent's read: from the pipeline when one is attached — a
  // ready-queue pop when the pump issued it ahead of the scan, the
  // identical charged read inline otherwise — else charged here. Same
  // counters and error contract either way, except that a pipeline surfaces
  // a mid-extent media fault in `bytes` and installs NO pages, where the
  // pull path installs a prefix (statuses are identical — DESIGN.md §15).
  io::ExtentRead ext;
  if (pipeline_ != nullptr) {
    ext = pipeline_->Acquire(first, end - first, now);
  } else {
    StatusOr<sim::IoResult> io = disk_->ChargedRead(first, end - first, now);
    ext.charged = io.ok();
    if (io.ok()) {
      ext.io = *io;
    } else {
      ext.bytes = io.status();
    }
  }
  if (!ext.charged) {
    // The device refused the read (e.g. injected fault) before charging
    // anything. Victims evicted during acquisition stay evicted — that is
    // cache-content loss, which the error-path contract permits — but
    // their frames go back to the free list, and no counter moved.
    ReturnFrames(acquired, 0);
    SCANSHARE_AUDIT_OK(CheckInvariants());
    return ext.bytes;
  }

  // The physical read happened: charge it.
  ++stats_.logical_reads;
  ++stats_.misses;
  ++stats_.io_requests;
  stats_.physical_pages += end - first;
  if (ext.from_queue) ++stats_.prefetch_hits;
  SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kPoolMiss, now, /*actor=*/0,
                        page, end - first);
  if (!ext.bytes.ok()) {
    if (ext.data != nullptr) pipeline_->Recycle(std::move(ext.data));
    ReturnFrames(acquired, 0);
    SCANSHARE_AUDIT_OK(CheckInvariants());
    return ext.bytes;
  }

  // One install loop for every source. A null buffer means each page is
  // the store's image (pull, and push-sim's in-place extents); otherwise
  // the backend moved the bytes into a buffer the pipeline takes back.
  const uint8_t* buffer = ext.data.get();
  const uint32_t page_bytes = disk_->page_size();
  const auto src = [&](sim::PageId p) -> const uint8_t* {
    return buffer == nullptr ? nullptr : buffer + (p - first) * page_bytes;
  };
  installing_ = true;
  size_t next = 0;
  Status st = InstallInto(acquired[next], page, src(page), 1);
  if (st.ok()) {
    ++next;
    for (sim::PageId p = first; p < end && next < acquired.size(); ++p) {
      if (p == page || IsResident(p)) continue;
      st = InstallInto(acquired[next], p, src(p), 0);
      if (!st.ok()) break;
      ++next;
    }
  }
  installing_ = false;
  // The pages are copied out: the buffer goes back for the next read.
  if (ext.data != nullptr) pipeline_->Recycle(std::move(ext.data));
  if (!st.ok()) {
    // A page image failed mid-extent. Pages already installed stay cached
    // (they are valid), but the fetch as a whole failed, so the demanded
    // page must not stay pinned — the caller never got a success to unpin
    // — and every unused frame goes back to the free list.
    if (next > 0) {
      frames_[acquired[0]].pin_count = 0;
      policy_->Unpin(acquired[0]);
    }
    ReturnFrames(acquired, next);
    SCANSHARE_AUDIT_OK(CheckInvariants());
    return st;
  }
  // Frames acquired but not used (extent page evicted mid-acquisition by a
  // sibling eviction) go back to the free list.
  ReturnFrames(acquired, next);

  // A prefetched read may have completed in the (virtual) past; the
  // demanding scan stalls only for the remainder, never negatively
  // (ChunkProcessor subtracts the issue time from complete_micros). A read
  // charged at `now` already starts and completes no earlier.
  result.data = frames_[acquired[0]].data;
  result.hit = false;
  result.io = ext.io;
  result.io.complete_micros = std::max(result.io.complete_micros, now);
  result.io.start_micros =
      std::min(result.io.start_micros, result.io.complete_micros);
  SCANSHARE_AUDIT_OK(CheckInvariants());
  return result;
}

void BufferPool::ReturnFrames(const std::vector<FrameId>& acquired,
                              size_t from) {
  for (size_t i = from; i < acquired.size(); ++i) {
    free_list_.push_back(acquired[i]);
  }
}

Status BufferPool::CheckInvariants() const {
  // --- Frame table vs free list: exact partition, no duplicates. ---
  std::vector<uint8_t> on_free(frames_.size(), 0);
  for (FrameId f : free_list_) {
    if (f >= frames_.size()) {
      return Status::Internal("audit: free-list frame " + std::to_string(f) +
                              " out of range");
    }
    if (on_free[f]) {
      return Status::Internal("audit: frame " + std::to_string(f) +
                              " on free list twice");
    }
    on_free[f] = 1;
  }

  size_t occupied = 0;
  size_t unpinned_occupied = 0;
  for (FrameId i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (f.page == sim::kInvalidPageId) {
      if (!on_free[i]) {
        return Status::Internal("audit: frame " + std::to_string(i) +
                                " holds no page but is not on the free list "
                                "(frame leak)");
      }
      if (policy_->IsTracked(i)) {
        return Status::Internal("audit: free frame " + std::to_string(i) +
                                " still tracked by the replacer");
      }
      continue;
    }
    if (on_free[i]) {
      return Status::Internal("audit: occupied frame " + std::to_string(i) +
                              " is on the free list");
    }
    ++occupied;
    // --- Occupied frame ↔ translation ↔ residency bitmap. ---
    if (LookupFrame(f.page) != i) {
      return Status::Internal("audit: page " + std::to_string(f.page) +
                              " in frame " + std::to_string(i) +
                              " does not map back to it");
    }
    if (!IsResident(f.page)) {
      return Status::Internal("audit: cached page " + std::to_string(f.page) +
                              " has its residency bit clear");
    }
    // --- Payload: a frame that copied moved bytes points at its slab
    // slot, every other frame at its page's store image — never at a
    // freed pipeline buffer. ---
    if (f.copied ? f.data != SlabSlot(i)
                 : !disk_->IsPageImage(f.page, f.data)) {
      return Status::Internal(
          "audit: frame " + std::to_string(i) + " (page " +
          std::to_string(f.page) + ") " +
          (f.copied ? "copied moved bytes but does not point at its slab slot"
                    : "was installed in place but does not point at the "
                      "page's image"));
    }
    // --- Occupied frame ↔ replacer, pin-count sanity. ---
    if (!policy_->IsTracked(i)) {
      return Status::Internal("audit: occupied frame " + std::to_string(i) +
                              " unknown to the replacer");
    }
    const bool evictable = policy_->IsEvictable(i);
    if (f.pin_count == 0) {
      ++unpinned_occupied;
      if (!evictable) {
        return Status::Internal("audit: unpinned frame " + std::to_string(i) +
                                " not evictable");
      }
    } else if (evictable) {
      return Status::Internal("audit: pinned frame " + std::to_string(i) +
                              " (pin_count " + std::to_string(f.pin_count) +
                              ") is evictable");
    }
  }
  if (occupied + free_list_.size() != frames_.size()) {
    return Status::Internal(
        "audit: frame accounting broken: " + std::to_string(occupied) +
        " occupied + " + std::to_string(free_list_.size()) + " free != " +
        std::to_string(frames_.size()) + " frames (frame leak)");
  }

  // --- Translation array ↔ frames, entry by entry. ---
  size_t mapped = 0;
  for (sim::PageId p = 0; p < translation_.size(); ++p) {
    const FrameId f = translation_[p];
    if (f == kInvalidFrame) {
      if (IsResident(p)) {
        return Status::Internal("audit: residency bit set for unmapped page " +
                                std::to_string(p));
      }
      continue;
    }
    ++mapped;
    if (f >= frames_.size() || frames_[f].page != p) {
      return Status::Internal("audit: stale translation entry for page " +
                              std::to_string(p));
    }
  }
  if (mapped != occupied) {
    return Status::Internal("audit: " + std::to_string(mapped) +
                            " translation entries vs " +
                            std::to_string(occupied) + " occupied frames");
  }
  size_t resident_bits = 0;
  for (uint64_t word : resident_) resident_bits += std::popcount(word);
  if (resident_bits != mapped) {
    return Status::Internal("audit: residency bitmap has " +
                            std::to_string(resident_bits) +
                            " bits set but the translation maps " +
                            std::to_string(mapped) + " pages");
  }

  // --- Replacer aggregate agrees with pin counts. ---
  if (policy_->EvictableCount() != unpinned_occupied) {
    return Status::Internal(
        "audit: replacer reports " +
        std::to_string(policy_->EvictableCount()) + " evictable frames, pool " +
        "has " + std::to_string(unpinned_occupied) + " unpinned occupied");
  }
  return Status::OK();
}

Status BufferPool::UnpinPage(sim::PageId page, PagePriority priority) {
  const FrameId frame = LookupFrame(page);
  if (frame == kInvalidFrame) {
    return Status::NotFound("UnpinPage: page " + std::to_string(page) +
                            " not resident");
  }
  Frame& f = frames_[frame];
  if (f.pin_count == 0) {
    return Status::FailedPrecondition("UnpinPage: page not pinned");
  }
  --f.pin_count;
  policy_->SetPriority(frame, priority);
  if (f.pin_count == 0) {
    policy_->Unpin(frame);
  }
  SCANSHARE_AUDIT_OK(CheckInvariants());
  return Status::OK();
}

StatusOr<uint32_t> BufferPool::PinCount(sim::PageId page) const {
  const FrameId frame = LookupFrame(page);
  if (frame == kInvalidFrame) {
    return Status::NotFound("PinCount: page not resident");
  }
  return frames_[frame].pin_count;
}

Status BufferPool::FlushAll() {
  for (const Frame& f : frames_) {
    if (f.page != sim::kInvalidPageId && f.pin_count > 0) {
      return Status::FailedPrecondition("FlushAll: page " +
                                        std::to_string(f.page) +
                                        " still pinned");
    }
  }
  for (FrameId i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (f.page == sim::kInvalidPageId) continue;
    policy_->Remove(i);
    MapErase(f.page);
    f.page = sim::kInvalidPageId;
    free_list_.push_back(i);
  }
  SCANSHARE_AUDIT_OK(CheckInvariants());
  return Status::OK();
}

}  // namespace scanshare::buffer
