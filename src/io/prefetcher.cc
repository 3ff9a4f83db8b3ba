#include "io/prefetcher.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace scanshare::io {

Prefetcher::Prefetcher(IoBackend* backend, ssm::ScanSharingManager* ssm,
                       const ResidencyProbe* residency, uint64_t extent_pages,
                       PrefetchOptions options)
    : backend_(backend),
      ssm_(ssm),
      residency_(residency),
      extent_pages_(std::max<uint64_t>(1, extent_pages)),
      options_(options) {}

Prefetcher::~Prefetcher() {
  for (auto& [first, entry] : ready_) {
    (void)first;
    // Outstanding byte movements write into entry.data; join before the
    // buffer dies. The read's status no longer matters to anyone.
    (void)backend_->Join(entry.token);
  }
  ready_.clear();
}

std::vector<Prefetcher::WindowExtent> Prefetcher::WindowFor(
    const ssm::GroupFrontier& f) const {
  std::vector<WindowExtent> window;
  if (f.table_end <= f.table_first) return window;
  sim::PageId p = f.leader_position;
  if (p < f.table_first || p >= f.table_end) p = f.table_first;
  for (uint64_t k = 0; k < options_.depth; ++k) {
    const sim::PageId aligned = p - (p % extent_pages_);
    WindowExtent e;
    e.first = std::max(aligned, f.table_first);
    e.count = std::min(aligned + extent_pages_, f.table_end) - e.first;
    e.table_id = f.table_id;
    e.leader = f.leader;
    bool duplicate = false;
    for (const WindowExtent& seen : window) {
      if (seen.first == e.first) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) break;  // The window wrapped all the way round.
    window.push_back(e);
    p = aligned + extent_pages_;
    if (p >= f.table_end) p = f.table_first;  // Scan-circle wrap.
  }
  return window;
}

void Prefetcher::Pump(sim::Micros now) {
  if (ssm_ == nullptr) return;
  const std::vector<ssm::GroupFrontier> frontiers = ssm_->GroupFrontiers();

  // Phase 1: window geometry.
  std::vector<std::vector<WindowExtent>> windows;
  windows.reserve(frontiers.size());
  std::unordered_set<sim::PageId> live;
  for (const ssm::GroupFrontier& f : frontiers) {
    windows.push_back(WindowFor(f));
    for (const WindowExtent& e : windows.back()) live.insert(e.first);
  }

  // Phase 2: drop ready extents no window wants anymore (regroup, wrap, or
  // a leader that skipped past a fully-cached extent).
  for (auto it = ready_.begin(); it != ready_.end();) {
    if (live.count(it->first) != 0) {
      ++it;
      continue;
    }
    (void)backend_->Join(it->second.token);
    if (it->second.data != nullptr) {
      spares_.push_back(std::move(it->second.data));
    }
    ++stats_.dropped_stale;
    SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kIoPrefetchDrop, now,
                          it->second.table_id, it->first, it->second.count);
    it = ready_.erase(it);
  }

  // Phase 3: pick what to issue. Per-window budget counts both extents
  // already ready and ones picked this pump.
  const uint64_t bound =
      options_.queue_bound == 0 ? options_.depth : options_.queue_bound;
  // Refill hysteresis: a window is topped up only once it has drained to
  // the low-water mark, and then filled completely. Without this the
  // window slides one extent per executor step and every pump issues
  // exactly one extent per group — submissions from different groups
  // alternate in the FCFS disk queue and nearly every extent costs a
  // seek. Letting the window drain and refilling it in one burst puts a
  // *run* of sequential extents into the queue, so the arm stays put for
  // the run before moving to the other group's table (the seek
  // amortization that is the pipeline's makespan win — DESIGN.md §15).
  const uint64_t low_water = bound / 4;
  std::vector<WindowExtent> to_issue;
  std::unordered_set<sim::PageId> issuing;
  uint64_t queue_full_hits = 0;
  uint64_t reissue_suppressed = 0;
  for (const std::vector<WindowExtent>& window : windows) {
    uint64_t ready_now = 0;
    for (const WindowExtent& e : window) {
      if (ready_.count(e.first) != 0) ++ready_now;
    }
    if (ready_now > low_water) continue;  // Still draining; no refill yet.
    uint64_t budget_used = 0;
    for (const WindowExtent& e : window) {
      if (consumed_keys_.count(e.first) != 0) {
        // The group already read this extent; the frontier just has not
        // caught up yet (positions are reported at chunk start). Costs no
        // budget — the window's useful part is further ahead.
        ++reissue_suppressed;
        continue;
      }
      if (ready_.count(e.first) != 0 || issuing.count(e.first) != 0) {
        ++budget_used;  // Overlapping groups share ready extents.
        continue;
      }
      if (budget_used >= bound) {
        // A throttled trailer keeps the leader's window from draining;
        // refusing to issue past the bound is what bounds pipeline memory.
        ++queue_full_hits;
        SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kIoQueueFull, now,
                              e.table_id, e.leader, e.first);
        break;
      }
      if (residency_ != nullptr) {
        bool all_cached = true;
        for (uint64_t i = 0; i < e.count && all_cached; ++i) {
          all_cached = residency_->IsPageCached(e.first + i);
        }
        if (all_cached) continue;  // Nothing to read; costs no budget.
      }
      to_issue.push_back(e);
      issuing.insert(e.first);
      ++budget_used;
    }
  }

  // Phase 4: charge + start byte movement, in deterministic frontier
  // order.
  for (const WindowExtent& e : to_issue) {
    ReadyExtent entry;
    entry.count = e.count;
    entry.table_id = e.table_id;
    ++stats_.submitted;
    SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kIoSubmit, now, e.table_id,
                          e.first, e.count);
    StatusOr<sim::IoResult> charge = backend_->Charge(e.first, e.count, now);
    if (!charge.ok()) {
      // Nothing was charged (sim faults fail before accounting): park the
      // error so the demanding scan surfaces it exactly where the pull
      // path would have.
      entry.bytes = charge.status();
    } else {
      entry.charged = true;
      entry.io = charge.value();
      entry.bytes = StartRead(e.first, e.count, &entry.data, &entry.token);
      // Emitted now with the completion's (possibly future) timestamp —
      // same pattern as throttle releases.
      SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kIoComplete,
                            entry.io.complete_micros, e.table_id, e.first,
                            e.count);
    }
    ready_.emplace(e.first, std::move(entry));
  }
  stats_.queue_full += queue_full_hits;
  stats_.reissue_suppressed += reissue_suppressed;
}

void Prefetcher::RecordConsumed(sim::PageId first) {
  if (consumed_keys_.insert(first).second) {
    consumed_fifo_.push_back(first);
    while (consumed_fifo_.size() > ConsumedHistoryCap()) {
      consumed_keys_.erase(consumed_fifo_.front());
      consumed_fifo_.pop_front();
    }
  }
}

ExtentRead Prefetcher::Acquire(sim::PageId first, uint64_t count,
                               sim::Micros now) {
  RecordConsumed(first);
  auto it = ready_.find(first);
  if (it != ready_.end() && it->second.count == count) {
    ReadyExtent entry = std::move(it->second);
    ready_.erase(it);
    ExtentRead out;
    out.first = first;
    out.count = count;
    out.io = entry.io;
    out.charged = entry.charged;
    out.from_queue = true;
    out.data = std::move(entry.data);
    const Status join = backend_->Join(entry.token);
    out.bytes = entry.bytes.ok() ? join : entry.bytes;
    ++stats_.prefetch_hits;
    SCANSHARE_TRACE_EVENT(tracer_, obs::EventKind::kIoPrefetchHit, now,
                          entry.table_id, first, count);
    return out;
  }
  // Sync fallback: the same charged read the pull path would have done —
  // still through the backend, so push-file demand misses read real bytes.
  ++stats_.sync_reads;
  ExtentRead out;
  out.first = first;
  out.count = count;
  StatusOr<sim::IoResult> charge = backend_->Charge(first, count, now);
  if (!charge.ok()) {
    out.bytes = charge.status();
    return out;
  }
  out.charged = true;
  out.io = charge.value();
  ReadToken token = kNoToken;
  Status bytes = StartRead(first, count, &out.data, &token);
  if (bytes.ok()) bytes = backend_->Join(token);
  out.bytes = bytes;
  return out;
}

Status Prefetcher::StartRead(sim::PageId first, uint64_t count,
                             AlignedBuffer* data, ReadToken* token) {
  AlignedBuffer buffer;
  if (count <= extent_pages_ && !spares_.empty()) {
    buffer = std::move(spares_.back());
    spares_.pop_back();
  } else {
    buffer = AllocateIoBuffer(std::max(count, extent_pages_) *
                              backend_->page_size());
    ++buffers_allocated_;
  }
  Status bytes = backend_->StartBytes(first, count, buffer.get(), token);
  if (bytes.ok() && *token != kInPlace) {
    *data = std::move(buffer);
  } else {
    spares_.push_back(std::move(buffer));
  }
  return bytes;
}

}  // namespace scanshare::io
