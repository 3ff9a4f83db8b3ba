// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Binary min-heap of (ready_time, stream_index) events for the discrete-
// event executor. Replaces the O(n) linear scan over all streams per step
// with O(log n) pop/push, which is what lets staggered 5-stream runs and
// 100-stream soak runs schedule at the same per-step cost.
//
// Ordering contract (must match the linear scan it replaced exactly):
// the earliest ready time wins, and ties break toward the LOWEST job
// index. Every job has at most one event in the heap at a time — the
// executor pops a job, advances it, and pushes it back with its new ready
// time (or drops it when finished).
//
// The executor's two tie rules, pinned by the trace goldens:
//   - A stream's query open is its own event keyed (time, stream index):
//     of streams starting at t, stream 1 opens after stream 0's first step.
//   - A service arrival at t beats every event at t, and a job it admits
//     opens at once, with its first step due at t.

#pragma once

#include <cstddef>
#include <vector>

#include "sim/virtual_clock.h"

namespace scanshare::exec {

/// Min-heap keyed on (time, index), lowest index first among ties.
class EventHeap {
 public:
  struct Event {
    sim::Micros time = 0;
    size_t index = 0;
  };

  /// Pre-sizes the backing store for `n` streams.
  void Reserve(size_t n) { events_.reserve(n); }

  /// Inserts an event. O(log n).
  void Push(sim::Micros time, size_t index) {
    events_.push_back(Event{time, index});
    SiftUp(events_.size() - 1);
  }

  /// Removes and returns the minimum event. O(log n). Undefined on an
  /// empty heap (the executor's loop guards on empty()).
  Event Pop() {
    const Event top = events_.front();
    events_.front() = events_.back();
    events_.pop_back();
    if (!events_.empty()) SiftDown(0);
    return top;
  }

  /// The minimum event without removing it.
  const Event& Peek() const { return events_.front(); }

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }

 private:
  static bool Less(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.index < b.index;
  }

  void SiftUp(size_t i) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Less(events_[i], events_[parent])) break;
      std::swap(events_[i], events_[parent]);
      i = parent;
    }
  }

  void SiftDown(size_t i) {
    const size_t n = events_.size();
    for (;;) {
      const size_t left = 2 * i + 1;
      const size_t right = left + 1;
      size_t smallest = i;
      if (left < n && Less(events_[left], events_[smallest])) smallest = left;
      if (right < n && Less(events_[right], events_[smallest])) smallest = right;
      if (smallest == i) return;
      std::swap(events_[i], events_[smallest]);
      i = smallest;
    }
  }

  std::vector<Event> events_;
};

}  // namespace scanshare::exec
