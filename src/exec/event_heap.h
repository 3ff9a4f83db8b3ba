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

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/virtual_clock.h"

namespace scanshare::exec {

/// Min-heap keyed on (time, index), lowest index first among ties, on the
/// standard heap algorithms.
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
    std::push_heap(events_.begin(), events_.end(), Later);
  }

  /// Removes and returns the minimum event. O(log n). Undefined on an
  /// empty heap (the executor's loop guards on empty()).
  Event Pop() {
    std::pop_heap(events_.begin(), events_.end(), Later);
    const Event top = events_.back();
    events_.pop_back();
    return top;
  }

  /// The minimum event without removing it.
  const Event& Peek() const { return events_.front(); }

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }

 private:
  /// The heap algorithms keep the greatest element on top, so ordering by
  /// "later" puts the earliest (time, index) there. Keys are unique within
  /// a heap, so the pop order is the key order whatever the layout.
  static bool Later(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.index > b.index;
  }

  std::vector<Event> events_;
};

}  // namespace scanshare::exec
