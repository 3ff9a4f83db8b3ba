#include "ssm/group_builder.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

namespace scanshare::ssm {

namespace {

/// True if every gap in `gaps` can be taken: at most `room` of them, with a
/// sum within `budget`.
bool FitsWhole(const std::vector<std::pair<uint64_t, size_t>>& gaps,
               uint64_t budget, size_t room) {
  if (gaps.size() > room) return false;
  uint64_t sum = 0;
  for (const auto& [gap, e] : gaps) {
    if (gap > budget - sum) return false;
    sum += gap;
  }
  return true;
}

}  // namespace

std::vector<ScanGroup> MergeAdjacentScans(const std::vector<ScanPoint>& points,
                                          const std::vector<GroupEdge>& edges,
                                          uint64_t budget) {
  std::vector<ScanGroup> groups;
  const size_t n = points.size();
  if (n == 0) return groups;

  // taken[i]: the edge out of point i joined it to its successor;
  // out_gap[i] is that edge's gap.
  std::vector<uint8_t> taken(n, 0);
  std::vector<uint64_t> out_gap(n, 0);
  const size_t cap = n - 1;
  size_t count = 0;
  uint64_t extent_sum = 0;
  const auto take = [&](const GroupEdge& edge) {
    taken[edge.from] = 1;
    out_gap[edge.from] = edge.gap;
    extent_sum += edge.gap;
    ++count;
  };

  // Zero gaps come first in (gap, list order) and cost nothing, so they
  // are taken in list order. Positive gaps wider than the budget can never
  // be taken; the rest are ranked by (gap, list position).
  std::vector<std::pair<uint64_t, size_t>> positive;
  for (size_t e = 0; e < edges.size(); ++e) {
    const GroupEdge& edge = edges[e];
    if (edge.gap == 0) {
      if (count == cap) break;
      take(edge);
    } else if (edge.gap <= budget) {
      positive.emplace_back(edge.gap, e);
    }
  }
  if (count < cap && FitsWhole(positive, budget, cap - count)) {
    // All of them are taken, so their order does not matter. Dense scans
    // hit this (in bench_a11_service's regroup-scaling cells every regroup
    // with a positive gap does), and popping them all off the heap instead
    // made paper mode there two to four times slower.
    for (const auto& [gap, e] : positive) take(edges[e]);
  } else if (count < cap) {
    // Only a prefix is taken: pop it off a min-heap instead of sorting.
    const std::greater<> later;
    std::make_heap(positive.begin(), positive.end(), later);
    for (auto end = positive.end(); end != positive.begin() && count < cap;
         --end) {
      std::pop_heap(positive.begin(), end, later);
      const auto [gap, e] = *(end - 1);
      if (gap > budget - extent_sum) break;
      take(edges[e]);
    }
  }

  // Chains of taken edges become groups: a chain starts at each point
  // whose incoming edge (from its predecessor) was not taken. At most
  // n - 1 edges were taken and they form no loop, so the n points fall
  // into exactly n - count chains.
  const auto next = [n](size_t i) { return i + 1 == n ? 0 : i + 1; };
  groups.reserve(n - count);
  for (size_t s = 0; s < n; ++s) {
    if (taken[s == 0 ? n - 1 : s - 1] != 0) continue;
    ScanGroup g;
    size_t length = 1;
    for (size_t i = s; taken[i] != 0; i = next(i)) {
      g.extent_pages += out_gap[i];
      ++length;
    }
    g.members.reserve(length);
    for (size_t i = s; g.members.size() < length; i = next(i)) {
      g.members.push_back(points[i].id);
    }
    g.trailer = g.members.front();
    g.leader = g.members.back();
    groups.push_back(std::move(g));
  }
  return groups;
}

std::vector<ScanGroup> BuildScanGroups(const std::vector<ScanPoint>& points,
                                       const ScanCircle& circle,
                                       uint64_t bufferpool_pages) {
  if (!std::is_sorted(points.begin(), points.end(), CircleOrderLess)) {
    std::vector<ScanPoint> sorted = points;
    std::sort(sorted.begin(), sorted.end(), CircleOrderLess);
    return BuildScanGroups(sorted, circle, bufferpool_pages);
  }
  // Edge i joins sorted neighbours i -> (i + 1) % n; the last one wraps
  // around the circle. Listed in index order, which for a sorted list is
  // the (trailer position, trailer id) tie order.
  const size_t n = points.size();
  std::vector<GroupEdge> edges(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t j = i + 1 == n ? 0 : i + 1;
    edges[i] = GroupEdge{
        i, circle.ForwardDistance(points[i].position, points[j].position)};
  }
  return MergeAdjacentScans(points, edges, bufferpool_pages);
}

void GroupIndex::Assign(const std::vector<ScanGroup>& groups) {
  size_t members = 0;
  for (const ScanGroup& g : groups) members += g.size();
  const size_t capacity = std::bit_ceil(std::max<size_t>(2 * members, 2));
  slots_.assign(capacity, Slot{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  size_ = 0;
  const size_t mask = capacity - 1;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (ScanId id : groups[g].members) {
      size_t i = Home(id);
      while (slots_[i].id != kInvalidScanId && slots_[i].id != id) {
        i = (i + 1) & mask;
      }
      if (slots_[i].id == kInvalidScanId) ++size_;
      slots_[i] = Slot{id, g};
    }
  }
}

void GroupIndex::Add(ScanId id, size_t group) {
  if (2 * (size_ + 1) > slots_.size()) {
    // Double the table (two slots to start) and re-home every entry.
    std::vector<Slot> old(std::max<size_t>(2 * slots_.size(), 2));
    old.swap(slots_);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id == kInvalidScanId) continue;
      size_t i = Home(slot.id);
      while (slots_[i].id != kInvalidScanId) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }
  const size_t mask = slots_.size() - 1;
  size_t i = Home(id);
  while (slots_[i].id != kInvalidScanId && slots_[i].id != id) {
    i = (i + 1) & mask;
  }
  if (slots_[i].id == kInvalidScanId) ++size_;
  slots_[i] = Slot{id, group};
}

void GroupIndex::Remove(ScanId id) {
  if (slots_.empty() || id == kInvalidScanId) return;
  const size_t mask = slots_.size() - 1;
  size_t hole = Home(id);
  while (slots_[hole].id != id) {
    if (slots_[hole].id == kInvalidScanId) return;
    hole = (hole + 1) & mask;
  }
  // Walk the rest of the probe run. An entry may fill the hole iff the
  // hole lies on its probe path, i.e. its home is no later than the hole,
  // cyclically; then the entry's slot becomes the hole.
  for (size_t i = (hole + 1) & mask; slots_[i].id != kInvalidScanId;
       i = (i + 1) & mask) {
    if (((i - Home(slots_[i].id)) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

size_t GroupIndex::Find(ScanId id) const {
  if (slots_.empty() || id == kInvalidScanId) return kNotFound;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(id);; i = (i + 1) & mask) {
    if (slots_[i].id == id) return slots_[i].group;
    if (slots_[i].id == kInvalidScanId) return kNotFound;
  }
}

size_t GroupIndex::Home(ScanId id) const {
  // Fibonacci hashing: scan ids are dense counters, and the multiply
  // spreads consecutive ones across the table.
  return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
}

}  // namespace scanshare::ssm
