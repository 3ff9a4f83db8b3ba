#include "group_oracle.h"

#include <algorithm>
#include <numeric>

namespace scanshare::testutil {

using ssm::ScanGroup;
using ssm::ScanPoint;

namespace {

/// Union-find over point indices, used to reject edges that would close the
/// circle into one degenerate all-scan loop.
class DisjointSet {
 public:
  explicit DisjointSet(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool Union(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

std::vector<ScanGroup> ReferenceScanGroups(const std::vector<ScanPoint>& points,
                                           const ssm::ScanCircle& circle,
                                           uint64_t bufferpool_pages) {
  std::vector<ScanGroup> groups;
  const size_t n = points.size();
  if (n == 0) return groups;

  // Sort scans along the circle; ties by id for determinism.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (points[a].position != points[b].position) {
      return points[a].position < points[b].position;
    }
    return points[a].id < points[b].id;
  });

  if (n == 1) {
    ScanGroup g;
    g.members = {points[order[0]].id};
    g.trailer = g.leader = points[order[0]].id;
    g.extent_pages = 0;
    groups.push_back(std::move(g));
    return groups;
  }

  // Adjacency edges along the circle: edge i connects sorted neighbours
  // i -> (i+1) % n with the forward scan-order gap between them.
  struct Edge {
    size_t from;  // Index into `order`.
    uint64_t gap;
  };
  std::vector<Edge> edges;
  edges.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t j = (i + 1) % n;
    edges.push_back(Edge{
        i, circle.ForwardDistance(points[order[i]].position,
                                  points[order[j]].position)});
  }

  // Fig. 14: consider pairs in ascending distance; merge while the summed
  // extents stay within the buffer-pool budget. Ties break on the backmost
  // scan's position, then its id, for determinism.
  std::vector<size_t> edge_order(edges.size());
  std::iota(edge_order.begin(), edge_order.end(), 0);
  std::sort(edge_order.begin(), edge_order.end(), [&](size_t a, size_t b) {
    if (edges[a].gap != edges[b].gap) return edges[a].gap < edges[b].gap;
    const ScanPoint& pa = points[order[edges[a].from]];
    const ScanPoint& pb = points[order[edges[b].from]];
    if (pa.position != pb.position) return pa.position < pb.position;
    return pa.id < pb.id;
  });

  DisjointSet dsu(n);
  std::vector<bool> included(edges.size(), false);
  uint64_t extent_sum = 0;
  for (size_t e : edge_order) {
    const uint64_t gap = edges[e].gap;
    if (extent_sum + gap > bufferpool_pages) break;
    const size_t from = edges[e].from;
    const size_t to = (from + 1) % n;
    if (!dsu.Union(from, to)) continue;  // Would close the full circle.
    included[e] = true;
    extent_sum += gap;
  }

  // Chains of consecutive included edges become groups. Find arc starts:
  // sorted positions whose incoming edge (from the predecessor) is absent.
  std::vector<bool> visited(n, false);
  for (size_t s = 0; s < n; ++s) {
    const size_t incoming = (s + n - 1) % n;
    if (included[incoming]) continue;  // Not an arc start.
    ScanGroup g;
    uint64_t extent = 0;
    size_t i = s;
    while (true) {
      visited[i] = true;
      g.members.push_back(points[order[i]].id);
      if (!included[i]) break;  // Edge out of i is absent: arc ends here.
      extent += edges[i].gap;
      i = (i + 1) % n;
    }
    g.trailer = g.members.front();
    g.leader = g.members.back();
    g.extent_pages = extent;
    groups.push_back(std::move(g));
  }

  // Degenerate safety: if every edge was somehow included (cannot happen
  // thanks to the union-find guard), fall back to one group per scan.
  if (groups.empty()) {
    for (size_t i = 0; i < n; ++i) {
      ScanGroup g;
      g.members = {points[order[i]].id};
      g.trailer = g.leader = points[order[i]].id;
      groups.push_back(std::move(g));
    }
  }
  return groups;
}

}  // namespace scanshare::testutil
