// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The scan service's regroup-scaling ladder (DESIGN.md §16.3,
// EXPERIMENTS.md A11): the wall cost of the SSM's group maintenance at n
// registered scans, n in {100, 1k, 10k}, in two modes. Legacy rebuilds
// the Fig.-14 groups on every location update and every start/end;
// adaptive_regroup maintains membership at start/end and rebuilds every
// ~n/8 updates. Per-update cost grows with n in legacy mode and stays
// amortized-flat in adaptive mode; so does registration, where a legacy
// start rebuilds the groups and an adaptive one appends a singleton
// (DESIGN.md §16.3). A11's virtual-time scenarios run in bench_paper.
//
// Use --json=PATH for the artifact (BENCH_service.json); --smoke shrinks
// the scan-count ladder and the update budget for CI.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ssm/scan_sharing_manager.h"

namespace scanshare::bench {
namespace {

// One cell of the regroup scaling table: time registration of n scans and
// a fixed budget of location updates at full density, in one mode.
struct RegroupCell {
  size_t scans = 0;
  bool adaptive = false;
  double register_seconds = 0.0;
  double update_seconds = 0.0;
  uint64_t updates = 0;
  uint64_t regroups = 0;

  double updates_per_sec() const {
    return update_seconds > 0.0 ? static_cast<double>(updates) / update_seconds
                                : 0.0;
  }
  double per_regroup_ms() const {
    return regroups > 0
               ? 1e3 * update_seconds / static_cast<double>(regroups)
               : 0.0;
  }
};

RegroupCell MeasureRegroup(size_t scans, bool adaptive, uint64_t updates) {
  ssm::SsmOptions options;
  options.bufferpool_pages = 4'096;
  options.prefetch_extent_pages = 16;
  options.enable_throttling = false;  // Isolate grouping cost.
  options.adaptive_regroup = adaptive;
  ssm::ScanSharingManager ssm(options);

  constexpr uint64_t kTablePages = 1 << 20;
  ssm::ScanDescriptor d;
  d.table_id = 1;
  d.table_first = 0;
  d.table_end = kTablePages;
  d.range_first = 0;
  d.range_end = kTablePages;
  d.estimated_pages = kTablePages;
  d.estimated_duration = sim::Seconds(100);

  RegroupCell cell;
  cell.scans = scans;
  cell.adaptive = adaptive;
  cell.updates = updates;

  sim::Micros now = 0;
  std::vector<ssm::ScanId> ids;
  ids.reserve(scans);
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < scans; ++i) {
    auto start = ssm.StartScan(d, ++now);
    if (!start.ok()) std::exit(1);
    ids.push_back(start->id);
  }
  const auto t1 = std::chrono::steady_clock::now();
  uint64_t position = 0;
  for (uint64_t u = 0; u < updates; ++u) {
    ++position;
    auto update = ssm.UpdateLocation(ids[u % ids.size()],
                                     position % kTablePages, position, ++now);
    if (!update.ok()) std::exit(1);
  }
  const auto t2 = std::chrono::steady_clock::now();

  cell.register_seconds = std::chrono::duration<double>(t1 - t0).count();
  cell.update_seconds = std::chrono::duration<double>(t2 - t1).count();
  cell.regroups = ssm.stats().regroups;
  return cell;
}

void PrintRegroupCell(const RegroupCell& c) {
  std::printf("%8zu scans  %-8s register %8.3f s | %6llu updates in %8.3f s "
              "(%9.0f/s) | %6llu regroups, %8.3f ms each\n",
              c.scans, c.adaptive ? "adaptive" : "legacy", c.register_seconds,
              static_cast<unsigned long long>(c.updates), c.update_seconds,
              c.updates_per_sec(),
              static_cast<unsigned long long>(c.regroups), c.per_regroup_ms());
}

std::string RegroupCellToJson(const RegroupCell& c) {
  JsonObject o;
  o.Put("scans", static_cast<uint64_t>(c.scans))
      .Put("mode", std::string(c.adaptive ? "adaptive" : "legacy"))
      .Put("register_seconds", c.register_seconds)
      .Put("updates", c.updates)
      .Put("update_seconds", c.update_seconds)
      .Put("updates_per_sec", c.updates_per_sec())
      .Put("regroups", c.regroups)
      .Put("per_regroup_ms", c.per_regroup_ms());
  return o.ToString();
}

}  // namespace

int Main(int argc, char** argv) {
  BenchConfig config = ParseFlags(argc, argv);

  std::printf("A11: regroup scaling (one table, round-robin updates):\n");
  std::vector<size_t> ladder =
      config.smoke ? std::vector<size_t>{50, 200}
                   : std::vector<size_t>{100, 1'000, 10'000};
  std::vector<RegroupCell> cells;
  for (const size_t n : ladder) {
    // Fixed update budget per cell: per-update cost comparisons stay
    // apples-to-apples across the ladder.
    const uint64_t updates = config.smoke ? 500 : 4'000;
    for (const bool adaptive : {false, true}) {
      cells.push_back(MeasureRegroup(n, adaptive, updates));
      PrintRegroupCell(cells.back());
    }
  }

  if (!config.json_path.empty()) {
    std::vector<std::string> cell_json;
    cell_json.reserve(cells.size());
    for (const RegroupCell& c : cells) cell_json.push_back(RegroupCellToJson(c));
    JsonObject root;
    root.Put("bench", std::string("a11_service"))
        .PutRaw("regroup_scaling", JsonArray(cell_json));
    WriteFileOrDie(config.json_path, root.ToString());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return 0;
}

}  // namespace scanshare::bench

int main(int argc, char** argv) { return scanshare::bench::Main(argc, argv); }
