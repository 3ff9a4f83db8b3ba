// M1 — micro-benchmarks of the Scan Sharing Manager's hot operations.
// These quantify the "minimal overhead" engineering claim: location
// updates (the per-extent call on every scan's hot path), group
// (re)builds, placement decisions, and priority advice.

#include <algorithm>

#include <benchmark/benchmark.h>

#include "ssm/scan_sharing_manager.h"

namespace {

using namespace scanshare;
using ssm::ScanDescriptor;
using ssm::ScanSharingManager;
using ssm::SsmOptions;

SsmOptions Options() {
  SsmOptions o;
  o.bufferpool_pages = 4096;
  o.prefetch_extent_pages = 16;
  return o;
}

ScanDescriptor Desc() {
  ScanDescriptor d;
  d.table_id = 1;
  d.table_first = 0;
  d.table_end = 1 << 20;
  d.range_first = 0;
  d.range_end = 1 << 20;
  d.estimated_pages = 1 << 20;
  d.estimated_duration = sim::Seconds(1000);
  return d;
}

// One location update with N active scans (the per-extent hot-path call).
void BM_UpdateLocation(benchmark::State& state) {
  const int scans = static_cast<int>(state.range(0));
  ScanSharingManager ssm(Options());
  std::vector<ssm::ScanId> ids;
  for (int i = 0; i < scans; ++i) {
    auto start = ssm.StartScan(Desc(), 0);
    ids.push_back(start->id);
  }
  uint64_t pos = 1, processed = 1;
  sim::Micros now = 1;
  size_t victim = 0;
  for (auto _ : state) {
    auto r = ssm.UpdateLocation(ids[victim], pos % (1 << 20), processed, now);
    benchmark::DoNotOptimize(r);
    victim = (victim + 1) % ids.size();
    pos += 16;
    processed += 16;
    ++now;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateLocation)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(512);

// Scan registration + placement with N ongoing scans.
void BM_StartEndScan(benchmark::State& state) {
  const int scans = static_cast<int>(state.range(0));
  ScanSharingManager ssm(Options());
  for (int i = 0; i < scans; ++i) {
    auto start = ssm.StartScan(Desc(), 0);
    // Spread positions so placement has real work to do.
    (void)ssm.UpdateLocation(start->id, (i * 4096) % (1 << 20), 16, i + 1);
  }
  sim::Micros now = 1000;
  for (auto _ : state) {
    auto start = ssm.StartScan(Desc(), now);
    benchmark::DoNotOptimize(start);
    (void)ssm.EndScan(start->id, now + 1);
    ++now;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StartEndScan)->Arg(1)->Arg(16)->Arg(64)->Arg(256);

// Priority advice lookup (no update).
void BM_AdvisePriority(benchmark::State& state) {
  ScanSharingManager ssm(Options());
  auto a = ssm.StartScan(Desc(), 0);
  auto b = ssm.StartScan(Desc(), 0);
  (void)ssm.UpdateLocation(b->id, 64, 64, 1);
  for (auto _ : state) {
    auto p = ssm.AdvisePriority(a->id);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdvisePriority);

// Group formation for N scans (the Fig.-14 algorithm), fed the
// circle-ordered list the manager maintains. The second argument spaces
// the scans: 7919 pages apart, most gaps do not fit the budget left; one
// page apart, every gap fits, as in bench_a11_service's regroup scaling.
void BM_BuildScanGroups(benchmark::State& state) {
  const int scans = static_cast<int>(state.range(0));
  const int spacing = static_cast<int>(state.range(1));
  ssm::ScanCircle circle(0, 1 << 20);
  std::vector<ssm::ScanPoint> points;
  for (int i = 0; i < scans; ++i) {
    points.push_back(
        ssm::ScanPoint{static_cast<ssm::ScanId>(i + 1),
                       static_cast<sim::PageId>((i * spacing) % (1 << 20))});
  }
  std::sort(points.begin(), points.end(), ssm::CircleOrderLess);
  for (auto _ : state) {
    auto groups = ssm::BuildScanGroups(points, circle, 4096);
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BuildScanGroups)->ArgsProduct({{2, 8, 32, 128, 512}, {7919, 1}});

}  // namespace
