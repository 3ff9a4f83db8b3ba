// M2 — micro-benchmarks of the buffer pool: hit path, miss+eviction path
// (pulled, and pushed through a demand-only pipeline over the sim
// backend), and the two replacement policies. The hit path is the one
// every tuple of every scan crosses, so it must stay trivially cheap. The
// miss paths run at 4 KiB and at the engine's 32 KiB pages: an install
// cost that grows with the page (a payload copy) only shows at the real
// size.

#include <benchmark/benchmark.h>

#include "buffer/buffer_pool.h"
#include "io/prefetcher.h"
#include "io/sim_backend.h"

namespace {

using namespace scanshare;
using buffer::BufferPool;
using buffer::BufferPoolOptions;
using buffer::LruReplacer;
using buffer::PagePriority;
using buffer::PriorityLruReplacer;

/// Page-store size of every fixture, whatever its page size.
constexpr uint64_t kStoreBytes = uint64_t{64} << 20;

struct World {
  World(size_t frames, bool priority_policy, uint32_t page_size = 4096)
      : env(), dm(&env, page_size) {
    (void)dm.AllocateContiguous(kStoreBytes / page_size);
    BufferPoolOptions o;
    o.num_frames = frames;
    o.prefetch_extent_pages = 16;
    std::unique_ptr<buffer::ReplacementPolicy> policy;
    if (priority_policy) {
      policy = std::make_unique<PriorityLruReplacer>(frames);
    } else {
      policy = std::make_unique<LruReplacer>(frames);
    }
    pool = std::make_unique<BufferPool>(&dm, std::move(policy), o);
  }

  sim::Env env;
  storage::DiskManager dm;
  std::unique_ptr<BufferPool> pool;
};

void BM_FetchHit(benchmark::State& state) {
  World w(1024, state.range(0) != 0);
  // Warm one page.
  auto r = w.pool->FetchPage(0, 0);
  (void)w.pool->UnpinPage(0, PagePriority::kNormal);
  benchmark::DoNotOptimize(r);
  sim::Micros now = 1;
  for (auto _ : state) {
    auto hit = w.pool->FetchPage(0, now++);
    benchmark::DoNotOptimize(hit);
    (void)w.pool->UnpinPage(0, PagePriority::kNormal);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FetchHit)->Arg(0)->Arg(1);  // 0 = LRU, 1 = priority-LRU.

void BM_FetchMissEvict(benchmark::State& state) {
  const auto page_size = static_cast<uint32_t>(state.range(1));
  World w(64, state.range(0) != 0, page_size);
  const uint64_t pages = w.dm.num_pages();
  sim::Micros now = 0;
  sim::PageId p = 0;
  for (auto _ : state) {
    auto r = w.pool->FetchPage(p, now);
    benchmark::DoNotOptimize(r);
    (void)w.pool->UnpinPage(p, PagePriority::kNormal);
    p = (p + 16) % pages;  // New extent every time: always a miss.
    now += 10;
  }
  state.SetItemsProcessed(state.iterations());  // One extent install each.
}
// prio: 0 = LRU, 1 = priority-LRU; page: bytes per page.
BENCHMARK(BM_FetchMissEvict)
    ->ArgNames({"prio", "page"})
    ->ArgsProduct({{0, 1}, {4096, 32768}});

// The same miss stream through the push path: a demand-only Prefetcher
// (no SSM, so every Acquire is a sync read) over SimIoBackend, one 16-page
// extent per iteration.
void BM_PushFetchMissEvict(benchmark::State& state) {
  const auto page_size = static_cast<uint32_t>(state.range(0));
  World w(64, /*priority_policy=*/false, page_size);
  io::SimIoBackend backend(&w.dm);
  io::Prefetcher pipeline(&backend, /*ssm=*/nullptr, /*residency=*/nullptr,
                          /*extent_pages=*/16, io::PrefetchOptions{});
  w.pool->SetIoPipeline(&pipeline);
  const uint64_t pages = w.dm.num_pages();
  sim::Micros now = 0;
  sim::PageId p = 0;
  for (auto _ : state) {
    auto r = w.pool->FetchPage(p, now);
    benchmark::DoNotOptimize(r);
    (void)w.pool->UnpinPage(p, PagePriority::kNormal);
    p = (p + 16) % pages;  // New extent every time: always a miss.
    now += 10;
  }
  w.pool->SetIoPipeline(nullptr);
  state.SetItemsProcessed(state.iterations());  // One extent install each.
}
// page: bytes per page.
BENCHMARK(BM_PushFetchMissEvict)->ArgName("page")->Arg(4096)->Arg(32768);

void BM_UnpinWithPriority(benchmark::State& state) {
  World w(1024, true);
  auto r = w.pool->FetchPage(0, 0);
  benchmark::DoNotOptimize(r);
  sim::Micros now = 1;
  int i = 0;
  for (auto _ : state) {
    // Re-pin and release with rotating priorities: exercises the
    // bucket-move path of the priority replacer.
    auto hit = w.pool->FetchPage(0, now++);
    benchmark::DoNotOptimize(hit);
    const PagePriority prio = static_cast<PagePriority>(i % 3);
    (void)w.pool->UnpinPage(0, prio);
    ++i;
  }
  (void)w.pool->UnpinPage(0, PagePriority::kNormal);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnpinWithPriority);

void BM_ReplacerEvictCycle(benchmark::State& state) {
  const size_t frames = 4096;
  PriorityLruReplacer r(frames);
  for (buffer::FrameId f = 0; f < frames; ++f) {
    r.Pin(f);
    r.SetPriority(f, static_cast<PagePriority>(f % 3));
    r.Unpin(f);
  }
  for (auto _ : state) {
    auto victim = r.Evict();
    benchmark::DoNotOptimize(victim);
    r.Pin(*victim);
    r.SetPriority(*victim, static_cast<PagePriority>(*victim % 3));
    r.Unpin(*victim);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReplacerEvictCycle);

}  // namespace
