#include "buffer/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <utility>

#include "buffer/page_guard.h"
#include "io/file_backend.h"
#include "io/prefetcher.h"
#include "io/sim_backend.h"

namespace scanshare::buffer {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : dm_(&env_) {
    // 64 disk pages to play with.
    EXPECT_TRUE(dm_.AllocateContiguous(64).ok());
    // Tag each page's first byte with its id for content checks.
    for (sim::PageId p = 0; p < 64; ++p) {
      auto data = dm_.MutablePageData(p);
      (*data)[0] = static_cast<uint8_t>(p);
    }
  }

  std::unique_ptr<BufferPool> MakePool(size_t frames, uint64_t extent = 4,
                                       bool priority_policy = false) {
    BufferPoolOptions o;
    o.num_frames = frames;
    o.prefetch_extent_pages = extent;
    std::unique_ptr<ReplacementPolicy> policy;
    if (priority_policy) {
      policy = std::make_unique<PriorityLruReplacer>(frames);
    } else {
      policy = std::make_unique<LruReplacer>(frames);
    }
    return std::make_unique<BufferPool>(&dm_, std::move(policy), o);
  }

  sim::Env env_;
  storage::DiskManager dm_;
};

TEST_F(BufferPoolTest, MissThenHit) {
  auto pool = MakePool(8);
  auto first = pool->FetchPage(0, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->hit);
  EXPECT_EQ(first->data[0], 0);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());

  auto second = pool->FetchPage(0, 1000);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->hit);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());

  EXPECT_EQ(pool->stats().logical_reads, 2u);
  EXPECT_EQ(pool->stats().hits, 1u);
  EXPECT_EQ(pool->stats().misses, 1u);
}

TEST_F(BufferPoolTest, PrefetchMakesExtentSiblingsHits) {
  auto pool = MakePool(8, /*extent=*/4);
  auto first = pool->FetchPage(0, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  for (sim::PageId p = 1; p < 4; ++p) {
    auto r = pool->FetchPage(p, 100 * p);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->hit) << "page " << p;
    ASSERT_TRUE(pool->UnpinPage(p, PagePriority::kNormal).ok());
  }
  EXPECT_EQ(pool->stats().io_requests, 1u);
  EXPECT_EQ(pool->stats().physical_pages, 4u);
  // One disk request for the whole extent.
  EXPECT_EQ(env_.disk().stats().requests, 1u);
}

TEST_F(BufferPoolTest, PrefetchAlignsToExtentGrid) {
  auto pool = MakePool(8, /*extent=*/4);
  // Fetching page 6 reads aligned extent [4, 8).
  auto r = pool->FetchPage(6, 0);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(pool->UnpinPage(6, PagePriority::kNormal).ok());
  EXPECT_TRUE(pool->Contains(4));
  EXPECT_TRUE(pool->Contains(7));
  EXPECT_FALSE(pool->Contains(3));
  EXPECT_FALSE(pool->Contains(8));
}

TEST_F(BufferPoolTest, ClipBoundsRestrictPrefetch) {
  auto pool = MakePool(8, /*extent=*/4);
  // Table occupies [5, 16): prefetch of page 5's extent [4,8) must clip to
  // [5,8) and never touch page 4 (another table's page).
  auto r = pool->FetchPage(5, 0, 5, 16);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(pool->UnpinPage(5, PagePriority::kNormal).ok());
  EXPECT_FALSE(pool->Contains(4));
  EXPECT_TRUE(pool->Contains(5));
  EXPECT_TRUE(pool->Contains(7));
}

TEST_F(BufferPoolTest, FetchOutsideClipRejected) {
  auto pool = MakePool(8);
  EXPECT_EQ(pool->FetchPage(3, 0, 8, 16).status().code(),
            Status::Code::kInvalidArgument);
}

TEST_F(BufferPoolTest, UnallocatedPageRejected) {
  auto pool = MakePool(8);
  EXPECT_EQ(pool->FetchPage(1000, 0).status().code(), Status::Code::kOutOfRange);
}

TEST_F(BufferPoolTest, EvictionRecyclesLruFrame) {
  auto pool = MakePool(2, /*extent=*/1);
  for (sim::PageId p = 0; p < 2; ++p) {
    ASSERT_TRUE(pool->FetchPage(p, p * 10).ok());
    ASSERT_TRUE(pool->UnpinPage(p, PagePriority::kNormal).ok());
  }
  // Third page evicts page 0 (LRU).
  ASSERT_TRUE(pool->FetchPage(2, 100).ok());
  ASSERT_TRUE(pool->UnpinPage(2, PagePriority::kNormal).ok());
  EXPECT_FALSE(pool->Contains(0));
  EXPECT_TRUE(pool->Contains(1));
  EXPECT_TRUE(pool->Contains(2));
  EXPECT_EQ(pool->stats().evictions, 1u);
}

TEST_F(BufferPoolTest, PinnedPagesNeverEvicted) {
  auto pool = MakePool(2, /*extent=*/1);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());  // Stays pinned.
  ASSERT_TRUE(pool->FetchPage(1, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(1, PagePriority::kNormal).ok());
  ASSERT_TRUE(pool->FetchPage(2, 0).ok());  // Must evict 1, not 0.
  EXPECT_TRUE(pool->Contains(0));
  EXPECT_FALSE(pool->Contains(1));
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  ASSERT_TRUE(pool->UnpinPage(2, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, AllPinnedExhaustsPool) {
  auto pool = MakePool(2, /*extent=*/1);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->FetchPage(1, 0).ok());
  auto r = pool->FetchPage(2, 0);
  EXPECT_EQ(r.status().code(), Status::Code::kResourceExhausted);
}

TEST_F(BufferPoolTest, PinCountsNest) {
  auto pool = MakePool(4, /*extent=*/1);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());  // Second pin.
  EXPECT_EQ(*pool->PinCount(0), 2u);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  EXPECT_EQ(*pool->PinCount(0), 1u);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  EXPECT_EQ(*pool->PinCount(0), 0u);
  EXPECT_EQ(pool->UnpinPage(0, PagePriority::kNormal).code(),
            Status::Code::kFailedPrecondition);
}

TEST_F(BufferPoolTest, UnpinNonResidentFails) {
  auto pool = MakePool(4);
  EXPECT_EQ(pool->UnpinPage(9, PagePriority::kNormal).code(),
            Status::Code::kNotFound);
}

TEST_F(BufferPoolTest, ReleasePriorityShapesEviction) {
  auto pool = MakePool(2, /*extent=*/1, /*priority_policy=*/true);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kHigh).ok());
  ASSERT_TRUE(pool->FetchPage(1, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(1, PagePriority::kLow).ok());
  // Page 1 is newer but Low: it must be the victim.
  ASSERT_TRUE(pool->FetchPage(2, 0).ok());
  EXPECT_TRUE(pool->Contains(0));
  EXPECT_FALSE(pool->Contains(1));
  ASSERT_TRUE(pool->UnpinPage(2, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, MissReadsChargeIoTime) {
  auto pool = MakePool(8, /*extent=*/4);
  auto r = pool->FetchPage(0, 12345);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->io.complete_micros, 12345u);
  EXPECT_GT(r->io.complete_micros, r->io.start_micros);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, FlushAllDropsUnpinned) {
  auto pool = MakePool(8, /*extent=*/1);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  ASSERT_TRUE(pool->FlushAll().ok());
  EXPECT_FALSE(pool->Contains(0));
  // Refetch misses again.
  auto r = pool->FetchPage(0, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->hit);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, FlushAllRefusesWhilePinned) {
  auto pool = MakePool(8, /*extent=*/1);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  EXPECT_EQ(pool->FlushAll().code(), Status::Code::kFailedPrecondition);
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, PageGuardReleasesOnDestruction) {
  auto pool = MakePool(4, /*extent=*/1);
  {
    auto r = pool->FetchPage(0, 0);
    ASSERT_TRUE(r.ok());
    PageGuard guard(pool.get(), 0, r->data);
    EXPECT_EQ(*pool->PinCount(0), 1u);
  }
  EXPECT_EQ(*pool->PinCount(0), 0u);
}

TEST_F(BufferPoolTest, PageGuardMoveTransfersOwnership) {
  auto pool = MakePool(4, /*extent=*/1);
  auto r = pool->FetchPage(0, 0);
  ASSERT_TRUE(r.ok());
  PageGuard a(pool.get(), 0, r->data);
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.holds());
  EXPECT_TRUE(b.holds());
  EXPECT_EQ(*pool->PinCount(0), 1u);
  b.Release();
  EXPECT_EQ(*pool->PinCount(0), 0u);
}

TEST_F(BufferPoolTest, PoolSmallerThanExtentStillServesDemandPage) {
  auto pool = MakePool(2, /*extent=*/8);
  auto r = pool->FetchPage(3, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data[0], 3);
  ASSERT_TRUE(pool->UnpinPage(3, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, StatsResetKeepsContents) {
  auto pool = MakePool(8, /*extent=*/1);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  pool->ResetStats();
  EXPECT_EQ(pool->stats().logical_reads, 0u);
  EXPECT_TRUE(pool->Contains(0));
}

// Regression: an extent install must never evict pages the same install
// just put in the pool. Frames are acquired up front, the extent fills
// only what it got, and the leftover sibling pages are simply not cached.
TEST_F(BufferPoolTest, ExtentInstallNeverEvictsItsOwnPages) {
  auto pool = MakePool(2, /*extent=*/4);
  auto r = pool->FetchPage(0, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data[0], 0);
  // Two frames hold the demanded page and the first sibling; the rest of
  // the extent was transferred (and charged) but not cached. Crucially
  // nothing was evicted — there was nothing to evict, and installing
  // siblings 2 and 3 over frames the install just filled would have been
  // self-eviction thrash.
  EXPECT_TRUE(pool->Contains(0));
  EXPECT_TRUE(pool->Contains(1));
  EXPECT_FALSE(pool->Contains(2));
  EXPECT_FALSE(pool->Contains(3));
  EXPECT_EQ(pool->stats().evictions, 0u);
  EXPECT_EQ(pool->stats().physical_pages, 4u);  // Whole transfer charged.
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, ClippedExtentInstallNeverEvictsItsOwnPages) {
  auto pool = MakePool(2, /*extent=*/4);
  // Table occupies [5, 16): the demanded page 5's aligned extent [4, 8)
  // clips to [5, 8). With two frames the install keeps pages 5 and 6.
  auto r = pool->FetchPage(5, 0, /*clip_first=*/5, /*clip_end=*/16);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data[0], 5);
  EXPECT_TRUE(pool->Contains(5));
  EXPECT_TRUE(pool->Contains(6));
  EXPECT_FALSE(pool->Contains(4));
  EXPECT_FALSE(pool->Contains(7));
  EXPECT_EQ(pool->stats().evictions, 0u);
  ASSERT_TRUE(pool->UnpinPage(5, PagePriority::kNormal).ok());
}

TEST_F(BufferPoolTest, EvictionsOnlyClaimPreexistingPages) {
  auto pool = MakePool(4, /*extent=*/4);
  // Fill the pool with extent [8, 12), all unpinned.
  ASSERT_TRUE(pool->FetchPage(8, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(8, PagePriority::kNormal).ok());
  for (sim::PageId p = 8; p < 12; ++p) EXPECT_TRUE(pool->Contains(p));

  // Fetching extent [0, 4) must evict exactly the four old pages and end
  // with the whole new extent resident — never recycling its own pages.
  ASSERT_TRUE(pool->FetchPage(0, 1000).ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  for (sim::PageId p = 0; p < 4; ++p) {
    EXPECT_TRUE(pool->Contains(p)) << "page " << p;
  }
  for (sim::PageId p = 8; p < 12; ++p) {
    EXPECT_FALSE(pool->Contains(p)) << "page " << p;
  }
  EXPECT_EQ(pool->stats().evictions, 4u);
}

// The residency bitmap (what Contains consults) must track install,
// eviction, and flush.
TEST_F(BufferPoolTest, ResidencyTracksInstallEvictionAndFlush) {
  auto pool = MakePool(4, /*extent=*/4);
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  for (sim::PageId p = 0; p < 4; ++p) EXPECT_TRUE(pool->Contains(p));
  EXPECT_FALSE(pool->Contains(4));

  // Eviction clears residency of the victims.
  ASSERT_TRUE(pool->FetchPage(8, 1000).ok());
  ASSERT_TRUE(pool->UnpinPage(8, PagePriority::kNormal).ok());
  for (sim::PageId p = 0; p < 4; ++p) EXPECT_FALSE(pool->Contains(p));
  for (sim::PageId p = 8; p < 12; ++p) EXPECT_TRUE(pool->Contains(p));

  // FlushAll clears everything.
  ASSERT_TRUE(pool->FlushAll().ok());
  for (sim::PageId p = 0; p < 12; ++p) EXPECT_FALSE(pool->Contains(p));
}

// Rejected fetches move no counter and keep the pool consistent, whether
// the inline hit path rejects them (a resident page outside the clip
// range) or FetchSlow does. The all-pinned case is
// FailedFetchLeavesStatsAndDiskUntouched below.
TEST_F(BufferPoolTest, RejectedFetchesLeaveStatsUntouched) {
  struct Probe {
    const char* what;
    sim::PageId page;
    sim::PageId clip_first;
    sim::PageId clip_end;
    Status::Code want;
  };
  const Probe probes[] = {
      {"resident page outside clip", 2, 8, 16, Status::Code::kInvalidArgument},
      {"non-resident page outside clip", 20, 0, 16,
       Status::Code::kInvalidArgument},
      {"unallocated page", 1000, 0, 64, Status::Code::kOutOfRange},
  };
  auto pool = MakePool(8, /*extent=*/4);
  // Pages [0, 4) resident and unpinned.
  ASSERT_TRUE(pool->FetchPage(0, 0).ok());
  ASSERT_TRUE(pool->UnpinPage(0, PagePriority::kNormal).ok());
  ASSERT_TRUE(pool->Contains(2));
  for (const Probe& probe : probes) {
    const BufferPoolStats before = pool->stats();
    EXPECT_EQ(pool->FetchPage(probe.page, 0, probe.clip_first, probe.clip_end)
                  .status()
                  .code(),
              probe.want)
        << probe.what;
    const BufferPoolStats& after = pool->stats();
    EXPECT_EQ(after.logical_reads, before.logical_reads) << probe.what;
    EXPECT_EQ(after.hits, before.hits) << probe.what;
    EXPECT_EQ(after.misses, before.misses) << probe.what;
    EXPECT_EQ(after.physical_pages, before.physical_pages) << probe.what;
    EXPECT_EQ(after.io_requests, before.io_requests) << probe.what;
    EXPECT_EQ(after.evictions, before.evictions) << probe.what;
    EXPECT_TRUE(pool->CheckInvariants().ok()) << probe.what;
  }
}

TEST_F(BufferPoolTest, InvariantsHoldThroughNormalTraffic) {
  for (const bool priority : {false, true}) {
    auto pool = MakePool(6, /*extent=*/4, priority);
    EXPECT_TRUE(pool->CheckInvariants().ok());
    sim::Micros now = 0;
    for (sim::PageId p = 0; p < 32; ++p) {
      ASSERT_TRUE(pool->FetchPage(p % 16, now).ok());
      EXPECT_TRUE(pool->CheckInvariants().ok()) << "after fetch " << p;
      ASSERT_TRUE(pool->UnpinPage(p % 16, PagePriority::kNormal).ok());
      EXPECT_TRUE(pool->CheckInvariants().ok()) << "after unpin " << p;
      now += 500;
    }
    ASSERT_TRUE(pool->FlushAll().ok());
    EXPECT_TRUE(pool->CheckInvariants().ok());
  }
}

// Satellite S2: a fetch that fails because every frame is pinned must leave
// the buffer statistics and the virtual disk exactly as it found them.
TEST_F(BufferPoolTest, FailedFetchLeavesStatsAndDiskUntouched) {
  auto pool = MakePool(4, /*extent=*/4);
  // Pin the whole pool with extent [0, 4).
  for (sim::PageId p = 0; p < 4; ++p) {
    ASSERT_TRUE(pool->FetchPage(p, 0).ok());
  }
  const BufferPoolStats before = pool->stats();
  const sim::DiskStats disk_before = env_.disk().stats();
  const sim::Micros busy_before = env_.disk().busy_until();

  auto failed = pool->FetchPage(8, 1000);
  EXPECT_EQ(failed.status().code(), Status::Code::kResourceExhausted);

  EXPECT_EQ(pool->stats().logical_reads, before.logical_reads);
  EXPECT_EQ(pool->stats().hits, before.hits);
  EXPECT_EQ(pool->stats().misses, before.misses);
  EXPECT_EQ(pool->stats().physical_pages, before.physical_pages);
  EXPECT_EQ(pool->stats().io_requests, before.io_requests);
  EXPECT_EQ(pool->stats().evictions, before.evictions);
  EXPECT_EQ(env_.disk().stats().requests, disk_before.requests);
  EXPECT_EQ(env_.disk().stats().pages_read, disk_before.pages_read);
  EXPECT_EQ(env_.disk().stats().busy_micros, disk_before.busy_micros);
  EXPECT_EQ(env_.disk().busy_until(), busy_before);
  EXPECT_TRUE(pool->CheckInvariants().ok());

  // The pool still works once a frame frees up.
  for (sim::PageId p = 0; p < 4; ++p) {
    ASSERT_TRUE(pool->UnpinPage(p, PagePriority::kNormal).ok());
  }
  EXPECT_TRUE(pool->FetchPage(8, 2000).ok());
}

// A fetch whose disk read is refused (injected device fault) charges no
// buffer counters and no disk time, returns its frames, and keeps the pool
// consistent.
TEST_F(BufferPoolTest, InjectedReadFaultChargesNothingAndLeaksNoFrames) {
  auto pool = MakePool(8, /*extent=*/4);
  sim::DiskFaultOptions faults;
  faults.fail_range_first = 4;
  faults.fail_range_end = 8;
  env_.disk().SetFaults(faults);

  const BufferPoolStats before = pool->stats();
  const sim::DiskStats disk_before = env_.disk().stats();
  auto failed = pool->FetchPage(5, 0);
  EXPECT_EQ(failed.status().code(), Status::Code::kCorruption);
  EXPECT_EQ(pool->stats().logical_reads, before.logical_reads);
  EXPECT_EQ(pool->stats().misses, before.misses);
  EXPECT_EQ(pool->stats().io_requests, before.io_requests);
  EXPECT_EQ(pool->stats().physical_pages, before.physical_pages);
  EXPECT_EQ(env_.disk().stats().requests, disk_before.requests);
  EXPECT_EQ(env_.disk().stats().busy_micros, disk_before.busy_micros);
  EXPECT_TRUE(pool->CheckInvariants().ok());

  env_.disk().ClearFaults();
  // Every frame is still available: the whole pool can be filled.
  for (sim::PageId p = 0; p < 8; ++p) {
    ASSERT_TRUE(pool->FetchPage(p, 1000 + p).ok()) << "page " << p;
  }
  EXPECT_TRUE(pool->CheckInvariants().ok());
}

// Satellite S1: an extent install that fails midway (media fault on one
// page image after the disk request was charged) must return every
// acquired-but-unused frame — the original code leaked them.
TEST_F(BufferPoolTest, MidExtentInstallFailureLeaksNoFrames) {
  auto pool = MakePool(8, /*extent=*/4);
  // Fetching page 0 reads extent [0, 4); pages 2-3 fail on the copy path.
  dm_.SetPageDataFaultRange(2, 4);

  auto failed = pool->FetchPage(0, 0);
  EXPECT_EQ(failed.status().code(), Status::Code::kCorruption);
  EXPECT_GE(dm_.page_data_faults_injected(), 1u);
  // The read physically happened, so its charge stays.
  EXPECT_EQ(pool->stats().misses, 1u);
  EXPECT_EQ(pool->stats().io_requests, 1u);
  // The fetch failed: nothing may be left pinned. The demanded page 0 and
  // sibling 1, installed before the fault at page 2, stay cached as the
  // store's images, like any pull install.
  for (sim::PageId p = 0; p < 4; ++p) {
    EXPECT_EQ(pool->Contains(p), p < 2) << "page " << p;
    if (!pool->Contains(p)) continue;
    auto pins = pool->PinCount(p);
    ASSERT_TRUE(pins.ok());
    EXPECT_EQ(*pins, 0u) << "page " << p;
    auto hit = pool->FetchPage(p, 10);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit->hit);
    EXPECT_EQ(hit->data, *dm_.PageData(p)) << "page " << p;
    ASSERT_TRUE(pool->UnpinPage(p, PagePriority::kNormal).ok());
  }
  EXPECT_TRUE(pool->CheckInvariants().ok());

  dm_.ClearPageDataFaults();
  // No frame was leaked: all 8 frames can still be pinned at once.
  for (sim::PageId p = 8; p < 16; ++p) {
    ASSERT_TRUE(pool->FetchPage(p, 1000 + p).ok()) << "page " << p;
  }
  EXPECT_TRUE(pool->CheckInvariants().ok());
}

// Same failure on the *demanded* page: the whole extent install aborts on
// frame 0 and every acquired frame comes back.
TEST_F(BufferPoolTest, DemandedPageInstallFailureLeaksNoFrames) {
  auto pool = MakePool(8, /*extent=*/4);
  dm_.SetPageDataFaultRange(5, 6);

  auto failed = pool->FetchPage(5, 0);
  EXPECT_EQ(failed.status().code(), Status::Code::kCorruption);
  EXPECT_FALSE(pool->Contains(5));
  EXPECT_TRUE(pool->CheckInvariants().ok());

  dm_.ClearPageDataFaults();
  for (sim::PageId p = 8; p < 16; ++p) {
    ASSERT_TRUE(pool->FetchPage(p, 1000 + p).ok()) << "page " << p;
  }
  EXPECT_TRUE(pool->CheckInvariants().ok());
}

// Installs by reference: the demanded page and its prefetched sibling are
// the page store's own images, and are again after eviction and re-fetch.
void ExpectInstallsAliasThePageStore(BufferPool* pool,
                                     const storage::DiskManager& dm) {
  for (sim::Micros round = 0; round < 2; ++round) {
    auto miss = pool->FetchPage(1, 100 * round);
    ASSERT_TRUE(miss.ok());
    EXPECT_FALSE(miss->hit);
    EXPECT_EQ(miss->data, *dm.PageData(1));
    auto sibling = pool->FetchPage(2, 100 * round + 1);
    ASSERT_TRUE(sibling.ok());
    EXPECT_TRUE(sibling->hit);
    EXPECT_EQ(sibling->data, *dm.PageData(2));
    ASSERT_TRUE(pool->UnpinPage(1, PagePriority::kNormal).ok());
    ASSERT_TRUE(pool->UnpinPage(2, PagePriority::kNormal).ok());
    // Two more extents through the 8 frames evict [0, 4).
    for (sim::PageId p : {sim::PageId{8}, sim::PageId{16}}) {
      ASSERT_TRUE(pool->FetchPage(p, 100 * round + 2).ok());
      ASSERT_TRUE(pool->UnpinPage(p, PagePriority::kNormal).ok());
    }
    EXPECT_FALSE(pool->Contains(1));
    EXPECT_FALSE(pool->Contains(2));
    EXPECT_TRUE(pool->CheckInvariants().ok());
  }
}

TEST_F(BufferPoolTest, PullInstallsAliasThePageStore) {
  auto pool = MakePool(8, /*extent=*/4);
  ExpectInstallsAliasThePageStore(pool.get(), dm_);
}

// The sim backend serves every pipeline extent in place, so push-sim
// installs alias the store exactly as pull installs do.
TEST_F(BufferPoolTest, PushSimInstallsAliasThePageStore) {
  io::SimIoBackend backend(&dm_);
  io::Prefetcher pipeline(&backend, /*ssm=*/nullptr, /*residency=*/nullptr,
                          /*extent_pages=*/4, io::PrefetchOptions{});
  auto pool = MakePool(8, /*extent=*/4);
  pool->SetIoPipeline(&pipeline);
  ExpectInstallsAliasThePageStore(pool.get(), dm_);
  // Every miss went through the pipeline.
  EXPECT_EQ(pipeline.stats().sync_reads, pool->stats().misses);
  EXPECT_EQ(pool->stats().misses, 6u);
}

/// A FileIoBackend over a fresh flat image of `dm`'s pages at `path`.
std::unique_ptr<io::FileIoBackend> OpenTableFile(storage::DiskManager* dm,
                                                 const std::string& path) {
  EXPECT_TRUE(io::FileIoBackend::WriteTableFile(*dm, path).ok());
  auto opened = io::FileIoBackend::Open(dm, path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? std::move(opened).value() : nullptr;
}

// The file backend's bytes exist only in the pipeline's extent buffer,
// which is freed when the fetch ends, so a push-file install copies them
// into the slab: a fetch returns the frame's own copy, equal to the
// store's image and still readable after the buffer is gone (ASan flags a
// dangling alias). Detached again, the same frames alias the store.
TEST_F(BufferPoolTest, PushFileInstallsCopyIntoTheSlab) {
  auto backend =
      OpenTableFile(&dm_, testing::TempDir() + "/buffer_pool_push_file.tbl");
  ASSERT_NE(backend, nullptr);
  io::Prefetcher pipeline(backend.get(), /*ssm=*/nullptr,
                          /*residency=*/nullptr, /*extent_pages=*/4,
                          io::PrefetchOptions{});
  auto pool = MakePool(8, /*extent=*/4);
  pool->SetIoPipeline(&pipeline);

  auto miss = pool->FetchPage(1, 0);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->hit);
  auto sibling = pool->FetchPage(2, 1);
  ASSERT_TRUE(sibling.ok());
  EXPECT_TRUE(sibling->hit);
  // Another extent's buffer comes and goes before the bytes are read.
  ASSERT_TRUE(pool->FetchPage(8, 2).ok());
  ASSERT_TRUE(pool->UnpinPage(8, PagePriority::kNormal).ok());
  // The audit rejects a frame left pointing into a pipeline buffer.
  const Status audit = pool->CheckInvariants();
  ASSERT_TRUE(audit.ok()) << audit.ToString();

  const std::pair<sim::PageId, const uint8_t*> fetched[] = {
      {1, miss->data}, {2, sibling->data}};
  for (const auto& [page, data] : fetched) {
    const uint8_t* image = *dm_.PageData(page);
    EXPECT_NE(data, image) << "page " << page;
    EXPECT_EQ(std::memcmp(data, image, dm_.page_size()), 0) << "page " << page;
    ASSERT_TRUE(pool->UnpinPage(page, PagePriority::kNormal).ok());
  }
  EXPECT_EQ(backend->real_stats().reads, 2u);

  pool->SetIoPipeline(nullptr);
  ASSERT_TRUE(pool->FlushAll().ok());
  auto pulled = pool->FetchPage(1, 3);
  ASSERT_TRUE(pulled.ok());
  EXPECT_EQ(pulled->data, *dm_.PageData(1));
  ASSERT_TRUE(pool->UnpinPage(1, PagePriority::kNormal).ok());
  EXPECT_TRUE(pool->CheckInvariants().ok());
}

// A table file cut short after Open: the push-file fetch whose extent
// needs the missing bytes fails with the backend's typed EOF status. The
// read was issued, so its charge stays, but no page is installed, no frame
// leaks and the audit stays clean.
TEST_F(BufferPoolTest, TruncatedTableFileFailsFetchAndInstallsNothing) {
  const std::string path = testing::TempDir() + "/buffer_pool_truncated.tbl";
  auto backend = OpenTableFile(&dm_, path);
  ASSERT_NE(backend, nullptr);
  io::Prefetcher pipeline(backend.get(), /*ssm=*/nullptr,
                          /*residency=*/nullptr, /*extent_pages=*/4,
                          io::PrefetchOptions{});
  auto pool = MakePool(8, /*extent=*/4);
  pool->SetIoPipeline(&pipeline);

  // Pages [0, 6) survive; extent [4, 8) needs the lost pages 6 and 7.
  std::filesystem::resize_file(path, 6 * uint64_t{dm_.page_size()});
  const sim::DiskStats disk_before = env_.disk().stats();
  auto failed = pool->FetchPage(5, 0);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), Status::Code::kOutOfRange);
  EXPECT_NE(failed.status().ToString().find("unexpected EOF"),
            std::string::npos)
      << failed.status().ToString();
  EXPECT_EQ(pool->stats().misses, 1u);
  EXPECT_EQ(pool->stats().io_requests, 1u);
  EXPECT_EQ(pool->stats().physical_pages, 4u);
  EXPECT_EQ(env_.disk().stats().requests, disk_before.requests + 1);
  for (sim::PageId p = 4; p < 8; ++p) {
    EXPECT_FALSE(pool->Contains(p)) << "page " << p;
  }
  const Status audit = pool->CheckInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  // No frame leaked: with the file whole again, all 8 frames can be pinned
  // at once.
  ASSERT_TRUE(io::FileIoBackend::WriteTableFile(dm_, path).ok());
  for (sim::PageId p = 8; p < 16; ++p) {
    ASSERT_TRUE(pool->FetchPage(p, 1000 + p).ok()) << "page " << p;
  }
  EXPECT_TRUE(pool->CheckInvariants().ok());
}

}  // namespace
}  // namespace scanshare::buffer
