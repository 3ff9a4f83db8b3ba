#include "storage/disk_manager.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>


namespace scanshare::storage {
namespace {

TEST(DiskManagerTest, AllocateContiguousAssignsSequentialIds) {
  sim::Env env;
  DiskManager dm(&env);
  auto first = dm.AllocateContiguous(10);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0u);
  auto second = dm.AllocateContiguous(5);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 10u);
  EXPECT_EQ(dm.num_pages(), 15u);
}

TEST(DiskManagerTest, ZeroAllocationRejected) {
  sim::Env env;
  DiskManager dm(&env);
  EXPECT_EQ(dm.AllocateContiguous(0).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(DiskManagerTest, PagesStartZeroed) {
  sim::Env env;
  DiskManager dm(&env);
  ASSERT_TRUE(dm.AllocateContiguous(1).ok());
  auto data = dm.PageData(0);
  ASSERT_TRUE(data.ok());
  for (uint32_t i = 0; i < dm.page_size(); ++i) {
    ASSERT_EQ((*data)[i], 0u) << "byte " << i;
  }
}

TEST(DiskManagerTest, WritesPersist) {
  sim::Env env;
  DiskManager dm(&env);
  ASSERT_TRUE(dm.AllocateContiguous(2).ok());
  auto w = dm.MutablePageData(1);
  ASSERT_TRUE(w.ok());
  std::memset(*w, 0x7F, 64);
  auto r = dm.PageData(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 0x7F);
  EXPECT_EQ((*r)[63], 0x7F);
  EXPECT_EQ((*r)[64], 0x00);
}

// Buffer-pool frames alias page images, so an image must never move:
// growing the store (several reallocations of its page table) keeps every
// existing page at its address.
TEST(DiskManagerTest, PageDataStableAcrossGrowth) {
  sim::Env env;
  DiskManager dm(&env, 4096);
  ASSERT_TRUE(dm.AllocateContiguous(4).ok());
  std::vector<const uint8_t*> before;
  for (sim::PageId p = 0; p < 4; ++p) before.push_back(*dm.PageData(p));
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(dm.AllocateContiguous(64).ok());
  for (sim::PageId p = 0; p < 4; ++p) {
    EXPECT_EQ(*dm.PageData(p), before[p]) << "page " << p;
    EXPECT_TRUE(dm.IsPageImage(p, before[p])) << "page " << p;
  }
}

// The loader's path: adopted arenas' pages become the next ids where they
// lie, filling each arena from its start, and later growth — adopted or
// allocated — moves none of them.
std::vector<PageArena> Arenas(std::initializer_list<size_t> pages) {
  std::vector<PageArena> arenas;
  for (size_t n : pages) {
    auto arena = PageArena::Map(n * 4096);
    EXPECT_TRUE(arena.ok());
    arenas.push_back(std::move(*arena));
  }
  return arenas;
}

TEST(DiskManagerTest, AdoptKeepsImagesInPlaceAcrossGrowth) {
  sim::Env env;
  DiskManager dm(&env, 4096);
  ASSERT_TRUE(dm.AllocateContiguous(4).ok());
  std::vector<PageArena> arenas = Arenas({2, 3});
  uint8_t* a = arenas[0].data();
  uint8_t* b = arenas[1].data();
  b[4096 + 7] = 0xAB;
  // Four pages: both of the first arena's, then two of the second's; its
  // third page stays unaddressable.
  auto first = dm.Adopt(std::move(arenas), 4);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 4u);
  EXPECT_EQ(dm.num_pages(), 8u);
  EXPECT_EQ(*dm.PageData(4), a);
  EXPECT_EQ(*dm.PageData(5), a + 4096);
  EXPECT_EQ(*dm.PageData(6), b);
  EXPECT_EQ(*dm.PageData(7), b + 4096);
  EXPECT_EQ((*dm.PageData(7))[7], 0xAB);
  EXPECT_EQ(dm.PageData(8).status().code(), Status::Code::kOutOfRange);

  std::vector<const uint8_t*> before;
  for (sim::PageId p = 0; p < 8; ++p) before.push_back(*dm.PageData(p));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(dm.AllocateContiguous(64).ok());
    ASSERT_TRUE(dm.Adopt(Arenas({16}), 16).ok());
  }
  EXPECT_EQ(dm.num_pages(), 8u + 8 * (64 + 16));
  for (sim::PageId p = 0; p < 8; ++p) {
    EXPECT_EQ(*dm.PageData(p), before[p]) << "page " << p;
    EXPECT_TRUE(dm.IsPageImage(p, before[p])) << "page " << p;
  }
  EXPECT_EQ((*dm.PageData(7))[7], 0xAB);
}

TEST(DiskManagerTest, AdoptRejectsZeroPagesAndShortArenas) {
  sim::Env env;
  DiskManager dm(&env, 4096);
  ASSERT_TRUE(dm.AllocateContiguous(2).ok());
  EXPECT_EQ(dm.Adopt(Arenas({2, 1}), 4).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(dm.Adopt(Arenas({1}), 0).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(dm.Adopt({}, 1).status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(dm.num_pages(), 2u);
}

TEST(PageArenaTest, MapsZeroFilledMemory) {
  EXPECT_EQ(PageArena::Map(0).status().code(), Status::Code::kInvalidArgument);
  auto arena = PageArena::Map(3 * 4096);
  ASSERT_TRUE(arena.ok());
  ASSERT_NE(arena->data(), nullptr);
  EXPECT_EQ(arena->size(), 3u * 4096);
  for (size_t i = 0; i < arena->size(); ++i) ASSERT_EQ(arena->data()[i], 0);
}

TEST(PageArenaTest, MoveHandsOverTheMapping) {
  auto mapped = PageArena::Map(4096);
  ASSERT_TRUE(mapped.ok());
  uint8_t* region = mapped->data();
  PageArena a(std::move(*mapped));
  EXPECT_EQ(mapped->data(), nullptr);
  EXPECT_EQ(mapped->size(), 0u);
  EXPECT_EQ(a.data(), region);
  PageArena b;
  b = std::move(a);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(b.data(), region);
  EXPECT_EQ(b.size(), 4096u);
  region[10] = 1;  // Still mapped.
  EXPECT_EQ(b.data()[10], 1);
}

// IsPageImage is the auditor's question: it names exactly one page's
// image and never goes through the media-fault shim.
TEST(DiskManagerTest, IsPageImageBypassesFaultShim) {
  sim::Env env;
  DiskManager dm(&env, 4096);
  ASSERT_TRUE(dm.AllocateContiguous(4).ok());
  const uint8_t* image = *dm.PageData(2);
  dm.SetPageDataFaultRange(0, 4);
  EXPECT_TRUE(dm.IsPageImage(2, image));
  EXPECT_FALSE(dm.IsPageImage(1, image));
  EXPECT_FALSE(dm.IsPageImage(9, image));
  EXPECT_EQ(dm.page_data_faults_injected(), 0u);
}

TEST(DiskManagerTest, UnallocatedAccessRejected) {
  sim::Env env;
  DiskManager dm(&env);
  EXPECT_EQ(dm.PageData(0).status().code(), Status::Code::kOutOfRange);
  EXPECT_EQ(dm.MutablePageData(3).status().code(), Status::Code::kOutOfRange);
}

TEST(DiskManagerTest, ChargedReadHitsSimDisk) {
  sim::Env env;
  DiskManager dm(&env);
  ASSERT_TRUE(dm.AllocateContiguous(32).ok());
  auto io = dm.ChargedRead(0, 16, 0);
  ASSERT_TRUE(io.ok());
  EXPECT_EQ(env.disk().stats().pages_read, 16u);
  EXPECT_EQ(env.disk().stats().requests, 1u);
}

TEST(DiskManagerTest, ChargedReadBoundsChecked) {
  sim::Env env;
  DiskManager dm(&env);
  ASSERT_TRUE(dm.AllocateContiguous(8).ok());
  EXPECT_EQ(dm.ChargedRead(0, 16, 0).status().code(), Status::Code::kOutOfRange);
  EXPECT_EQ(dm.ChargedRead(8, 1, 0).status().code(), Status::Code::kOutOfRange);
  EXPECT_EQ(dm.ChargedRead(0, 0, 0).status().code(),
            Status::Code::kInvalidArgument);
}

TEST(DiskManagerTest, CustomPageSize) {
  sim::Env env;
  DiskManager dm(&env, 4096);
  EXPECT_EQ(dm.page_size(), 4096u);
  ASSERT_TRUE(dm.AllocateContiguous(1).ok());
  auto w = dm.MutablePageData(0);
  ASSERT_TRUE(w.ok());
  std::memset(*w, 1, 4096);  // Must not overflow.
}

TEST(DiskManagerTest, PageDataFaultRangeFailsOnlyChargedCopyPath) {
  sim::Env env;
  DiskManager dm(&env);
  ASSERT_TRUE(dm.AllocateContiguous(8).ok());
  dm.SetPageDataFaultRange(2, 4);

  // The charged read itself still succeeds — the media fault surfaces on
  // the per-page copy, which is what lets a buffer-pool extent install
  // fail midway after the disk request was charged.
  EXPECT_TRUE(dm.ChargedRead(0, 8, 0).ok());
  EXPECT_TRUE(dm.PageData(1).ok());
  EXPECT_EQ(dm.PageData(2).status().code(), Status::Code::kCorruption);
  EXPECT_EQ(dm.PageData(3).status().code(), Status::Code::kCorruption);
  EXPECT_TRUE(dm.PageData(4).ok());
  EXPECT_EQ(dm.page_data_faults_injected(), 2u);

  // The bulk-load path is unaffected.
  EXPECT_TRUE(dm.MutablePageData(2).ok());

  dm.ClearPageDataFaults();
  EXPECT_TRUE(dm.PageData(2).ok());
}

TEST(DiskManagerTest, ChargedReadPropagatesInjectedDiskFault) {
  sim::Env env;
  DiskManager dm(&env);
  ASSERT_TRUE(dm.AllocateContiguous(8).ok());
  sim::DiskFaultOptions faults;
  faults.fail_nth_read = 1;
  env.disk().SetFaults(faults);

  const sim::DiskStats before = env.disk().stats();
  EXPECT_EQ(dm.ChargedRead(0, 4, 0).status().code(),
            Status::Code::kCorruption);
  EXPECT_EQ(env.disk().stats().requests, before.requests);
  EXPECT_EQ(env.disk().stats().busy_micros, before.busy_micros);
  EXPECT_TRUE(dm.ChargedRead(0, 4, 0).ok());  // One-shot.
}

}  // namespace
}  // namespace scanshare::storage
