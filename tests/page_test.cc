#include "storage/page.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace scanshare::storage {
namespace {

class PageTest : public ::testing::Test {
 protected:
  PageTest() : buf_(kDefaultPageSize, 0xAB), page_(buf_.data(), kDefaultPageSize) {}

  std::vector<uint8_t> buf_;
  Page page_;
};

TEST_F(PageTest, InitFormatsEmptyPage) {
  ASSERT_TRUE(page_.Init(7).ok());
  EXPECT_TRUE(page_.IsValid());
  EXPECT_EQ(page_.page_id(), 7u);
  EXPECT_EQ(page_.tuple_count(), 0u);
  EXPECT_GT(page_.free_space(), 32000u);
}

// Readers hold the read-only PageView; a Page is one, so what the loader
// writes through a Page reads back identically through a view.
TEST_F(PageTest, ReadOnlyViewSeesPageContents) {
  ASSERT_TRUE(page_.Init(9).ok());
  const uint8_t data[] = {4, 5, 6};
  ASSERT_TRUE(page_.InsertTuple(data, sizeof(data)).ok());

  const uint8_t* bytes = buf_.data();
  const PageView view(bytes, kDefaultPageSize);
  EXPECT_TRUE(view.IsValid());
  EXPECT_EQ(view.page_id(), 9u);
  EXPECT_EQ(view.tuple_count(), 1u);
  EXPECT_EQ(view.free_space(), page_.free_space());
  auto got = view.GetTuple(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::memcmp(*got, data, sizeof(data)), 0);
  EXPECT_EQ(view.TupleDataUnchecked(0), *got);
  EXPECT_EQ(view.GetTuple(1).status().code(), Status::Code::kOutOfRange);

  const PageView& as_view = page_;
  EXPECT_EQ(as_view.data(), view.data());
}

TEST_F(PageTest, UnformattedBufferIsInvalid) {
  EXPECT_FALSE(page_.IsValid());
}

TEST_F(PageTest, InsertAndGetRoundTrip) {
  ASSERT_TRUE(page_.Init(1).ok());
  const uint8_t data[] = {1, 2, 3, 4, 5};
  auto slot = page_.InsertTuple(data, sizeof(data));
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(*slot, 0u);
  EXPECT_EQ(page_.tuple_count(), 1u);

  auto got = page_.GetTuple(*slot);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::memcmp(*got, data, sizeof(data)), 0);
  auto len = page_.GetTupleLength(*slot);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, sizeof(data));
}

TEST_F(PageTest, SlotsAssignedSequentially) {
  ASSERT_TRUE(page_.Init(1).ok());
  const uint8_t data[8] = {0};
  for (uint16_t i = 0; i < 10; ++i) {
    auto slot = page_.InsertTuple(data, sizeof(data));
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(*slot, i);
  }
  EXPECT_EQ(page_.tuple_count(), 10u);
}

TEST_F(PageTest, TuplesPreservedAcrossInserts) {
  ASSERT_TRUE(page_.Init(1).ok());
  std::vector<std::vector<uint8_t>> tuples;
  for (uint16_t i = 0; i < 50; ++i) {
    std::vector<uint8_t> t(16, static_cast<uint8_t>(i));
    ASSERT_TRUE(page_.InsertTuple(t.data(), 16).ok());
    tuples.push_back(std::move(t));
  }
  for (uint16_t i = 0; i < 50; ++i) {
    auto got = page_.GetTuple(i);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(std::memcmp(*got, tuples[i].data(), 16), 0) << "slot " << i;
  }
}

TEST_F(PageTest, FillUntilExhausted) {
  ASSERT_TRUE(page_.Init(1).ok());
  const std::vector<uint8_t> t(100, 0x5A);
  int inserted = 0;
  while (true) {
    auto slot = page_.InsertTuple(t.data(), 100);
    if (!slot.ok()) {
      EXPECT_EQ(slot.status().code(), Status::Code::kResourceExhausted);
      break;
    }
    ++inserted;
  }
  // 32 KiB / (100 + 4 slot bytes) ~ 314 tuples.
  EXPECT_GT(inserted, 300);
  EXPECT_LT(inserted, 330);
  EXPECT_EQ(page_.tuple_count(), inserted);
  // Page is still fully readable after exhaustion.
  auto got = page_.GetTuple(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::memcmp(*got, t.data(), 100), 0);
}

TEST_F(PageTest, ZeroLengthTupleRejected) {
  ASSERT_TRUE(page_.Init(1).ok());
  const uint8_t b = 0;
  auto slot = page_.InsertTuple(&b, 0);
  EXPECT_FALSE(slot.ok());
  EXPECT_EQ(slot.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(PageTest, GetOutOfRangeSlot) {
  ASSERT_TRUE(page_.Init(1).ok());
  EXPECT_EQ(page_.GetTuple(0).status().code(), Status::Code::kOutOfRange);
  const uint8_t data[4] = {0};
  ASSERT_TRUE(page_.InsertTuple(data, 4).ok());
  EXPECT_TRUE(page_.GetTuple(0).ok());
  EXPECT_EQ(page_.GetTuple(1).status().code(), Status::Code::kOutOfRange);
  EXPECT_EQ(page_.GetTupleLength(1).status().code(), Status::Code::kOutOfRange);
}

TEST_F(PageTest, FreeSpaceDecreasesByTuplePlusSlot) {
  ASSERT_TRUE(page_.Init(1).ok());
  const uint32_t before = page_.free_space();
  const uint8_t data[10] = {0};
  ASSERT_TRUE(page_.InsertTuple(data, 10).ok());
  EXPECT_EQ(page_.free_space(), before - 10 - 4);  // 4-byte slot entry.
}

TEST_F(PageTest, SetPageIdRewritesOnlyId) {
  ASSERT_TRUE(page_.Init(3).ok());
  const uint8_t data[4] = {9, 9, 9, 9};
  ASSERT_TRUE(page_.InsertTuple(data, 4).ok());
  page_.SetPageId(42);
  EXPECT_EQ(page_.page_id(), 42u);
  EXPECT_TRUE(page_.IsValid());
  EXPECT_EQ(page_.tuple_count(), 1u);
  auto got = page_.GetTuple(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(std::memcmp(*got, data, 4), 0);
}

TEST(PageSizeTest, TinyPageRejected) {
  std::vector<uint8_t> buf(8, 0);
  Page page(buf.data(), 8);
  EXPECT_EQ(page.Init(0).code(), Status::Code::kInvalidArgument);
}

TEST(PageSizeTest, OversizePageRejected) {
  std::vector<uint8_t> buf(128 * 1024, 0);
  Page page(buf.data(), 128 * 1024);  // 16-bit offsets cannot address this.
  EXPECT_EQ(page.Init(0).code(), Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace scanshare::storage
