#include "workload/mdc_gen.h"

#include <gtest/gtest.h>

#include <set>

#include "storage/page.h"
#include "workload/tpch_gen.h"

namespace scanshare::workload {
namespace {

class MdcGenTest : public ::testing::Test {
 protected:
  MdcGenTest() : dm_(&env_), catalog_(&dm_) {}

  MdcOptions SmallOptions() {
    MdcOptions o;
    o.block_pages = 4;
    o.num_regions = 2;
    o.days_per_key = 365;  // 7 keys.
    return o;
  }

  sim::Env env_;
  storage::DiskManager dm_;
  storage::Catalog catalog_;
};

TEST_F(MdcGenTest, SchemaHasClusteringColumns) {
  storage::Schema s = MdcLineitemSchema();
  EXPECT_TRUE(s.ColumnIndex("l_region").ok());
  EXPECT_TRUE(s.ColumnIndex("l_timekey").ok());
  EXPECT_TRUE(s.ColumnIndex("l_shipdate").ok());
}

TEST_F(MdcGenTest, NumTimeKeys) {
  MdcOptions o;
  o.days_per_key = 365;
  EXPECT_EQ(MdcNumTimeKeys(o), 7);
  o.days_per_key = 90;
  EXPECT_EQ(MdcNumTimeKeys(o), 29);  // ceil(2555 / 90)
  o.days_per_key = 30;
  EXPECT_EQ(MdcNumTimeKeys(o), 86);  // ceil(2555 / 30)
}

TEST_F(MdcGenTest, BadOptionsRejected) {
  MdcOptions o = SmallOptions();
  o.block_pages = 0;
  EXPECT_FALSE(GenerateMdcLineitem(&catalog_, "t", 100, 1, o).ok());
  o = SmallOptions();
  o.num_regions = 0;
  EXPECT_FALSE(GenerateMdcLineitem(&catalog_, "t", 100, 1, o).ok());
}

TEST_F(MdcGenTest, LoadsAllRowsAndAttachesIndex) {
  auto info = GenerateMdcLineitem(&catalog_, "mdc", 20000, 7, SmallOptions());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->num_tuples, 20000u);
  auto index = catalog_.GetBlockIndex("mdc");
  ASSERT_TRUE(index.ok());
  EXPECT_GT((*index)->total_blocks(), 0u);
  EXPECT_LE((*index)->num_keys(), 7u);
  // Table is whole blocks.
  EXPECT_EQ(info->num_pages % SmallOptions().block_pages, 0u);
}

TEST_F(MdcGenTest, EveryBlockHoldsExactlyOneCell) {
  const MdcOptions o = SmallOptions();
  auto info = GenerateMdcLineitem(&catalog_, "mdc", 30000, 9, o);
  ASSERT_TRUE(info.ok());
  const storage::Schema& schema = info->schema;
  const size_t region_col = *schema.ColumnIndex("l_region");
  const size_t key_col = *schema.ColumnIndex("l_timekey");

  const uint64_t num_blocks = info->num_pages / o.block_pages;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    std::set<std::pair<int64_t, int64_t>> cells_in_block;
    for (uint32_t i = 0; i < o.block_pages; ++i) {
      auto data = dm_.PageData(info->first_page + b * o.block_pages + i);
      ASSERT_TRUE(data.ok());
      storage::PageView page(*data, dm_.page_size());
      ASSERT_TRUE(page.IsValid());
      for (uint16_t s = 0; s < page.tuple_count(); ++s) {
        const uint8_t* t = page.TupleDataUnchecked(s);
        cells_in_block.insert(
            {schema.ReadInt64(t, region_col), schema.ReadInt64(t, key_col)});
      }
    }
    EXPECT_LE(cells_in_block.size(), 1u) << "block " << b << " mixes cells";
  }
}

TEST_F(MdcGenTest, IndexCoversExactlyTheRowsOfEachKey) {
  const MdcOptions o = SmallOptions();
  auto info = GenerateMdcLineitem(&catalog_, "mdc", 25000, 3, o);
  ASSERT_TRUE(info.ok());
  auto index = catalog_.GetBlockIndex("mdc");
  ASSERT_TRUE(index.ok());
  const storage::Schema& schema = info->schema;
  const size_t key_col = *schema.ColumnIndex("l_timekey");

  // Count rows per key via the index's blocks and via a full walk; they
  // must agree, and blocks listed for a key must only hold that key.
  std::map<int64_t, uint64_t> rows_via_index;
  for (int64_t key = 0; key < MdcNumTimeKeys(o); ++key) {
    for (storage::BlockId bid : (*index)->BlocksFor(key)) {
      for (uint32_t i = 0; i < o.block_pages; ++i) {
        auto data =
            dm_.PageData(info->first_page + static_cast<uint64_t>(bid) * o.block_pages + i);
        ASSERT_TRUE(data.ok());
        storage::PageView page(*data, dm_.page_size());
        for (uint16_t s = 0; s < page.tuple_count(); ++s) {
          const int64_t row_key =
              schema.ReadInt64(page.TupleDataUnchecked(s), key_col);
          ASSERT_EQ(row_key, key) << "block " << bid << " holds foreign key";
          ++rows_via_index[key];
        }
      }
    }
  }
  uint64_t total = 0;
  for (const auto& [key, n] : rows_via_index) total += n;
  EXPECT_EQ(total, info->num_tuples);
}

TEST_F(MdcGenTest, KeyRangeBlockSequenceIsNonMonotonicAcrossRegions) {
  const MdcOptions o = SmallOptions();  // 2 regions.
  auto info = GenerateMdcLineitem(&catalog_, "mdc", 30000, 5, o);
  ASSERT_TRUE(info.ok());
  auto index = catalog_.GetBlockIndex("mdc");
  ASSERT_TRUE(index.ok());
  // A single key's blocks live in two separated runs (one per region), so
  // the sequence of a one-key range must contain a backward-or-gap jump
  // larger than 1 between consecutive BIDs somewhere.
  auto sequence = (*index)->BlockSequence(3, 3);
  ASSERT_GE(sequence.size(), 2u);
  bool has_jump = false;
  for (size_t i = 1; i < sequence.size(); ++i) {
    if (sequence[i] != sequence[i - 1] + 1) has_jump = true;
  }
  EXPECT_TRUE(has_jump);
}

TEST_F(MdcGenTest, BlockSequenceOrderedByKeyThenBid) {
  const MdcOptions o = SmallOptions();
  auto info = GenerateMdcLineitem(&catalog_, "mdc", 15000, 13, o);
  ASSERT_TRUE(info.ok());
  auto index = catalog_.GetBlockIndex("mdc");
  auto seq_all = (*index)->BlockSequence(0, 6);
  EXPECT_EQ(seq_all.size(), (*index)->total_blocks());
  // Per-key subsequences are ascending.
  for (int64_t key = 0; key <= 6; ++key) {
    const auto& bids = (*index)->BlocksFor(key);
    for (size_t i = 1; i < bids.size(); ++i) {
      EXPECT_LT(bids[i - 1], bids[i]);
    }
  }
}

TEST_F(MdcGenTest, DeterministicAcrossRuns) {
  auto a = GenerateMdcLineitem(&catalog_, "a", 8000, 99, SmallOptions());
  auto b = GenerateMdcLineitem(&catalog_, "b", 8000, 99, SmallOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->num_pages, b->num_pages);
  for (uint64_t i = 0; i < a->num_pages; ++i) {
    auto pa = dm_.PageData(a->first_page + i);
    auto pb = dm_.PageData(b->first_page + i);
    EXPECT_EQ(std::memcmp(*pa + 24, *pb + 24, dm_.page_size() - 24), 0)
        << "page " << i;
  }
}

TEST_F(MdcGenTest, RangeBlockCountMatchesSequence) {
  auto info = GenerateMdcLineitem(&catalog_, "mdc", 12000, 17, SmallOptions());
  ASSERT_TRUE(info.ok());
  auto index = catalog_.GetBlockIndex("mdc");
  for (int64_t lo = 0; lo <= 6; lo += 2) {
    for (int64_t hi = lo; hi <= 6; hi += 2) {
      EXPECT_EQ((*index)->BlockCountInRange(lo, hi),
                (*index)->BlockSequence(lo, hi).size());
    }
  }
}

}  // namespace
}  // namespace scanshare::workload
