#include "workload/tpch_gen.h"

#include <gtest/gtest.h>

#include "storage/page.h"

namespace scanshare::workload {
namespace {

class TpchGenTest : public ::testing::Test {
 protected:
  TpchGenTest() : dm_(&env_), catalog_(&dm_) {}

  sim::Env env_;
  storage::DiskManager dm_;
  storage::Catalog catalog_;
};

TEST_F(TpchGenTest, LineitemSchemaColumns) {
  storage::Schema s = LineitemSchema();
  EXPECT_EQ(s.num_columns(), 12u);
  EXPECT_TRUE(s.ColumnIndex("l_quantity").ok());
  EXPECT_TRUE(s.ColumnIndex("l_extendedprice").ok());
  EXPECT_TRUE(s.ColumnIndex("l_discount").ok());
  EXPECT_TRUE(s.ColumnIndex("l_returnflag").ok());
  EXPECT_TRUE(s.ColumnIndex("l_shipdate").ok());
}

TEST_F(TpchGenTest, GeneratesRequestedRowCount) {
  auto info = GenerateLineitem(&catalog_, "li", 12345, 1);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_tuples, 12345u);
  EXPECT_GT(info->num_pages, 30u);
}

TEST_F(TpchGenTest, DeterministicAcrossRuns) {
  auto a = GenerateLineitem(&catalog_, "a", 5000, 99);
  auto b = GenerateLineitem(&catalog_, "b", 5000, 99);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->num_pages, b->num_pages);
  for (uint64_t i = 0; i < a->num_pages; ++i) {
    auto pa = dm_.PageData(a->first_page + i);
    auto pb = dm_.PageData(b->first_page + i);
    ASSERT_TRUE(pa.ok() && pb.ok());
    // Skip the page header (carries the physical id); compare bodies.
    EXPECT_EQ(std::memcmp(*pa + 24, *pb + 24, dm_.page_size() - 24), 0)
        << "page " << i;
  }
}

TEST_F(TpchGenTest, DifferentSeedsDiffer) {
  auto a = GenerateLineitem(&catalog_, "a", 1000, 1);
  auto b = GenerateLineitem(&catalog_, "b", 1000, 2);
  ASSERT_TRUE(a.ok() && b.ok());
  auto pa = dm_.PageData(a->first_page);
  auto pb = dm_.PageData(b->first_page);
  EXPECT_NE(std::memcmp(*pa + 24, *pb + 24, dm_.page_size() - 24), 0);
}

TEST_F(TpchGenTest, ColumnValuesWithinDomains) {
  auto info = GenerateLineitem(&catalog_, "li", 20000, 5);
  ASSERT_TRUE(info.ok());
  const storage::Schema& s = info->schema;
  const size_t qty = *s.ColumnIndex("l_quantity");
  const size_t price = *s.ColumnIndex("l_extendedprice");
  const size_t disc = *s.ColumnIndex("l_discount");
  const size_t tax = *s.ColumnIndex("l_tax");
  const size_t flag = *s.ColumnIndex("l_returnflag");
  const size_t status = *s.ColumnIndex("l_linestatus");
  const size_t ship = *s.ColumnIndex("l_shipdate");

  uint64_t rows = 0;
  for (sim::PageId p = info->first_page; p < info->end_page(); ++p) {
    auto data = dm_.PageData(p);
    ASSERT_TRUE(data.ok());
    storage::PageView page(*data, dm_.page_size());
    ASSERT_TRUE(page.IsValid());
    for (uint16_t slot = 0; slot < page.tuple_count(); ++slot) {
      const uint8_t* t = page.TupleDataUnchecked(slot);
      const double q = s.ReadDouble(t, qty);
      ASSERT_GE(q, 1.0);
      ASSERT_LE(q, 50.0);
      ASSERT_GE(s.ReadDouble(t, price), 900.0);
      const double d = s.ReadDouble(t, disc);
      ASSERT_GE(d, 0.0);
      ASSERT_LE(d, 0.10 + 1e-12);
      ASSERT_GE(s.ReadDouble(t, tax), 0.0);
      const char f = s.ReadChar(t, flag)[0];
      ASSERT_TRUE(f == 'A' || f == 'N' || f == 'R') << f;
      const char st = s.ReadChar(t, status)[0];
      ASSERT_TRUE(st == 'O' || st == 'F') << st;
      const int64_t sd = s.ReadInt64(t, ship);
      ASSERT_GE(sd, kShipDateMin);
      ASSERT_LT(sd, kShipDateDays);
      ++rows;
    }
  }
  EXPECT_EQ(rows, 20000u);
}

TEST_F(TpchGenTest, ShipDatesRoughlyUniformOverSevenYears) {
  auto info = GenerateLineitem(&catalog_, "li", 70000, 11);
  ASSERT_TRUE(info.ok());
  const storage::Schema& s = info->schema;
  const size_t ship = *s.ColumnIndex("l_shipdate");
  uint64_t per_year[7] = {0};
  for (sim::PageId p = info->first_page; p < info->end_page(); ++p) {
    auto data = dm_.PageData(p);
    storage::PageView page(*data, dm_.page_size());
    for (uint16_t slot = 0; slot < page.tuple_count(); ++slot) {
      const int64_t d = s.ReadInt64(page.TupleDataUnchecked(slot), ship);
      ++per_year[d / 365];
    }
  }
  for (uint64_t c : per_year) {
    EXPECT_GT(c, 8500u);   // ~10000 expected per year.
    EXPECT_LT(c, 11500u);
  }
}

TEST_F(TpchGenTest, OrdersTableLoads) {
  auto info = GenerateOrders(&catalog_, "orders", 3000, 3);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_tuples, 3000u);
  EXPECT_TRUE(info->schema.ColumnIndex("o_orderpriority").ok());
}

TEST_F(TpchGenTest, RowsForPagesApproximation) {
  const uint64_t rows = LineitemRowsForPages(100);
  auto info = GenerateLineitem(&catalog_, "li", rows, 21);
  ASSERT_TRUE(info.ok());
  // The estimate must land within 5 % of the requested page count.
  EXPECT_GE(info->num_pages, 95u);
  EXPECT_LE(info->num_pages, 105u);
}

}  // namespace
}  // namespace scanshare::workload
