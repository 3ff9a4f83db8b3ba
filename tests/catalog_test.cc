#include "storage/catalog.h"

#include <gtest/gtest.h>

#include <vector>

#include "workload/mdc_gen.h"

namespace scanshare::storage {
namespace {

Schema SmallSchema() {
  return Schema({Column::Int64("k"), Column::Double("v")});
}

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : dm_(&env_), catalog_(&dm_) {}

  StatusOr<TableInfo> LoadTable(const std::string& name, int rows) {
    auto builder = catalog_.NewTableBuilder(name, SmallSchema());
    if (!builder.ok()) return builder.status();
    for (int i = 0; i < rows; ++i) {
      Status st = (*builder)->Add(
          {Value::Int64(i), Value::Double(static_cast<double>(i) * 0.5)});
      if (!st.ok()) return st;
    }
    return (*builder)->Finish();
  }

  sim::Env env_;
  DiskManager dm_;
  Catalog catalog_;
};

TEST_F(CatalogTest, LoadAndLookup) {
  auto info = LoadTable("t1", 100);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "t1");
  EXPECT_EQ(info->num_tuples, 100u);
  EXPECT_GE(info->num_pages, 1u);

  auto by_name = catalog_.GetTable("t1");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ((*by_name)->id, info->id);
  auto by_id = catalog_.GetTable(info->id);
  ASSERT_TRUE(by_id.ok());
  EXPECT_EQ((*by_id)->name, "t1");
}

TEST_F(CatalogTest, MissingTableNotFound) {
  EXPECT_EQ(catalog_.GetTable("nope").status().code(), Status::Code::kNotFound);
  EXPECT_EQ(catalog_.GetTable(TableId{99}).status().code(),
            Status::Code::kNotFound);
}

TEST_F(CatalogTest, DuplicateNameRejected) {
  ASSERT_TRUE(LoadTable("t1", 1).ok());
  EXPECT_EQ(catalog_.NewTableBuilder("t1", SmallSchema()).status().code(),
            Status::Code::kAlreadyExists);
}

TEST_F(CatalogTest, TablesArePhysicallyContiguous) {
  auto t1 = LoadTable("t1", 5000);
  ASSERT_TRUE(t1.ok());
  auto t2 = LoadTable("t2", 5000);
  ASSERT_TRUE(t2.ok());
  // Second table starts right after the first.
  EXPECT_EQ(t2->first_page, t1->end_page());
  EXPECT_EQ(catalog_.TotalTablePages(), t1->num_pages + t2->num_pages);
}

TEST_F(CatalogTest, LoadedPagesAreValidAndCarryPhysicalIds) {
  auto info = LoadTable("t1", 10000);
  ASSERT_TRUE(info.ok());
  uint64_t tuples = 0;
  for (sim::PageId p = info->first_page; p < info->end_page(); ++p) {
    auto data = dm_.PageData(p);
    ASSERT_TRUE(data.ok());
    PageView page(*data, dm_.page_size());
    ASSERT_TRUE(page.IsValid()) << "page " << p;
    EXPECT_EQ(page.page_id(), p);
    tuples += page.tuple_count();
  }
  EXPECT_EQ(tuples, info->num_tuples);
}

TEST_F(CatalogTest, TupleContentRoundTripsThroughLoad) {
  auto info = LoadTable("t1", 997);
  ASSERT_TRUE(info.ok());
  const Schema& schema = info->schema;
  int64_t expected = 0;
  for (sim::PageId p = info->first_page; p < info->end_page(); ++p) {
    auto data = dm_.PageData(p);
    ASSERT_TRUE(data.ok());
    PageView page(*data, dm_.page_size());
    for (uint16_t s = 0; s < page.tuple_count(); ++s) {
      const uint8_t* t = page.TupleDataUnchecked(s);
      ASSERT_EQ(schema.ReadInt64(t, 0), expected);
      ASSERT_DOUBLE_EQ(schema.ReadDouble(t, 1),
                       static_cast<double>(expected) * 0.5);
      ++expected;
    }
  }
  EXPECT_EQ(expected, 997);
}

// Frames alias page images, so an image must keep its address while
// later tables load and allocations grow the store.
TEST_F(CatalogTest, ImagesKeepTheirAddressesAsTheStoreGrows) {
  auto t1 = LoadTable("t1", 5000);
  ASSERT_TRUE(t1.ok());
  std::vector<const uint8_t*> images;
  for (sim::PageId p = t1->first_page; p < t1->end_page(); ++p) {
    images.push_back(*dm_.PageData(p));
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(LoadTable("more" + std::to_string(i), 3000 * (i + 1)).ok());
    ASSERT_TRUE(dm_.AllocateContiguous(17).ok());
  }
  for (sim::PageId p = t1->first_page; p < t1->end_page(); ++p) {
    EXPECT_EQ(*dm_.PageData(p), images[p - t1->first_page]) << "page " << p;
    EXPECT_TRUE(dm_.IsPageImage(p, images[p - t1->first_page])) << "page " << p;
    EXPECT_EQ(PageView(images[p - t1->first_page], dm_.page_size()).page_id(), p);
  }
}

// A Finish that fails adopts nothing: the store keeps its size, and the
// next table loads right where the failed one would have.
TEST_F(CatalogTest, FailedFinishAdoptsNothing) {
  auto first = catalog_.NewTableBuilder("dup", SmallSchema());
  auto second = catalog_.NewTableBuilder("dup", SmallSchema());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*second)->Add({Value::Int64(i), Value::Double(0.0)}).ok());
  }
  ASSERT_TRUE((*first)->Add({Value::Int64(1), Value::Double(1.0)}).ok());
  ASSERT_TRUE((*first)->Finish().ok());
  const uint64_t pages = dm_.num_pages();
  EXPECT_EQ((*second)->Finish().status().code(), Status::Code::kAlreadyExists);
  EXPECT_EQ(dm_.num_pages(), pages);
  EXPECT_EQ(catalog_.TotalTablePages(), pages);
  auto next = LoadTable("next", 10);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->first_page, pages);
}

// An MDC table pads each clustering cell to whole blocks. The padding
// pages are never written past their header, yet each reads back as a
// valid, empty page stamped with its physical id.
TEST_F(CatalogTest, MdcPaddingPagesAreValidEmptyAndCarryPhysicalIds) {
  workload::MdcOptions options;
  options.block_pages = 4;
  options.days_per_key = 360;
  auto info = workload::GenerateMdcLineitem(
      &catalog_, "mdc", workload::MdcLineitemRowsForPages(24), 7, options);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_pages % options.block_pages, 0u);
  uint64_t tuples = 0;
  uint64_t empty = 0;
  for (sim::PageId p = info->first_page; p < info->end_page(); ++p) {
    auto data = dm_.PageData(p);
    ASSERT_TRUE(data.ok());
    PageView page(*data, dm_.page_size());
    ASSERT_TRUE(page.IsValid()) << "page " << p;
    EXPECT_EQ(page.page_id(), p);
    if (page.tuple_count() == 0) {
      ++empty;
      EXPECT_EQ(page.free_space(), dm_.page_size() - 24u - 4u) << "page " << p;
    }
    tuples += page.tuple_count();
  }
  EXPECT_EQ(tuples, info->num_tuples);
  EXPECT_GT(empty, 0u) << "the layout produced no padding page";
}

TEST_F(CatalogTest, EmptyTableGetsOnePage) {
  auto info = LoadTable("empty", 0);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->num_tuples, 0u);
  EXPECT_EQ(info->num_pages, 1u);
}

TEST_F(CatalogTest, BuilderSingleUse) {
  auto builder = catalog_.NewTableBuilder("once", SmallSchema());
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE((*builder)->Add({Value::Int64(1), Value::Double(1.0)}).ok());
  ASSERT_TRUE((*builder)->Finish().ok());
  EXPECT_EQ((*builder)->Finish().status().code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ((*builder)->Add({Value::Int64(2), Value::Double(2.0)}).code(),
            Status::Code::kFailedPrecondition);
}

TEST_F(CatalogTest, TableNamesInCreationOrder) {
  ASSERT_TRUE(LoadTable("b", 1).ok());
  ASSERT_TRUE(LoadTable("a", 1).ok());
  auto names = catalog_.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "b");
  EXPECT_EQ(names[1], "a");
}

TEST_F(CatalogTest, BuilderRejectsRowWiderThanSchema) {
  auto builder = catalog_.NewTableBuilder("bad", SmallSchema());
  ASSERT_TRUE(builder.ok());
  EXPECT_FALSE((*builder)->Add({Value::Int64(1)}).ok());
}

}  // namespace
}  // namespace scanshare::storage
