#include "workload/mdc_gen.h"

#include <cstring>
#include <vector>

#include "common/random.h"
#include "storage/block_index.h"
#include "workload/tpch_gen.h"

namespace scanshare::workload {

using storage::Column;
using storage::Schema;

Schema MdcLineitemSchema() {
  return Schema({
      Column::Int64("l_orderkey"),
      Column::Int64("l_partkey"),
      Column::Int64("l_suppkey"),
      Column::Double("l_quantity"),
      Column::Double("l_extendedprice"),
      Column::Double("l_discount"),
      Column::Double("l_tax"),
      Column::Char("l_returnflag", 1),
      Column::Char("l_linestatus", 1),
      Column::Int64("l_shipdate"),
      Column::Int64("l_region"),
      Column::Int64("l_timekey"),
  });
}

int64_t MdcNumTimeKeys(const MdcOptions& options) {
  return (kShipDateDays + options.days_per_key - 1) / options.days_per_key;
}

StatusOr<storage::TableInfo> GenerateMdcLineitem(storage::Catalog* catalog,
                                                 const std::string& name,
                                                 uint64_t num_rows,
                                                 uint64_t seed,
                                                 const MdcOptions& options) {
  if (options.block_pages == 0 || options.num_regions == 0 ||
      options.days_per_key <= 0) {
    return Status::InvalidArgument("GenerateMdcLineitem: bad MdcOptions");
  }
  Schema schema = MdcLineitemSchema();
  Rng rng(seed);

  // Generate rows and bucket them by clustering cell (region, timekey),
  // appending each row's bytes to its cell's one flat buffer. The row
  // *contents* are generated in a single deterministic stream; only their
  // physical placement is clustered.
  const int64_t num_keys = MdcNumTimeKeys(options);
  const size_t num_cells =
      static_cast<size_t>(options.num_regions) * static_cast<size_t>(num_keys);
  std::vector<std::vector<uint8_t>> cells(num_cells);

  static const char kFlags[3] = {'A', 'N', 'R'};
  static const char kStatus[2] = {'O', 'F'};
  std::vector<uint8_t> tuple(schema.tuple_width());
  const auto put_i64 = [&](size_t col, int64_t v) {
    std::memcpy(tuple.data() + schema.offset(col), &v, sizeof(v));
  };
  const auto put_f64 = [&](size_t col, double v) {
    std::memcpy(tuple.data() + schema.offset(col), &v, sizeof(v));
  };

  for (uint64_t i = 0; i < num_rows; ++i) {
    const double quantity = static_cast<double>(rng.UniformRange(1, 50));
    const double price =
        900.0 + static_cast<double>(rng.UniformRange(0, 104000)) / 100.0;
    const double discount = static_cast<double>(rng.UniformRange(0, 10)) / 100.0;
    const double tax = static_cast<double>(rng.UniformRange(0, 8)) / 100.0;
    const int64_t shipdate = rng.UniformRange(kShipDateMin, kShipDateDays - 1);
    const int64_t region =
        rng.UniformRange(0, static_cast<int64_t>(options.num_regions) - 1);
    const int64_t timekey = shipdate / options.days_per_key;

    put_i64(0, static_cast<int64_t>(i / 4 + 1));
    put_i64(1, rng.UniformRange(1, 200000));
    put_i64(2, rng.UniformRange(1, 10000));
    put_f64(3, quantity);
    put_f64(4, price);
    put_f64(5, discount);
    put_f64(6, tax);
    tuple[schema.offset(7)] = static_cast<uint8_t>(kFlags[rng.Uniform(3)]);
    tuple[schema.offset(8)] = static_cast<uint8_t>(kStatus[rng.Uniform(2)]);
    put_i64(9, shipdate);
    put_i64(10, region);
    put_i64(11, timekey);

    const size_t cell = static_cast<size_t>(region) * static_cast<size_t>(num_keys) +
                        static_cast<size_t>(timekey);
    cells[cell].insert(cells[cell].end(), tuple.begin(), tuple.end());
  }

  // Load region-major: every cell starts on a block boundary, so each
  // block belongs to exactly one cell (the MDC invariant).
  SCANSHARE_ASSIGN_OR_RETURN(auto builder, catalog->NewTableBuilder(name, schema));
  storage::BlockIndex index(options.block_pages);
  for (uint32_t region = 0; region < options.num_regions; ++region) {
    for (int64_t key = 0; key < num_keys; ++key) {
      const size_t cell = static_cast<size_t>(region) * static_cast<size_t>(num_keys) +
                          static_cast<size_t>(key);
      if (cells[cell].empty()) continue;
      SCANSHARE_RETURN_IF_ERROR(builder->PadToPageMultiple(options.block_pages));
      const uint64_t first_block = builder->staged_pages() / options.block_pages;
      for (size_t at = 0; at < cells[cell].size(); at += tuple.size()) {
        SCANSHARE_RETURN_IF_ERROR(builder->AddEncoded(
            cells[cell].data() + at, static_cast<uint16_t>(tuple.size())));
      }
      SCANSHARE_RETURN_IF_ERROR(builder->PadToPageMultiple(options.block_pages));
      const uint64_t end_block = builder->staged_pages() / options.block_pages;
      for (uint64_t b = first_block; b < end_block; ++b) {
        index.AddBlock(key, static_cast<storage::BlockId>(b));
      }
      cells[cell].clear();
      cells[cell].shrink_to_fit();
    }
  }
  // Round the table out to a whole number of blocks.
  SCANSHARE_RETURN_IF_ERROR(builder->PadToPageMultiple(options.block_pages));

  SCANSHARE_ASSIGN_OR_RETURN(storage::TableInfo info, builder->Finish());
  SCANSHARE_RETURN_IF_ERROR(catalog->AttachBlockIndex(name, std::move(index)));
  return info;
}

uint64_t MdcLineitemRowsForPages(uint64_t data_pages) {
  const Schema schema = MdcLineitemSchema();
  const uint64_t per_page =
      (storage::kDefaultPageSize - 24) / (schema.tuple_width() + 4);
  return data_pages * per_page;
}

}  // namespace scanshare::workload
