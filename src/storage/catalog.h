// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Catalog: table metadata and bulk loading. Tables are stored as physically
// contiguous page ranges (the layout produced by a clustering reorg, which
// is the regime the paper's sequential table scans assume).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/block_index.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/page_arena.h"
#include "storage/schema.h"

namespace scanshare::storage {

/// Identifier assigned to each table by the catalog.
using TableId = uint32_t;

/// Metadata describing one loaded table.
struct TableInfo {
  TableId id = 0;            ///< Catalog-assigned id.
  std::string name;          ///< Unique table name.
  Schema schema;             ///< Tuple layout.
  sim::PageId first_page = sim::kInvalidPageId;  ///< First page of the heap.
  uint64_t num_pages = 0;    ///< Contiguous pages occupied.
  uint64_t num_tuples = 0;   ///< Total rows loaded.

  /// One-past-the-last page of the heap.
  sim::PageId end_page() const { return first_page + num_pages; }
};

/// Accumulates rows for a table and formats slotted pages straight into
/// private PageArenas; Finish() hands them to the DiskManager as a
/// contiguous page range, copying nothing.
///
/// Obtained from Catalog::NewTableBuilder(); single use.
class TableBuilder {
 public:
  /// Appends one row (validated against the schema).
  [[nodiscard]] Status Add(const std::vector<Value>& row);

  /// Appends a pre-encoded tuple (hot path for generators).
  [[nodiscard]] Status AddEncoded(const uint8_t* tuple, uint16_t length);

  /// Pages staged so far (the last may still have free space).
  uint64_t staged_pages() const { return num_pages_; }

  /// Closes the current page and pads with empty pages until the staged
  /// page count is a multiple of `multiple` — used by the MDC loader to
  /// align clustering cells to block boundaries. `multiple` must be
  /// positive.
  [[nodiscard]] Status PadToPageMultiple(uint64_t multiple);

  /// Registers the table with the catalog, whose disk manager adopts the
  /// staged pages as the next page ids, and returns its metadata. A failed
  /// Finish adopts nothing. The builder is spent afterwards; further calls
  /// return FailedPrecondition.
  [[nodiscard]] StatusOr<TableInfo> Finish();

 private:
  friend class Catalog;
  TableBuilder(class Catalog* catalog, std::string name, Schema schema,
               uint32_t page_size);

  /// First arena size, in pages.
  static constexpr uint64_t kInitialArenaPages = 64;

  [[nodiscard]] Status StartNewPage();
  /// The page being filled (requires a staged page).
  Page LastPage() { return Page(last_page_, page_size_); }

  Catalog* catalog_;
  std::string name_;
  Schema schema_;
  uint32_t page_size_;
  // The staged pages fill arenas_ in order, each from its start; every
  // arena but the last is full. Growing maps one more arena rather than
  // remapping one, so a staged page never moves.
  std::vector<PageArena> arenas_;
  uint64_t capacity_ = 0;         // Pages arenas_ hold.
  uint64_t num_pages_ = 0;        // Pages staged.
  uint8_t* last_page_ = nullptr;  // The page being filled.
  uint64_t num_tuples_ = 0;
  bool finished_ = false;
  bool force_new_page_ = false;  // Set by PadToPageMultiple.
};

/// Name → table registry plus the bulk-load entry point.
class Catalog {
 public:
  /// The catalog loads data through `disk_manager` (not owned).
  explicit Catalog(DiskManager* disk_manager) : disk_(disk_manager) {}

  /// Starts a bulk load of a new table. Returns AlreadyExists if the name
  /// is taken.
  [[nodiscard]] StatusOr<std::unique_ptr<TableBuilder>> NewTableBuilder(std::string name,
                                                          Schema schema);

  /// Looks up a table by name.
  [[nodiscard]] StatusOr<const TableInfo*> GetTable(const std::string& name) const;
  /// Looks up a table by id.
  [[nodiscard]] StatusOr<const TableInfo*> GetTable(TableId id) const;

  /// Names of all registered tables, in creation order.
  std::vector<std::string> TableNames() const;

  /// Attaches an MDC block index to a loaded table (one per table).
  /// Returns NotFound for unknown tables, AlreadyExists for a second index.
  [[nodiscard]] Status AttachBlockIndex(const std::string& table, BlockIndex index);

  /// The block index of `table`, or NotFound if it has none.
  [[nodiscard]] StatusOr<const BlockIndex*> GetBlockIndex(const std::string& table) const;

  /// Total pages occupied by all tables (the "database size" used for
  /// buffer-pool sizing in the experiments).
  uint64_t TotalTablePages() const;

  /// The disk manager backing this catalog.
  DiskManager* disk_manager() const { return disk_; }

 private:
  friend class TableBuilder;
  /// Validates the `num_pages` pages that fill `arenas` (in the order
  /// DiskManager::Adopt reads them), stamps each with its physical id, and
  /// only then has the disk manager adopt them.
  [[nodiscard]] StatusOr<TableInfo> RegisterLoaded(std::string name, Schema schema,
                                                   std::vector<PageArena> arenas,
                                                   uint64_t num_pages,
                                                   uint64_t num_tuples);

  DiskManager* disk_;
  TableId next_id_ = 1;
  std::map<std::string, TableInfo> tables_by_name_;
  std::map<TableId, std::string> names_by_id_;
  std::map<std::string, BlockIndex> block_indexes_;
  std::vector<std::string> creation_order_;
};

}  // namespace scanshare::storage
