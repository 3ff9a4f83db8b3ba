#include "storage/catalog.h"

#include <algorithm>
#include <utility>

namespace scanshare::storage {

TableBuilder::TableBuilder(Catalog* catalog, std::string name, Schema schema,
                           uint32_t page_size)
    : catalog_(catalog),
      name_(std::move(name)),
      schema_(std::move(schema)),
      page_size_(page_size) {}

Status TableBuilder::StartNewPage() {
  if (num_pages_ == capacity_) {
    // One more arena as large as all before it doubles the capacity. The
    // spare room costs no memory: the kernel faults in only written pages.
    const uint64_t pages = std::max(capacity_, kInitialArenaPages);
    SCANSHARE_ASSIGN_OR_RETURN(PageArena arena, PageArena::Map(pages * page_size_));
    last_page_ = arena.data();
    arenas_.push_back(std::move(arena));
    capacity_ += pages;
  } else {
    last_page_ += page_size_;
  }
  ++num_pages_;
  // The final page id is assigned at Finish(); stage with the page's index.
  return LastPage().Init(num_pages_ - 1);
}

Status TableBuilder::Add(const std::vector<Value>& row) {
  std::vector<uint8_t> encoded;
  SCANSHARE_RETURN_IF_ERROR(schema_.EncodeTuple(row, &encoded));
  return AddEncoded(encoded.data(), static_cast<uint16_t>(encoded.size()));
}

Status TableBuilder::AddEncoded(const uint8_t* tuple, uint16_t length) {
  if (finished_) {
    return Status::FailedPrecondition("TableBuilder: already finished");
  }
  if (num_pages_ == 0 || force_new_page_) {
    SCANSHARE_RETURN_IF_ERROR(StartNewPage());
    force_new_page_ = false;
  }
  auto slot = LastPage().InsertTuple(tuple, length);
  if (!slot.ok()) {
    if (slot.status().code() != Status::Code::kResourceExhausted) {
      return slot.status();
    }
    SCANSHARE_RETURN_IF_ERROR(StartNewPage());
    auto retry = LastPage().InsertTuple(tuple, length);
    if (!retry.ok()) return retry.status();  // Tuple larger than a page.
  }
  ++num_tuples_;
  return Status::OK();
}

Status TableBuilder::PadToPageMultiple(uint64_t multiple) {
  if (finished_) {
    return Status::FailedPrecondition("TableBuilder: already finished");
  }
  if (multiple == 0) {
    return Status::InvalidArgument("PadToPageMultiple: multiple must be positive");
  }
  if (num_pages_ == 0) return Status::OK();  // Nothing staged yet.
  while (num_pages_ % multiple != 0) {
    SCANSHARE_RETURN_IF_ERROR(StartNewPage());  // Empty padding page.
  }
  // Seal the final page so the next Add opens a fresh one: rows appended
  // after the pad must land in the next page run, never in this one.
  force_new_page_ = true;
  return Status::OK();
}

StatusOr<TableInfo> TableBuilder::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("TableBuilder: already finished");
  }
  finished_ = true;
  if (num_pages_ == 0) {
    SCANSHARE_RETURN_IF_ERROR(StartNewPage());  // Allow empty tables.
  }
  return catalog_->RegisterLoaded(name_, schema_, std::move(arenas_), num_pages_,
                                  num_tuples_);
}

StatusOr<std::unique_ptr<TableBuilder>> Catalog::NewTableBuilder(std::string name,
                                                                 Schema schema) {
  if (tables_by_name_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  return std::unique_ptr<TableBuilder>(new TableBuilder(
      this, std::move(name), std::move(schema), disk_->page_size()));
}

StatusOr<TableInfo> Catalog::RegisterLoaded(std::string name, Schema schema,
                                            std::vector<PageArena> arenas,
                                            uint64_t num_pages,
                                            uint64_t num_tuples) {
  if (tables_by_name_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  const uint32_t page_size = disk_->page_size();
  const sim::PageId first = disk_->num_pages();
  uint64_t i = 0;
  for (const PageArena& arena : arenas) {
    for (size_t at = 0; at + page_size <= arena.size() && i < num_pages;
         at += page_size, ++i) {
      Page view(arena.data() + at, page_size);
      if (!view.IsValid()) {
        return Status::Corruption("staged page " + std::to_string(i) + " invalid");
      }
      // The staged header carries the staging index; patch in the physical id.
      view.SetPageId(first + i);
    }
  }
  SCANSHARE_RETURN_IF_ERROR(disk_->Adopt(std::move(arenas), num_pages).status());

  TableInfo info;
  info.id = next_id_++;
  info.name = name;
  info.schema = std::move(schema);
  info.first_page = first;
  info.num_pages = num_pages;
  info.num_tuples = num_tuples;

  names_by_id_[info.id] = name;
  creation_order_.push_back(name);
  auto [it, inserted] = tables_by_name_.emplace(std::move(name), std::move(info));
  (void)inserted;
  return it->second;
}

StatusOr<const TableInfo*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_by_name_.find(name);
  if (it == tables_by_name_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return static_cast<const TableInfo*>(&it->second);
}

StatusOr<const TableInfo*> Catalog::GetTable(TableId id) const {
  auto it = names_by_id_.find(id);
  if (it == names_by_id_.end()) {
    return Status::NotFound("no table with id " + std::to_string(id));
  }
  return GetTable(it->second);
}

std::vector<std::string> Catalog::TableNames() const { return creation_order_; }

Status Catalog::AttachBlockIndex(const std::string& table, BlockIndex index) {
  if (tables_by_name_.count(table) == 0) {
    return Status::NotFound("AttachBlockIndex: no table named '" + table + "'");
  }
  auto [it, inserted] = block_indexes_.emplace(table, std::move(index));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("AttachBlockIndex: table '" + table +
                                 "' already has a block index");
  }
  return Status::OK();
}

StatusOr<const BlockIndex*> Catalog::GetBlockIndex(const std::string& table) const {
  auto it = block_indexes_.find(table);
  if (it == block_indexes_.end()) {
    return Status::NotFound("no block index on table '" + table + "'");
  }
  return static_cast<const BlockIndex*>(&it->second);
}

uint64_t Catalog::TotalTablePages() const {
  uint64_t total = 0;
  for (const auto& [name, info] : tables_by_name_) total += info.num_pages;
  return total;
}

}  // namespace scanshare::storage
