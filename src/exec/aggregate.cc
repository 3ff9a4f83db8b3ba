#include "exec/aggregate.h"

#include <algorithm>
#include <limits>

namespace scanshare::exec {

const GroupResult* QueryOutput::FindGroup(const std::string& key) const {
  for (const GroupResult& g : groups) {
    if (g.key == key) return &g;
  }
  return nullptr;
}

Aggregator::Aggregator(std::vector<AggSpec> specs,
                       std::vector<std::string> group_by)
    : specs_(std::move(specs)), group_by_names_(std::move(group_by)) {}

namespace {

// First capacity of the group-id table; it doubles whenever it would pass
// half full.
constexpr size_t kIdTableCapacity = 16;

// Home bucket of packed key `key` in a table of mask + 1 entries.
size_t IdBucket(uint64_t key, size_t mask) {
  uint64_t h = key * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 32;
  return static_cast<size_t>(h) & mask;
}

// Folds v[0, m) into aggregate `op`'s accumulators in order, value s into
// at(s), the way Consume folds one value: std::min(acc, v) keeps acc on a
// tie or a NaN v. kCount has no accumulator; Finish reads the rows.
template <typename At>
void FoldLane(AggOp op, const double* v, size_t m, At at) {
  switch (op) {
    case AggOp::kCount:
      break;
    case AggOp::kSum:
    case AggOp::kAvg:
      for (size_t s = 0; s < m; ++s) at(s) += v[s];
      break;
    case AggOp::kMin:
      for (size_t s = 0; s < m; ++s) at(s) = std::min(at(s), v[s]);
      break;
    case AggOp::kMax:
      for (size_t s = 0; s < m; ++s) at(s) = std::max(at(s), v[s]);
      break;
  }
}

}  // namespace

Status Aggregator::Bind(const storage::Schema& schema) {
  for (AggSpec& spec : specs_) {
    if (spec.op != AggOp::kCount) {
      SCANSHARE_RETURN_IF_ERROR(spec.expr.Bind(schema));
    }
  }
  group_by_offsets_.clear();
  group_by_widths_.clear();
  key_width_ = 0;
  for (const std::string& name : group_by_names_) {
    SCANSHARE_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
    if (schema.column(idx).type != storage::TypeId::kChar) {
      return Status::InvalidArgument("Aggregator: group-by column '" + name +
                                     "' must be char");
    }
    group_by_offsets_.push_back(schema.offset(idx));
    group_by_widths_.push_back(schema.column(idx).width);
    key_width_ += schema.column(idx).width;
  }
  bound_ = true;
  return Status::OK();
}

void Aggregator::AppendKey(const uint8_t* tuple, std::string* key) const {
  for (size_t i = 0; i < group_by_offsets_.size(); ++i) {
    if (i > 0) key->push_back('|');
    const char* field =
        reinterpret_cast<const char*>(tuple + group_by_offsets_[i]);
    // Stop at the zero padding so keys are clean strings.
    size_t len = 0;
    while (len < group_by_widths_[i] && field[len] != '\0') ++len;
    key->append(field, len);
  }
}

uint32_t Aggregator::GroupSlot(const std::string& key) {
  const auto it = slots_.lower_bound(key);
  if (it != slots_.end() && it->first == key) return it->second;
  const auto slot = static_cast<uint32_t>(rows_.size());
  slots_.emplace_hint(it, key, slot);
  rows_.push_back(0);
  for (const AggSpec& spec : specs_) {
    acc_.push_back(spec.op == AggOp::kMin
                       ? std::numeric_limits<double>::infinity()
                   : spec.op == AggOp::kMax
                       ? -std::numeric_limits<double>::infinity()
                       : 0.0);
  }
  return slot;
}

void Aggregator::Consume(const storage::Schema& schema, const uint8_t* tuple) {
  key_scratch_.clear();
  AppendKey(tuple, &key_scratch_);
  const uint32_t slot = GroupSlot(key_scratch_);
  ++rows_[slot];
  double* acc = acc_.data() + size_t{slot} * specs_.size();
  for (size_t i = 0; i < specs_.size(); ++i) {
    switch (specs_[i].op) {
      case AggOp::kCount:
        break;  // Finish reads the group's rows.
      case AggOp::kSum:
      case AggOp::kAvg:
        acc[i] += specs_[i].expr.Eval(schema, tuple);
        break;
      case AggOp::kMin:
        acc[i] = std::min(acc[i], specs_[i].expr.Eval(schema, tuple));
        break;
      case AggOp::kMax:
        acc[i] = std::max(acc[i], specs_[i].expr.Eval(schema, tuple));
        break;
    }
  }
}

Status Aggregator::PrepareHot(const storage::Schema& schema) {
  if (!bound_) {
    return Status::FailedPrecondition("Aggregator::PrepareHot: not bound");
  }
  LaneProgram inputs;
  input_lane_.assign(specs_.size(), 0);
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].op != AggOp::kCount) {
      SCANSHARE_ASSIGN_OR_RETURN(input_lane_[i],
                                 inputs.Add(specs_[i].expr, schema));
    }
  }
  inputs_ = std::move(inputs);
  ResetIds();
  return Status::OK();
}

void Aggregator::ResetIds() {
  id_table_.assign(std::max(id_table_.size(), kIdTableCapacity), IdEntry{});
  id_table_used_ = 0;
}

uint32_t Aggregator::PackedSlot(uint64_t key, const uint8_t* tuple) {
  const size_t mask = id_table_.size() - 1;
  for (size_t h = IdBucket(key, mask); id_table_[h].slot != kNoSlot;
       h = (h + 1) & mask) {
    if (id_table_[h].key == key) return id_table_[h].slot;
  }
  // A raw encoding not seen yet: resolve its canonical group. Encodings
  // that differ only after a field's first NUL share that group's slot.
  key_scratch_.clear();
  AppendKey(tuple, &key_scratch_);
  const IdEntry entry{key, GroupSlot(key_scratch_)};
  if (2 * (id_table_used_ + 1) > id_table_.size()) {
    std::vector<IdEntry> old(2 * id_table_.size());
    old.swap(id_table_);
    for (const IdEntry& e : old) {
      if (e.slot != kNoSlot) PlaceId(e);
    }
  }
  PlaceId(entry);
  ++id_table_used_;
  return entry.slot;
}

void Aggregator::PlaceId(const IdEntry& entry) {
  const size_t mask = id_table_.size() - 1;
  size_t h = IdBucket(entry.key, mask);
  while (id_table_[h].slot != kNoSlot) h = (h + 1) & mask;
  id_table_[h] = entry;
}

void Aggregator::ResolveGroups(size_t m) {
  batch_slots_.resize(m);
  uint32_t* slots = batch_slots_.data();
  const uint8_t* const* tuples = batch_selected_.data();
  if (key_width_ > sizeof(uint64_t)) {
    // Too wide to pack: look each tuple's canonical key up in the map.
    for (size_t s = 0; s < m; ++s) {
      key_scratch_.clear();
      AppendKey(tuples[s], &key_scratch_);
      slots[s] = GroupSlot(key_scratch_);
    }
    return;
  }
  // Pack each tuple's group-by bytes into one word, one byte pass at a
  // time, then look the words up in the id table.
  batch_keys_.assign(m, 0);
  uint64_t* keys = batch_keys_.data();
  unsigned shift = 0;
  for (size_t c = 0; c < group_by_offsets_.size(); ++c) {
    for (uint32_t b = 0; b < group_by_widths_[c]; ++b, shift += 8) {
      const uint32_t at = group_by_offsets_[c] + b;
      for (size_t s = 0; s < m; ++s) {
        keys[s] |= uint64_t{tuples[s][at]} << shift;
      }
    }
  }
  for (size_t s = 0; s < m; ++s) slots[s] = PackedSlot(keys[s], tuples[s]);
}

size_t Aggregator::ConsumeBatch(const uint8_t* const* tuples,
                                const uint8_t* sel, size_t n) {
  // Phase 1: compact the selection, branch-free. Folding over the
  // compacted array visits exactly the selected slots in slot order — the
  // same sequence a Consume loop feeds each accumulator — while letting
  // the passes below run dense (no wasted lanes under a selective
  // predicate, no per-lane branch in the folds).
  batch_selected_.resize(n);
  size_t m = 0;
  for (size_t s = 0; s < n; ++s) {
    batch_selected_[m] = tuples[s];
    m += sel[s] != 0 ? 1 : 0;
  }
  if (m == 0) return 0;
  // Phase 2: evaluate every aggregate input over the selected tuples in
  // one program: each column is gathered once, each shared subtree
  // computed once.
  batch_lanes_.resize(inputs_.num_lanes() * m);
  inputs_.EvalBatch(batch_selected_.data(), m, batch_lanes_.data());
  const size_t num_aggs = specs_.size();
  auto lane = [&](size_t i) {
    return batch_lanes_.data() + size_t{input_lane_[i]} * m;
  };
  // Phase 3: fold one aggregate at a time, in slot order. Each
  // accumulator receives exactly the value sequence a Consume loop would
  // have fed it, so the floating-point result is bit-identical.
  if (group_by_offsets_.empty()) {
    // Every key is "": the one group is slot 0 once it exists.
    const uint32_t slot = rows_.empty() ? GroupSlot(std::string()) : 0;
    rows_[slot] += m;
    double* acc = acc_.data() + size_t{slot} * num_aggs;
    for (size_t i = 0; i < num_aggs; ++i) {
      double a = acc[i];  // Folded in a register.
      FoldLane(specs_[i].op, lane(i), m, [&a](size_t) -> double& { return a; });
      acc[i] = a;
    }
    return m;
  }
  // Grouped: one dense slot per selected tuple, the same fold for every
  // key width.
  ResolveGroups(m);
  const uint32_t* slots = batch_slots_.data();
  for (size_t s = 0; s < m; ++s) ++rows_[slots[s]];
  for (size_t i = 0; i < num_aggs; ++i) {
    // Slot g's accumulator for aggregate i is acc[g * num_aggs].
    double* acc = acc_.data() + i;
    FoldLane(specs_[i].op, lane(i), m, [&](size_t s) -> double& {
      return acc[slots[s] * num_aggs];
    });
  }
  return m;
}

QueryOutput Aggregator::Finish(uint64_t rows_scanned) const {
  QueryOutput out;
  out.rows_scanned = rows_scanned;
  for (const auto& [key, slot] : slots_) {
    const double* acc = acc_.data() + size_t{slot} * specs_.size();
    const uint64_t rows = rows_[slot];
    GroupResult result;
    result.key = key;
    result.rows = rows;
    out.rows_matched += rows;
    for (size_t i = 0; i < specs_.size(); ++i) {
      switch (specs_[i].op) {
        case AggOp::kCount:
          result.values.push_back(static_cast<double>(rows));
          break;
        case AggOp::kSum:
        case AggOp::kMin:
        case AggOp::kMax:
          result.values.push_back(acc[i]);
          break;
        case AggOp::kAvg:
          result.values.push_back(
              rows > 0 ? acc[i] / static_cast<double>(rows) : 0.0);
          break;
      }
    }
    out.groups.push_back(std::move(result));
  }
  // std::map iteration is already key-sorted; keep that order.
  return out;
}

}  // namespace scanshare::exec
