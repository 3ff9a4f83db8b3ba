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

Aggregator::Aggregator(const Aggregator& other)
    : specs_(other.specs_),
      group_by_names_(other.group_by_names_),
      group_by_cols_(other.group_by_cols_),
      group_by_widths_(other.group_by_widths_),
      groups_(other.groups_),
      bound_(other.bound_) {}

Aggregator& Aggregator::operator=(const Aggregator& other) {
  if (this != &other) {
    specs_ = other.specs_;
    group_by_names_ = other.group_by_names_;
    group_by_cols_ = other.group_by_cols_;
    group_by_widths_ = other.group_by_widths_;
    groups_ = other.groups_;
    bound_ = other.bound_;
    hot_aggs_.clear();
    group_by_offsets_.clear();
    group_cache_.clear();
    ungrouped_ = nullptr;
  }
  return *this;
}

Status Aggregator::Bind(const storage::Schema& schema) {
  for (AggSpec& spec : specs_) {
    if (spec.op != AggOp::kCount) {
      SCANSHARE_RETURN_IF_ERROR(spec.expr.Bind(schema));
    }
  }
  group_by_cols_.clear();
  group_by_widths_.clear();
  for (const std::string& name : group_by_names_) {
    SCANSHARE_ASSIGN_OR_RETURN(size_t idx, schema.ColumnIndex(name));
    if (schema.column(idx).type != storage::TypeId::kChar) {
      return Status::InvalidArgument("Aggregator: group-by column '" + name +
                                     "' must be char");
    }
    group_by_cols_.push_back(idx);
    group_by_widths_.push_back(schema.column(idx).width);
  }
  bound_ = true;
  return Status::OK();
}

std::string Aggregator::MakeKey(const storage::Schema& schema,
                                const uint8_t* tuple) const {
  std::string key;
  for (size_t i = 0; i < group_by_cols_.size(); ++i) {
    const char* field = schema.ReadChar(tuple, group_by_cols_[i]);
    // Stop at the zero padding so keys are clean strings.
    size_t len = 0;
    while (len < group_by_widths_[i] && field[len] != '\0') ++len;
    key.append(field, len);
    if (i + 1 < group_by_cols_.size()) key.push_back('|');
  }
  return key;
}

void Aggregator::InitGroup(GroupState& g) const {
  g.acc.assign(specs_.size(), 0.0);
  g.cnt.assign(specs_.size(), 0);
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].op == AggOp::kMin) {
      g.acc[i] = std::numeric_limits<double>::infinity();
    } else if (specs_[i].op == AggOp::kMax) {
      g.acc[i] = -std::numeric_limits<double>::infinity();
    }
  }
}

void Aggregator::Consume(const storage::Schema& schema, const uint8_t* tuple) {
  GroupState& g = groups_[MakeKey(schema, tuple)];
  if (g.acc.empty()) InitGroup(g);
  ++g.rows;
  for (size_t i = 0; i < specs_.size(); ++i) {
    switch (specs_[i].op) {
      case AggOp::kCount:
        ++g.cnt[i];
        break;
      case AggOp::kSum:
      case AggOp::kAvg: {
        g.acc[i] += specs_[i].expr.Eval(schema, tuple);
        ++g.cnt[i];
        break;
      }
      case AggOp::kMin:
        g.acc[i] = std::min(g.acc[i], specs_[i].expr.Eval(schema, tuple));
        break;
      case AggOp::kMax:
        g.acc[i] = std::max(g.acc[i], specs_[i].expr.Eval(schema, tuple));
        break;
    }
  }
}

Status Aggregator::PrepareHot(const storage::Schema& schema) {
  if (!bound_) {
    return Status::FailedPrecondition("Aggregator::PrepareHot: not bound");
  }
  hot_aggs_.clear();
  hot_aggs_.reserve(specs_.size());
  for (const AggSpec& spec : specs_) {
    HotAgg agg;
    agg.op = spec.op;
    if (spec.op != AggOp::kCount) {
      SCANSHARE_ASSIGN_OR_RETURN(agg.expr, spec.expr.Compile(schema));
    }
    hot_aggs_.push_back(std::move(agg));
  }
  group_by_offsets_.clear();
  for (size_t idx : group_by_cols_) {
    group_by_offsets_.push_back(schema.offset(idx));
  }
  group_cache_.clear();
  ungrouped_ = nullptr;
  return Status::OK();
}

Aggregator::GroupState& Aggregator::HotGroup(const uint8_t* tuple) {
  if (group_by_offsets_.empty()) {
    if (ungrouped_ == nullptr) {
      GroupState& g = groups_[std::string()];
      if (g.acc.empty()) InitGroup(g);
      ungrouped_ = &g;
    }
    return *ungrouped_;
  }
  // Key the cache on the raw fixed-width bytes: no trimming, no separator
  // insertion, just memcpy. Distinct raw encodings of the same canonical
  // key simply alias the same GroupState, so results are unaffected.
  raw_scratch_.clear();
  for (size_t i = 0; i < group_by_offsets_.size(); ++i) {
    raw_scratch_.append(
        reinterpret_cast<const char*>(tuple + group_by_offsets_[i]),
        group_by_widths_[i]);
  }
  for (const GroupCacheEntry& e : group_cache_) {
    if (e.raw == raw_scratch_) return *e.state;
  }
  // Cache miss: build the canonical trimmed key (identical to MakeKey) and
  // resolve it in the sorted map so Finish order matches the generic path.
  std::string key;
  size_t pos = 0;
  for (size_t i = 0; i < group_by_offsets_.size(); ++i) {
    const char* field = raw_scratch_.data() + pos;
    size_t len = 0;
    while (len < group_by_widths_[i] && field[len] != '\0') ++len;
    key.append(field, len);
    if (i + 1 < group_by_offsets_.size()) key.push_back('|');
    pos += group_by_widths_[i];
  }
  GroupState& g = groups_[key];
  if (g.acc.empty()) InitGroup(g);
  group_cache_.push_back(GroupCacheEntry{raw_scratch_, &g});
  return g;
}

size_t Aggregator::ConsumeBatch(const uint8_t* const* tuples,
                                const uint8_t* sel, size_t n) {
  if (n == 0) return 0;
  // Phase 1: compact the selection. Folding over the compacted array
  // visits exactly the selected slots in slot order — the same sequence
  // a Consume loop feeds each accumulator — while letting the
  // expression passes below run dense (no wasted lanes under a selective
  // predicate, no per-lane branch in the folds).
  batch_selected_.clear();
  batch_selected_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    if (sel[s]) batch_selected_.push_back(tuples[s]);
  }
  const size_t m = batch_selected_.size();
  if (m == 0) return 0;
  // Phase 2: evaluate every aggregate's input expression over the
  // selected tuples. These are the dense arithmetic passes the compiler
  // vectorizes.
  const size_t num_aggs = hot_aggs_.size();
  size_t stack_depth = 0;
  for (const HotAgg& agg : hot_aggs_) {
    stack_depth = std::max(stack_depth, agg.expr.max_stack_depth());
  }
  batch_values_.resize(num_aggs * m);
  batch_stack_.resize(stack_depth * m);
  for (size_t i = 0; i < num_aggs; ++i) {
    if (hot_aggs_[i].op != AggOp::kCount && hot_aggs_[i].expr.size() > 0) {
      hot_aggs_[i].expr.EvalBatch(batch_selected_.data(), m,
                                  batch_values_.data() + i * m,
                                  batch_stack_.data());
    }
  }
  // Phase 3: fold in slot order. Each accumulator receives exactly the
  // value sequence a Consume loop would have fed it, so the
  // floating-point result is bit-identical.
  if (group_by_offsets_.empty()) {
    GroupState& g = HotGroup(nullptr);
    g.rows += m;
    for (size_t i = 0; i < num_aggs; ++i) {
      const double* values = batch_values_.data() + i * m;
      switch (hot_aggs_[i].op) {
        case AggOp::kCount:
          g.cnt[i] += m;
          break;
        case AggOp::kSum:
        case AggOp::kAvg: {
          double acc = g.acc[i];
          for (size_t s = 0; s < m; ++s) acc += values[s];
          g.acc[i] = acc;
          g.cnt[i] += m;
          break;
        }
        case AggOp::kMin: {
          double acc = g.acc[i];
          for (size_t s = 0; s < m; ++s) acc = std::min(acc, values[s]);
          g.acc[i] = acc;
          break;
        }
        case AggOp::kMax: {
          double acc = g.acc[i];
          for (size_t s = 0; s < m; ++s) acc = std::max(acc, values[s]);
          g.acc[i] = acc;
          break;
        }
      }
    }
    return m;
  }
  // Grouped: the fold must resolve the group per tuple, so it stays
  // tuple-at-a-time — but it still benefits from the batched expression
  // evaluation above.
  for (size_t s = 0; s < m; ++s) {
    GroupState& g = HotGroup(batch_selected_[s]);
    ++g.rows;
    for (size_t i = 0; i < num_aggs; ++i) {
      switch (hot_aggs_[i].op) {
        case AggOp::kCount:
          ++g.cnt[i];
          break;
        case AggOp::kSum:
        case AggOp::kAvg:
          g.acc[i] += batch_values_[i * m + s];
          ++g.cnt[i];
          break;
        case AggOp::kMin:
          g.acc[i] = std::min(g.acc[i], batch_values_[i * m + s]);
          break;
        case AggOp::kMax:
          g.acc[i] = std::max(g.acc[i], batch_values_[i * m + s]);
          break;
      }
    }
  }
  return m;
}

AggPartial Aggregator::DrainPartial() {
  AggPartial partial;
  for (auto& [key, g] : groups_) {
    AggPartialGroup pg;
    pg.acc = std::move(g.acc);
    pg.cnt = std::move(g.cnt);
    pg.rows = g.rows;
    partial.groups.emplace(key, std::move(pg));
  }
  groups_.clear();
  // The hot-path cache holds pointers into the nodes just cleared.
  group_cache_.clear();
  ungrouped_ = nullptr;
  return partial;
}

void Aggregator::AbsorbPartial(const AggPartial& partial) {
  for (const auto& [key, pg] : partial.groups) {
    GroupState& g = groups_[key];
    if (g.acc.empty()) InitGroup(g);
    g.rows += pg.rows;
    for (size_t i = 0; i < specs_.size(); ++i) {
      switch (specs_[i].op) {
        case AggOp::kCount:
          g.cnt[i] += pg.cnt[i];
          break;
        case AggOp::kSum:
        case AggOp::kAvg:
          g.acc[i] += pg.acc[i];
          g.cnt[i] += pg.cnt[i];
          break;
        case AggOp::kMin:
          g.acc[i] = std::min(g.acc[i], pg.acc[i]);
          break;
        case AggOp::kMax:
          g.acc[i] = std::max(g.acc[i], pg.acc[i]);
          break;
      }
    }
  }
  // Group nodes may have been created or re-inited; drop stale pointers.
  group_cache_.clear();
  ungrouped_ = nullptr;
}

QueryOutput Aggregator::Finish(uint64_t rows_scanned) const {
  QueryOutput out;
  out.rows_scanned = rows_scanned;
  for (const auto& [key, g] : groups_) {
    GroupResult result;
    result.key = key;
    result.rows = g.rows;
    out.rows_matched += g.rows;
    for (size_t i = 0; i < specs_.size(); ++i) {
      switch (specs_[i].op) {
        case AggOp::kCount:
          result.values.push_back(static_cast<double>(g.cnt[i]));
          break;
        case AggOp::kSum:
        case AggOp::kMin:
        case AggOp::kMax:
          result.values.push_back(g.acc[i]);
          break;
        case AggOp::kAvg:
          result.values.push_back(
              g.cnt[i] > 0 ? g.acc[i] / static_cast<double>(g.cnt[i]) : 0.0);
          break;
      }
    }
    out.groups.push_back(std::move(result));
  }
  // std::map iteration is already key-sorted; keep that order.
  return out;
}

}  // namespace scanshare::exec
