// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Grouped aggregation over a scan, shaped after TPC-H Q1/Q6: SUM/AVG/
// COUNT/MIN/MAX of scalar expressions, optionally grouped by one or two
// char columns (Q1 groups by l_returnflag, l_linestatus). Scans fold whole
// pages through ConsumeBatch; Consume, which interprets the expression
// trees one tuple at a time, is the reference it must match bit for bit.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/expr.h"
#include "storage/schema.h"

namespace scanshare::exec {

/// Aggregate function.
enum class AggOp { kSum, kAvg, kCount, kMin, kMax };

/// One output aggregate: a name, a function, and its input expression
/// (ignored for kCount).
struct AggSpec {
  std::string name;
  AggOp op = AggOp::kSum;
  Expr expr = Expr::Const(0.0);
};

/// One group's finalized aggregate values, in AggSpec order.
struct GroupResult {
  std::string key;              ///< Concatenated group-by values ("" if none).
  std::vector<double> values;   ///< One per AggSpec.
  uint64_t rows = 0;            ///< Rows folded into this group.
};

/// One group's raw accumulator state, extracted from a worker's aggregator
/// before finalization (AVG still split into sum and count).
struct AggPartialGroup {
  std::vector<double> acc;    ///< Sum / min / max accumulator per spec.
  std::vector<uint64_t> cnt;  ///< Row count per spec (for avg/count).
  uint64_t rows = 0;
};

/// A drained partial aggregation: per-key accumulators in key-sorted order.
/// The unit of exchange between morsel workers and the deterministic merge
/// (see Aggregator::DrainPartial / AbsorbPartial).
struct AggPartial {
  std::map<std::string, AggPartialGroup> groups;
};

/// Final result of an aggregation query.
struct QueryOutput {
  std::vector<GroupResult> groups;  ///< Sorted by key for determinism.
  uint64_t rows_scanned = 0;        ///< Rows the scan visited.
  uint64_t rows_matched = 0;        ///< Rows that passed the predicate.

  /// Looks up a group by key (linear; results are tiny).
  const GroupResult* FindGroup(const std::string& key) const;
};

/// Streaming aggregator fed one page batch at a time by the scan operator.
class Aggregator {
 public:
  /// `group_by` lists zero or more char columns forming the group key.
  Aggregator(std::vector<AggSpec> specs, std::vector<std::string> group_by);

  // Copies reset the compiled hot state (it holds pointers into this
  // instance's group map); call PrepareHot again on the copy. Moves keep
  // it: map nodes have stable addresses across a container move.
  Aggregator(const Aggregator& other);
  Aggregator& operator=(const Aggregator& other);
  Aggregator(Aggregator&&) = default;
  Aggregator& operator=(Aggregator&&) = default;

  /// Resolves expressions and group-by columns against `schema`.
  Status Bind(const storage::Schema& schema);

  /// Folds one (predicate-passing) tuple by interpreting the expression
  /// trees: the reference implementation ConsumeBatch is checked against.
  void Consume(const storage::Schema& schema, const uint8_t* tuple);

  /// Lowers the aggregate expressions to CompiledExpr programs and hoists
  /// the group-by byte offsets so ConsumeBatch can fold tuples without any
  /// schema lookups or per-tuple key-string construction. Requires a
  /// successful Bind against the same schema. The folded state is shared
  /// with Consume, so the two entry points may be mixed freely and Finish
  /// output is identical either way.
  Status PrepareHot(const storage::Schema& schema);

  /// Folds a whole page batch: every tuple s in [0, n) with sel[s] != 0 is
  /// folded exactly as Consume would fold it, in slot order. The aggregate
  /// input expressions are evaluated over the selected tuples first (dense
  /// vectorizable passes); the fold then feeds each accumulator the same
  /// values in the same order as a tuple-at-a-time Consume loop, so Finish
  /// output is bit-identical — including floating-point rounding.
  /// Returns the number of tuples folded. Requires a successful PrepareHot.
  size_t ConsumeBatch(const uint8_t* const* tuples, const uint8_t* sel,
                      size_t n);

  /// Moves the accumulated raw state out and resets the group map (compiled
  /// expressions and hoisted offsets are kept, so the aggregator can keep
  /// consuming without a new PrepareHot). Morsel workers drain after every
  /// morsel; the partials are then merged in canonical morsel order by
  /// AbsorbPartial, which is what makes parallel aggregation bit-identical
  /// to sequential regardless of worker scheduling.
  AggPartial DrainPartial();

  /// Folds a drained partial into this aggregator: per group (key-sorted),
  /// sums add, counts add, min/max fold. Absorbing partials in a fixed
  /// order yields a fixed floating-point reduction tree — the determinism
  /// contract of the parallel scan. Mixing AbsorbPartial with Consume*
  /// calls is allowed (both target the same canonical group map).
  void AbsorbPartial(const AggPartial& partial);

  /// Produces the final output. `rows_scanned` is supplied by the scan.
  QueryOutput Finish(uint64_t rows_scanned) const;

  /// Number of aggregates (drives the CPU cost model).
  size_t num_aggs() const { return specs_.size(); }

 private:
  struct GroupState {
    std::vector<double> acc;    // Sum / min / max accumulator per spec.
    std::vector<uint64_t> cnt;  // Row count per spec (for avg/count).
    uint64_t rows = 0;
  };

  /// One compiled aggregate: the op plus a flattened expression program
  /// (empty for kCount).
  struct HotAgg {
    AggOp op = AggOp::kSum;
    CompiledExpr expr;
  };

  /// Cache from the raw fixed-width group-by bytes of a tuple to the
  /// canonical group in `groups_` (map nodes have stable addresses).
  /// Group cardinality is tiny (Q1 has a handful), so a linear scan wins.
  struct GroupCacheEntry {
    std::string raw;
    GroupState* state = nullptr;
  };

  std::string MakeKey(const storage::Schema& schema, const uint8_t* tuple) const;
  void InitGroup(GroupState& g) const;
  GroupState& HotGroup(const uint8_t* tuple);

  std::vector<AggSpec> specs_;
  std::vector<std::string> group_by_names_;
  std::vector<size_t> group_by_cols_;
  std::vector<uint32_t> group_by_widths_;
  std::map<std::string, GroupState> groups_;
  bool bound_ = false;

  // Compiled kernel state (PrepareHot):
  std::vector<HotAgg> hot_aggs_;
  std::vector<uint32_t> group_by_offsets_;
  std::vector<GroupCacheEntry> group_cache_;
  GroupState* ungrouped_ = nullptr;
  std::string raw_scratch_;

  // ConsumeBatch scratch, reused across pages to avoid reallocation:
  // one n-wide lane of evaluated inputs per aggregate, plus the batch
  // expression-evaluation stack.
  std::vector<double> batch_values_;
  std::vector<double> batch_stack_;
  std::vector<const uint8_t*> batch_selected_;
};

}  // namespace scanshare::exec
