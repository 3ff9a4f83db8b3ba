// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Grouped aggregation over a scan, shaped after TPC-H Q1/Q6: SUM/AVG/
// COUNT/MIN/MAX of scalar expressions, optionally grouped by char columns
// (Q1 groups by l_returnflag, l_linestatus). Scans fold whole pages
// through ConsumeBatch; Consume, which interprets the expression trees one
// tuple at a time, is the reference it must match bit for bit.
//
// Groups live in one flat store: the sorted canonical-key map names each
// group's slot, and slot g's accumulators are acc_[g * num_aggs() + i].
// ConsumeBatch evaluates every aggregate input at once through one shared
// LaneProgram, gives each selected tuple its group's slot (through a small
// table on the packed group-by bytes when they fit in 8 bytes, through the
// canonical map otherwise), and then folds one aggregate at a time. Every
// accumulator still receives its values in slot order, so the result is
// bit-identical to Consume's.

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

  /// Resolves expressions and group-by columns against `schema`.
  Status Bind(const storage::Schema& schema);

  /// Folds one (predicate-passing) tuple by interpreting the expression
  /// trees: the reference implementation ConsumeBatch is checked against.
  void Consume(const storage::Schema& schema, const uint8_t* tuple);

  /// Compiles every aggregate input into one LaneProgram (a column or
  /// subtree that several inputs share is evaluated once) and empties the
  /// group-id table, so ConsumeBatch can fold tuples without schema
  /// lookups or per-tuple key strings. Requires a successful Bind against
  /// the same schema. The folded state is shared with Consume, so the two
  /// entry points may be mixed freely and Finish output is identical
  /// either way. Copies keep the compiled state; PrepareHot again is
  /// harmless.
  Status PrepareHot(const storage::Schema& schema);

  /// Folds a whole page batch: every tuple s in [0, n) with sel[s] != 0 is
  /// folded exactly as Consume would fold it, in slot order. The selected
  /// tuples' inputs are evaluated first (dense vectorizable passes); each
  /// then gets its group's slot, and one pass per aggregate feeds each
  /// accumulator the same values in the same order as a tuple-at-a-time
  /// Consume loop, so Finish output is bit-identical — including
  /// floating-point rounding. Returns the number of tuples folded.
  /// Requires a successful PrepareHot.
  size_t ConsumeBatch(const uint8_t* const* tuples, const uint8_t* sel,
                      size_t n);

  /// Produces the final output. `rows_scanned` is supplied by the scan.
  QueryOutput Finish(uint64_t rows_scanned) const;

  /// Number of aggregates (drives the CPU cost model).
  size_t num_aggs() const { return specs_.size(); }

 private:
  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  /// One entry of the group-id table: a packed group-by key and its slot.
  struct IdEntry {
    uint64_t key = 0;
    uint32_t slot = kNoSlot;
  };

  /// Appends the canonical key of the group-by fields of `tuple`: each
  /// field up to its first NUL, joined by '|'.
  void AppendKey(const uint8_t* tuple, std::string* key) const;
  /// The slot of canonical key `key`, creating an empty group if needed.
  uint32_t GroupSlot(const std::string& key);
  /// Fills batch_slots_[0, m) with the slot of each selected tuple's group.
  void ResolveGroups(size_t m);
  /// The slot for packed key `key` of `tuple`, through the id table.
  uint32_t PackedSlot(uint64_t key, const uint8_t* tuple);
  /// Stores `entry` in its first free bucket of the id table.
  void PlaceId(const IdEntry& entry);
  /// Empties the id table at its initial capacity.
  void ResetIds();

  std::vector<AggSpec> specs_;
  std::vector<std::string> group_by_names_;
  std::vector<uint32_t> group_by_offsets_;
  std::vector<uint32_t> group_by_widths_;
  uint32_t key_width_ = 0;  // Sum of group_by_widths_.
  bool bound_ = false;

  // The group store: canonical key -> slot (sorted, the order Finish
  // reports), and per slot its accumulators and rows.
  std::map<std::string, uint32_t> slots_;
  std::vector<double> acc_;
  std::vector<uint64_t> rows_;

  // Compiled kernel state (PrepareHot): the shared input program and each
  // aggregate's lane in it (unused for kCount), and the group-id table, an
  // open-addressed map from packed group-by bytes to slot, used when
  // key_width_ <= 8.
  LaneProgram inputs_;
  std::vector<uint32_t> input_lane_;
  std::vector<IdEntry> id_table_;
  size_t id_table_used_ = 0;

  // ConsumeBatch scratch, reused across pages to avoid reallocation: the
  // selected tuples, their input lanes, packed keys and group slots.
  std::vector<const uint8_t*> batch_selected_;
  std::vector<double> batch_lanes_;
  std::vector<uint64_t> batch_keys_;
  std::vector<uint32_t> batch_slots_;
  std::string key_scratch_;
};

}  // namespace scanshare::exec
