// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Row predicates: conjunctions of comparisons between a column and a
// constant, which covers the selection logic of the scan-heavy TPC-H
// queries the paper evaluates (Q1's shipdate bound, Q6's date/discount/
// quantity band). Scans run the compiled form a page batch at a time
// (CompiledPredicate::MatchBatch); Predicate::Eval, which interprets one
// tuple, is the reference it must match decision for decision.

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace scanshare::exec {

/// Comparison operator for predicate atoms.
enum class CompareOp { kLt, kLe, kGt, kGe, kEq, kNe };

/// One comparison: <column> <op> <constant>.
struct PredicateAtom {
  std::string column;   ///< Column name, resolved at Bind time.
  CompareOp op;         ///< Comparison.
  storage::Value constant;  ///< Right-hand constant (must match column type).

  // Resolved at Bind:
  size_t column_index = 0;
  storage::TypeId column_type = storage::TypeId::kInt64;
};

/// A schema-resolved predicate with hoisted byte offsets: what the scan
/// kernel evaluates, with no schema lookups and no per-atom string
/// touches. Produced by Predicate::Compile.
class CompiledPredicate {
 public:
  CompiledPredicate() = default;

  /// Evaluates the conjunction for a whole batch of tuples at once:
  /// sel[i] = Predicate::Eval(tuples[i]) ? 1 : 0 for i in [0, n).
  /// Branch-free per numeric or one-byte char atom — each conjunct is one
  /// dense compare-and-mask pass over the selection array that the
  /// compiler vectorizes (order cannot change the result of a pure AND).
  /// A one-byte char atom compares the field byte with the constant's
  /// byte (zero for "") as unsigned, memcmp's order.
  void MatchBatch(const uint8_t* const* tuples, size_t n, uint8_t* sel) const;

  /// True if this predicate accepts every row.
  bool empty() const { return atoms_.empty(); }
  /// Number of conjuncts.
  size_t size() const { return atoms_.size(); }

 private:
  friend class Predicate;

  struct Atom {
    uint32_t offset = 0;                  // Column start within the tuple.
    uint32_t width = 0;                   // kChar field width.
    storage::TypeId type = storage::TypeId::kInt64;
    CompareOp op = CompareOp::kEq;
    int64_t i64 = 0;                      // kInt64 constant.
    double f64 = 0.0;                     // kDouble constant.
    std::string chars;                    // kChar constant.
    uint8_t byte = 0;                     // Width-1 kChar constant byte.

    /// One tuple against this atom (MatchBatch's pass for char atoms
    /// wider than one byte).
    bool Match(const uint8_t* tuple) const;
  };

  std::vector<Atom> atoms_;
};

/// Conjunction of atoms. An empty predicate accepts every row.
class Predicate {
 public:
  Predicate() = default;

  /// Adds one conjunct. Returns *this for chaining.
  Predicate& And(std::string column, CompareOp op, storage::Value constant);

  /// Resolves column names and checks constant types against `schema`.
  Status Bind(const storage::Schema& schema);

  /// Evaluates against one encoded tuple by interpreting the atoms: the
  /// reference CompiledPredicate::MatchBatch is checked against. Requires
  /// a successful Bind.
  bool Eval(const storage::Schema& schema, const uint8_t* tuple) const;

  /// Lowers the bound atoms to a CompiledPredicate with hoisted offsets
  /// for the scan kernel. Requires a successful Bind against the same
  /// schema; fails with FailedPrecondition otherwise.
  StatusOr<CompiledPredicate> Compile(const storage::Schema& schema) const;

  /// Number of conjuncts (drives the per-tuple CPU cost model).
  size_t size() const { return atoms_.size(); }
  /// True if this predicate accepts every row.
  bool empty() const { return atoms_.empty(); }

 private:
  std::vector<PredicateAtom> atoms_;
  bool bound_ = false;
};

}  // namespace scanshare::exec
