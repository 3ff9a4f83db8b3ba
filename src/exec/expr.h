// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Scalar expressions over tuples, used by aggregate specifications
// (e.g. TPC-H Q6's sum(l_extendedprice * l_discount)). Expressions are
// bound to a schema once and compiled to a postfix program that the scan
// kernel evaluates a page batch at a time; Expr::Eval, the recursive tree
// walk, is the reference that program must match bit for bit.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"

namespace scanshare::exec {

class Expr;

/// A flattened, schema-resolved expression: a postfix program over hoisted
/// byte offsets — no tree walk, no schema lookups, no string touches.
/// Produced by Expr::Compile; evaluation order (and therefore
/// floating-point rounding) is identical to the tree walker's
/// left-to-right recursion.
class CompiledExpr {
 public:
  CompiledExpr() = default;

  /// Evaluates the program for a whole batch of tuples at once:
  /// out[i] = Expr::Eval(tuples[i]) for i in [0, n). `stack` must hold at
  /// least max_stack_depth() * n doubles. The per-lane instruction order
  /// matches the recursion exactly, so every lane's result is
  /// bit-identical to it — the loop nesting (instruction outermost, lanes
  /// innermost) lets the arithmetic passes run over contiguous arrays the
  /// compiler can vectorize.
  void EvalBatch(const uint8_t* const* tuples, size_t n, double* out,
                 double* stack) const;

  /// Number of instructions (0 for a default-constructed program).
  size_t size() const { return code_.size(); }

  /// Evaluation stack slots EvalBatch needs per lane (0 when empty).
  size_t max_stack_depth() const { return max_depth_; }

 private:
  friend class Expr;

  enum class OpCode : uint8_t { kColumnI64, kColumnF64, kConst, kAdd, kSub, kMul };

  struct Inst {
    OpCode op;
    uint32_t offset = 0;  // Column byte offset within the tuple.
    double value = 0.0;   // kConst payload.
  };

  std::vector<Inst> code_;
  size_t max_depth_ = 0;
};

/// A scalar expression tree: column references, numeric constants, and
/// arithmetic. All arithmetic is carried out in double (int64 columns are
/// widened), which matches what the aggregate queries need.
class Expr {
 public:
  /// Node type.
  enum class Kind { kColumn, kConst, kAdd, kSub, kMul };

  /// Reference to the column named `name` (resolved at Bind time).
  static Expr Column(std::string name);
  /// Literal constant.
  static Expr Const(double value);
  /// Arithmetic combinators.
  static Expr Add(Expr lhs, Expr rhs);
  static Expr Sub(Expr lhs, Expr rhs);
  static Expr Mul(Expr lhs, Expr rhs);

  Expr(const Expr& other);
  Expr& operator=(const Expr& other);
  Expr(Expr&&) noexcept = default;
  Expr& operator=(Expr&&) noexcept = default;

  /// Resolves column names against `schema`. Must be called before Eval.
  /// Fails with NotFound for unknown columns or InvalidArgument for char
  /// columns (no arithmetic on strings).
  Status Bind(const storage::Schema& schema);

  /// Evaluates against one encoded tuple by walking the tree: the
  /// reference CompiledExpr::EvalBatch is checked against. Requires a
  /// successful Bind.
  double Eval(const storage::Schema& schema, const uint8_t* tuple) const;

  /// Flattens the bound tree into a postfix program with hoisted column
  /// offsets for the scan kernel, of any depth. Requires a successful Bind
  /// against the same schema; fails with FailedPrecondition otherwise.
  StatusOr<CompiledExpr> Compile(const storage::Schema& schema) const;

  /// Node kind (for tests).
  Kind kind() const { return kind_; }

 private:
  Expr(Kind kind) : kind_(kind) {}

  /// Appends this subtree's postfix instructions to `out`, tracking the
  /// evaluation stack depth EvalBatch sizes its lanes by.
  Status EmitPostfix(const storage::Schema& schema, CompiledExpr* out,
                     size_t* depth, size_t* max_depth) const;

  Kind kind_;
  // kColumn:
  std::string column_name_;
  size_t column_index_ = 0;
  storage::TypeId column_type_ = storage::TypeId::kDouble;
  bool bound_ = false;
  // kConst:
  double value_ = 0.0;
  // Binary nodes:
  std::unique_ptr<Expr> lhs_;
  std::unique_ptr<Expr> rhs_;
};

}  // namespace scanshare::exec
