// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Scalar expressions over tuples, used by aggregate specifications
// (e.g. TPC-H Q6's sum(l_extendedprice * l_discount)). Expressions are
// bound to a schema once; an aggregator then compiles all of its inputs
// into one LaneProgram that the scan kernel evaluates a page batch at a
// time. Expr::Eval, the recursive tree walk, is the reference every lane
// must match bit for bit.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/schema.h"

namespace scanshare::exec {

class Expr;

/// Several bound expressions compiled into one value-numbered program over
/// n-wide lanes, one lane per distinct node: each column is gathered once
/// per batch, each constant filled once, and each subtree computed once.
/// Built by Add, one expression at a time (an aggregator adds all of its
/// inputs).
///
/// Every lane is bit-identical to Expr::Eval's recursion on its subtree:
/// an instruction applies the same IEEE operation to the same operand
/// values, whichever expressions share its operand lanes.
class LaneProgram {
 public:
  /// Compiles `expr` into the program and returns the lane that will hold
  /// its value. A node already in the program (the same column, the same
  /// constant bit for bit, or the same operator over the same lanes)
  /// reuses its lane. Requires a successful Bind against `schema`; fails
  /// with FailedPrecondition otherwise.
  StatusOr<uint32_t> Add(const Expr& expr, const storage::Schema& schema);

  /// Evaluates every lane for a batch of tuples: lanes[l * n + i] is lane
  /// l's value for tuples[i], for i in [0, n). `lanes` must hold
  /// num_lanes() * n doubles. Instructions run in order, each a dense pass
  /// over the batch: gathers for columns, elementwise loops the compiler
  /// vectorizes for arithmetic.
  void EvalBatch(const uint8_t* const* tuples, size_t n, double* lanes) const;

  /// Number of lanes, which is also the number of instructions.
  size_t num_lanes() const { return code_.size(); }

 private:
  enum class OpCode : uint8_t {
    kColumnI64, kColumnF64, kConst, kAdd, kSub, kMul
  };

  /// The instruction that fills one lane; operands are earlier lanes.
  struct Inst {
    OpCode op = OpCode::kConst;
    uint32_t offset = 0;  // Column byte offset within the tuple.
    double value = 0.0;   // kConst payload.
    uint32_t lhs = 0;     // Binary ops' operand lanes.
    uint32_t rhs = 0;

    /// The same computation. Constants compare by bit pattern: 0.0 and
    /// -0.0 must not share a lane.
    bool operator==(const Inst& other) const;
  };

  /// Returns the lane of `inst`, appending it if no lane computes it yet.
  uint32_t Intern(const Inst& inst);

  std::vector<Inst> code_;
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
  /// reference LaneProgram::EvalBatch is checked against. Requires a
  /// successful Bind.
  double Eval(const storage::Schema& schema, const uint8_t* tuple) const;

  /// Node kind (for tests).
  Kind kind() const { return kind_; }

 private:
  friend class LaneProgram;

  Expr(Kind kind) : kind_(kind) {}

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
