#include "exec/expr.h"

#include <algorithm>
#include <cstring>

namespace scanshare::exec {

Expr Expr::Column(std::string name) {
  Expr e(Kind::kColumn);
  e.column_name_ = std::move(name);
  return e;
}

Expr Expr::Const(double value) {
  Expr e(Kind::kConst);
  e.value_ = value;
  return e;
}

Expr Expr::Add(Expr lhs, Expr rhs) {
  Expr e(Kind::kAdd);
  e.lhs_ = std::make_unique<Expr>(std::move(lhs));
  e.rhs_ = std::make_unique<Expr>(std::move(rhs));
  return e;
}

Expr Expr::Sub(Expr lhs, Expr rhs) {
  Expr e(Kind::kSub);
  e.lhs_ = std::make_unique<Expr>(std::move(lhs));
  e.rhs_ = std::make_unique<Expr>(std::move(rhs));
  return e;
}

Expr Expr::Mul(Expr lhs, Expr rhs) {
  Expr e(Kind::kMul);
  e.lhs_ = std::make_unique<Expr>(std::move(lhs));
  e.rhs_ = std::make_unique<Expr>(std::move(rhs));
  return e;
}

Expr::Expr(const Expr& other)
    : kind_(other.kind_),
      column_name_(other.column_name_),
      column_index_(other.column_index_),
      column_type_(other.column_type_),
      bound_(other.bound_),
      value_(other.value_) {
  if (other.lhs_) lhs_ = std::make_unique<Expr>(*other.lhs_);
  if (other.rhs_) rhs_ = std::make_unique<Expr>(*other.rhs_);
}

Expr& Expr::operator=(const Expr& other) {
  if (this != &other) {
    kind_ = other.kind_;
    column_name_ = other.column_name_;
    column_index_ = other.column_index_;
    column_type_ = other.column_type_;
    bound_ = other.bound_;
    value_ = other.value_;
    lhs_ = other.lhs_ ? std::make_unique<Expr>(*other.lhs_) : nullptr;
    rhs_ = other.rhs_ ? std::make_unique<Expr>(*other.rhs_) : nullptr;
  }
  return *this;
}

Status Expr::Bind(const storage::Schema& schema) {
  switch (kind_) {
    case Kind::kColumn: {
      SCANSHARE_ASSIGN_OR_RETURN(column_index_, schema.ColumnIndex(column_name_));
      column_type_ = schema.column(column_index_).type;
      if (column_type_ == storage::TypeId::kChar) {
        return Status::InvalidArgument("Expr: arithmetic over char column '" +
                                       column_name_ + "'");
      }
      bound_ = true;
      return Status::OK();
    }
    case Kind::kConst:
      bound_ = true;
      return Status::OK();
    case Kind::kAdd:
    case Kind::kSub:
    case Kind::kMul:
      SCANSHARE_RETURN_IF_ERROR(lhs_->Bind(schema));
      SCANSHARE_RETURN_IF_ERROR(rhs_->Bind(schema));
      bound_ = true;
      return Status::OK();
  }
  return Status::Internal("Expr::Bind: unknown kind");
}

StatusOr<CompiledExpr> Expr::Compile(const storage::Schema& schema) const {
  if (!bound_) {
    return Status::FailedPrecondition("Expr::Compile: expression not bound");
  }
  CompiledExpr compiled;
  size_t depth = 0;
  size_t max_depth = 0;
  // Emit postfix: children left-to-right, then the operator — the same
  // order the recursive Eval reduces in, so results are bit-identical.
  SCANSHARE_RETURN_IF_ERROR(
      EmitPostfix(schema, &compiled, &depth, &max_depth));
  compiled.max_depth_ = max_depth;
  return compiled;
}

void CompiledExpr::EvalBatch(const uint8_t* const* tuples, size_t n,
                             double* out, double* stack) const {
  if (n == 0 || code_.empty()) return;
  if (code_.size() == 1) {
    // Bare column/constant: write straight into the output array.
    const Inst inst = code_.front();
    switch (inst.op) {
      case OpCode::kColumnI64:
        for (size_t s = 0; s < n; ++s) {
          int64_t v;
          std::memcpy(&v, tuples[s] + inst.offset, sizeof(v));
          out[s] = static_cast<double>(v);
        }
        return;
      case OpCode::kColumnF64:
        for (size_t s = 0; s < n; ++s) {
          std::memcpy(&out[s], tuples[s] + inst.offset, sizeof(double));
        }
        return;
      default:
        for (size_t s = 0; s < n; ++s) out[s] = inst.value;
        return;
    }
  }
  // Stack machine over n-wide lanes: each stack slot is a contiguous array
  // of n doubles. Leaves gather (strided loads the compiler can't help
  // with); the binary ops are dense elementwise loops that auto-vectorize.
  size_t sp = 0;
  for (const Inst& inst : code_) {
    switch (inst.op) {
      case OpCode::kColumnI64: {
        double* dst = stack + sp * n;
        for (size_t s = 0; s < n; ++s) {
          int64_t v;
          std::memcpy(&v, tuples[s] + inst.offset, sizeof(v));
          dst[s] = static_cast<double>(v);
        }
        ++sp;
        break;
      }
      case OpCode::kColumnF64: {
        double* dst = stack + sp * n;
        for (size_t s = 0; s < n; ++s) {
          std::memcpy(&dst[s], tuples[s] + inst.offset, sizeof(double));
        }
        ++sp;
        break;
      }
      case OpCode::kConst: {
        double* dst = stack + sp * n;
        for (size_t s = 0; s < n; ++s) dst[s] = inst.value;
        ++sp;
        break;
      }
      case OpCode::kAdd: {
        double* lhs = stack + (sp - 2) * n;
        const double* rhs = stack + (sp - 1) * n;
        for (size_t s = 0; s < n; ++s) lhs[s] = lhs[s] + rhs[s];
        --sp;
        break;
      }
      case OpCode::kSub: {
        double* lhs = stack + (sp - 2) * n;
        const double* rhs = stack + (sp - 1) * n;
        for (size_t s = 0; s < n; ++s) lhs[s] = lhs[s] - rhs[s];
        --sp;
        break;
      }
      case OpCode::kMul: {
        double* lhs = stack + (sp - 2) * n;
        const double* rhs = stack + (sp - 1) * n;
        for (size_t s = 0; s < n; ++s) lhs[s] = lhs[s] * rhs[s];
        --sp;
        break;
      }
    }
  }
  std::memcpy(out, stack, n * sizeof(double));
}

Status Expr::EmitPostfix(const storage::Schema& schema, CompiledExpr* out,
                         size_t* depth, size_t* max_depth) const {
  switch (kind_) {
    case Kind::kColumn: {
      if (!bound_) {
        return Status::FailedPrecondition("Expr::Compile: column not bound");
      }
      CompiledExpr::Inst inst;
      inst.op = column_type_ == storage::TypeId::kInt64
                    ? CompiledExpr::OpCode::kColumnI64
                    : CompiledExpr::OpCode::kColumnF64;
      inst.offset = schema.offset(column_index_);
      out->code_.push_back(inst);
      *max_depth = std::max(*max_depth, ++*depth);
      return Status::OK();
    }
    case Kind::kConst: {
      CompiledExpr::Inst inst;
      inst.op = CompiledExpr::OpCode::kConst;
      inst.value = value_;
      out->code_.push_back(inst);
      *max_depth = std::max(*max_depth, ++*depth);
      return Status::OK();
    }
    case Kind::kAdd:
    case Kind::kSub:
    case Kind::kMul: {
      SCANSHARE_RETURN_IF_ERROR(lhs_->EmitPostfix(schema, out, depth, max_depth));
      SCANSHARE_RETURN_IF_ERROR(rhs_->EmitPostfix(schema, out, depth, max_depth));
      CompiledExpr::Inst inst;
      inst.op = kind_ == Kind::kAdd   ? CompiledExpr::OpCode::kAdd
                : kind_ == Kind::kSub ? CompiledExpr::OpCode::kSub
                                      : CompiledExpr::OpCode::kMul;
      out->code_.push_back(inst);
      --*depth;
      return Status::OK();
    }
  }
  return Status::Internal("Expr::Compile: unknown kind");
}

double Expr::Eval(const storage::Schema& schema, const uint8_t* tuple) const {
  switch (kind_) {
    case Kind::kColumn:
      return column_type_ == storage::TypeId::kInt64
                 ? static_cast<double>(schema.ReadInt64(tuple, column_index_))
                 : schema.ReadDouble(tuple, column_index_);
    case Kind::kConst:
      return value_;
    case Kind::kAdd:
      return lhs_->Eval(schema, tuple) + rhs_->Eval(schema, tuple);
    case Kind::kSub:
      return lhs_->Eval(schema, tuple) - rhs_->Eval(schema, tuple);
    case Kind::kMul:
      return lhs_->Eval(schema, tuple) * rhs_->Eval(schema, tuple);
  }
  return 0.0;
}

}  // namespace scanshare::exec
