#include "exec/expr.h"

#include <algorithm>
#include <cstring>
#include <functional>

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

namespace {

// One binary instruction over the batch: dst[s] = op(x[s], y[s]).
template <typename Op>
void ApplyBinary(Op op, const double* x, const double* y, size_t n,
                 double* dst) {
  for (size_t s = 0; s < n; ++s) dst[s] = op(x[s], y[s]);
}

}  // namespace

bool LaneProgram::Inst::operator==(const Inst& other) const {
  return op == other.op && offset == other.offset &&
         std::memcmp(&value, &other.value, sizeof(value)) == 0 &&
         lhs == other.lhs && rhs == other.rhs;
}

StatusOr<uint32_t> LaneProgram::Add(const Expr& expr,
                                    const storage::Schema& schema) {
  if (!expr.bound_) {
    return Status::FailedPrecondition("LaneProgram::Add: expression not bound");
  }
  Inst inst;
  switch (expr.kind_) {
    case Expr::Kind::kColumn:
      inst.op = expr.column_type_ == storage::TypeId::kInt64
                    ? OpCode::kColumnI64
                    : OpCode::kColumnF64;
      inst.offset = schema.offset(expr.column_index_);
      return Intern(inst);
    case Expr::Kind::kConst:
      inst.value = expr.value_;
      return Intern(inst);
    case Expr::Kind::kAdd:
    case Expr::Kind::kSub:
    case Expr::Kind::kMul:
      // Left operand first: lanes number in the recursion's order.
      SCANSHARE_ASSIGN_OR_RETURN(inst.lhs, Add(*expr.lhs_, schema));
      SCANSHARE_ASSIGN_OR_RETURN(inst.rhs, Add(*expr.rhs_, schema));
      inst.op = expr.kind_ == Expr::Kind::kAdd   ? OpCode::kAdd
                : expr.kind_ == Expr::Kind::kSub ? OpCode::kSub
                                                 : OpCode::kMul;
      return Intern(inst);
  }
  return Status::Internal("LaneProgram::Add: unknown kind");
}

uint32_t LaneProgram::Intern(const Inst& inst) {
  // Programs are a handful of instructions; a linear search is enough.
  const auto it = std::find(code_.begin(), code_.end(), inst);
  if (it != code_.end()) return static_cast<uint32_t>(it - code_.begin());
  code_.push_back(inst);
  return static_cast<uint32_t>(code_.size() - 1);
}

void LaneProgram::EvalBatch(const uint8_t* const* tuples, size_t n,
                            double* lanes) const {
  for (size_t l = 0; l < code_.size(); ++l) {
    const Inst& inst = code_[l];
    double* dst = lanes + l * n;
    const double* x = lanes + size_t{inst.lhs} * n;
    const double* y = lanes + size_t{inst.rhs} * n;
    switch (inst.op) {
      case OpCode::kColumnI64:
        for (size_t s = 0; s < n; ++s) {
          int64_t v;
          std::memcpy(&v, tuples[s] + inst.offset, sizeof(v));
          dst[s] = static_cast<double>(v);
        }
        break;
      case OpCode::kColumnF64:
        for (size_t s = 0; s < n; ++s) {
          std::memcpy(&dst[s], tuples[s] + inst.offset, sizeof(double));
        }
        break;
      case OpCode::kConst:
        std::fill(dst, dst + n, inst.value);
        break;
      case OpCode::kAdd:
        ApplyBinary(std::plus<double>(), x, y, n, dst);
        break;
      case OpCode::kSub:
        ApplyBinary(std::minus<double>(), x, y, n, dst);
        break;
      case OpCode::kMul:
        ApplyBinary(std::multiplies<double>(), x, y, n, dst);
        break;
    }
  }
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
