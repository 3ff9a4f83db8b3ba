#include "exec/predicate.h"

#include <algorithm>
#include <cstring>

namespace scanshare::exec {

namespace {

template <typename T>
bool Compare(CompareOp op, T lhs, T rhs) {
  switch (op) {
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLe: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGe: return lhs >= rhs;
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
  }
  return false;
}

// One dense pass for a numeric atom: compare every tuple's field against
// the constant and AND the verdict into the selection byte. The op switch
// is hoisted outside the loop so each case body is a tight branch-free
// loop over the batch.
template <typename T>
void MatchColumn(const uint8_t* const* tuples, size_t n, uint32_t offset,
                 CompareOp op, T constant, uint8_t* sel) {
  switch (op) {
    case CompareOp::kLt:
      for (size_t s = 0; s < n; ++s) {
        T v;
        std::memcpy(&v, tuples[s] + offset, sizeof(v));
        sel[s] = static_cast<uint8_t>(sel[s] & static_cast<uint8_t>(v < constant));
      }
      break;
    case CompareOp::kLe:
      for (size_t s = 0; s < n; ++s) {
        T v;
        std::memcpy(&v, tuples[s] + offset, sizeof(v));
        sel[s] = static_cast<uint8_t>(sel[s] & static_cast<uint8_t>(v <= constant));
      }
      break;
    case CompareOp::kGt:
      for (size_t s = 0; s < n; ++s) {
        T v;
        std::memcpy(&v, tuples[s] + offset, sizeof(v));
        sel[s] = static_cast<uint8_t>(sel[s] & static_cast<uint8_t>(v > constant));
      }
      break;
    case CompareOp::kGe:
      for (size_t s = 0; s < n; ++s) {
        T v;
        std::memcpy(&v, tuples[s] + offset, sizeof(v));
        sel[s] = static_cast<uint8_t>(sel[s] & static_cast<uint8_t>(v >= constant));
      }
      break;
    case CompareOp::kEq:
      for (size_t s = 0; s < n; ++s) {
        T v;
        std::memcpy(&v, tuples[s] + offset, sizeof(v));
        sel[s] = static_cast<uint8_t>(sel[s] & static_cast<uint8_t>(v == constant));
      }
      break;
    case CompareOp::kNe:
      for (size_t s = 0; s < n; ++s) {
        T v;
        std::memcpy(&v, tuples[s] + offset, sizeof(v));
        sel[s] = static_cast<uint8_t>(sel[s] & static_cast<uint8_t>(v != constant));
      }
      break;
  }
}

}  // namespace

bool CompiledPredicate::Atom::Match(const uint8_t* tuple) const {
  switch (type) {
    case storage::TypeId::kInt64: {
      int64_t v;
      std::memcpy(&v, tuple + offset, sizeof(v));
      return Compare(op, v, i64);
    }
    case storage::TypeId::kDouble: {
      double v;
      std::memcpy(&v, tuple + offset, sizeof(v));
      return Compare(op, v, f64);
    }
    case storage::TypeId::kChar: {
      const char* field = reinterpret_cast<const char*>(tuple + offset);
      // Same semantics as Predicate::Eval: compare the zero-padded
      // fixed-width field against the (possibly shorter) constant.
      int cmp = std::memcmp(field, chars.data(),
                            std::min<size_t>(width, chars.size()));
      if (cmp == 0 && chars.size() < width && field[chars.size()] != '\0') {
        cmp = 1;
      }
      return Compare(op, cmp, 0);
    }
  }
  return false;
}

void CompiledPredicate::MatchBatch(const uint8_t* const* tuples, size_t n,
                                   uint8_t* sel) const {
  // An empty page's selection may be a null pointer, which memset must not
  // see even with a zero length.
  if (n == 0) return;
  std::memset(sel, 1, n);
  for (const Atom& atom : atoms_) {
    switch (atom.type) {
      case storage::TypeId::kInt64:
        MatchColumn<int64_t>(tuples, n, atom.offset, atom.op, atom.i64, sel);
        break;
      case storage::TypeId::kDouble:
        MatchColumn<double>(tuples, n, atom.offset, atom.op, atom.f64, sel);
        break;
      case storage::TypeId::kChar:
        if (atom.width == 1) {
          // One byte against one byte (an empty constant is the zero
          // byte): memcmp's unsigned order, as a dense numeric pass.
          MatchColumn<uint8_t>(tuples, n, atom.offset, atom.op, atom.byte, sel);
          break;
        }
        // Wider char compares walk variable-length bytes; no dense form.
        // Still branch-free over the selection array.
        for (size_t s = 0; s < n; ++s) {
          sel[s] = static_cast<uint8_t>(sel[s] &
                                        static_cast<uint8_t>(atom.Match(tuples[s])));
        }
        break;
    }
  }
}

StatusOr<CompiledPredicate> Predicate::Compile(
    const storage::Schema& schema) const {
  if (!bound_) {
    return Status::FailedPrecondition("Predicate::Compile: predicate not bound");
  }
  CompiledPredicate compiled;
  compiled.atoms_.reserve(atoms_.size());
  for (const PredicateAtom& atom : atoms_) {
    CompiledPredicate::Atom out;
    out.offset = schema.offset(atom.column_index);
    out.width = schema.column(atom.column_index).width;
    out.type = atom.column_type;
    out.op = atom.op;
    switch (atom.column_type) {
      case storage::TypeId::kInt64:
        out.i64 = atom.constant.AsInt64();
        break;
      case storage::TypeId::kDouble:
        out.f64 = atom.constant.AsDouble();
        break;
      case storage::TypeId::kChar:
        out.chars = atom.constant.AsChar();
        out.byte = out.chars.empty() ? 0 : static_cast<uint8_t>(out.chars[0]);
        break;
    }
    compiled.atoms_.push_back(std::move(out));
  }
  return compiled;
}

Predicate& Predicate::And(std::string column, CompareOp op,
                          storage::Value constant) {
  atoms_.push_back(PredicateAtom{std::move(column), op, std::move(constant), 0,
                                 storage::TypeId::kInt64});
  bound_ = false;
  return *this;
}

Status Predicate::Bind(const storage::Schema& schema) {
  for (PredicateAtom& atom : atoms_) {
    SCANSHARE_ASSIGN_OR_RETURN(atom.column_index, schema.ColumnIndex(atom.column));
    atom.column_type = schema.column(atom.column_index).type;
    if (atom.constant.type() != atom.column_type) {
      return Status::InvalidArgument("Predicate: constant type mismatch for '" +
                                     atom.column + "'");
    }
    if (atom.column_type == storage::TypeId::kChar &&
        atom.constant.AsChar().size() > schema.column(atom.column_index).width) {
      return Status::InvalidArgument("Predicate: char constant wider than '" +
                                     atom.column + "'");
    }
  }
  bound_ = true;
  return Status::OK();
}

bool Predicate::Eval(const storage::Schema& schema, const uint8_t* tuple) const {
  for (const PredicateAtom& atom : atoms_) {
    bool pass = false;
    switch (atom.column_type) {
      case storage::TypeId::kInt64:
        pass = Compare(atom.op, schema.ReadInt64(tuple, atom.column_index),
                       atom.constant.AsInt64());
        break;
      case storage::TypeId::kDouble:
        pass = Compare(atom.op, schema.ReadDouble(tuple, atom.column_index),
                       atom.constant.AsDouble());
        break;
      case storage::TypeId::kChar: {
        const char* field = schema.ReadChar(tuple, atom.column_index);
        const uint32_t width = schema.column(atom.column_index).width;
        const std::string& want = atom.constant.AsChar();
        // Compare zero-padded fixed width against the (shorter) constant.
        int cmp = std::memcmp(field, want.data(), std::min<size_t>(width, want.size()));
        if (cmp == 0 && want.size() < width && field[want.size()] != '\0') {
          cmp = 1;  // Field is longer than the constant.
        }
        pass = Compare(atom.op, cmp, 0);
        break;
      }
    }
    if (!pass) return false;
  }
  return true;
}

}  // namespace scanshare::exec
