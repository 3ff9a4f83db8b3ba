#include "exec/expr.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace scanshare::exec {
namespace {

using storage::Column;
using storage::Schema;
using storage::Value;

Schema TestSchema() {
  return Schema({Column::Int64("i"), Column::Double("d"), Column::Char("c", 4)});
}

std::vector<uint8_t> Encode(const Schema& s, int64_t i, double d,
                            const std::string& c) {
  std::vector<uint8_t> out;
  EXPECT_TRUE(
      s.EncodeTuple({Value::Int64(i), Value::Double(d), Value::Char(c)}, &out)
          .ok());
  return out;
}

TEST(ExprTest, ConstEvaluates) {
  Schema s = TestSchema();
  Expr e = Expr::Const(2.5);
  ASSERT_TRUE(e.Bind(s).ok());
  auto t = Encode(s, 1, 1.0, "x");
  EXPECT_DOUBLE_EQ(e.Eval(s, t.data()), 2.5);
}

TEST(ExprTest, DoubleColumn) {
  Schema s = TestSchema();
  Expr e = Expr::Column("d");
  ASSERT_TRUE(e.Bind(s).ok());
  auto t = Encode(s, 1, 6.75, "x");
  EXPECT_DOUBLE_EQ(e.Eval(s, t.data()), 6.75);
}

TEST(ExprTest, Int64ColumnWidensToDouble) {
  Schema s = TestSchema();
  Expr e = Expr::Column("i");
  ASSERT_TRUE(e.Bind(s).ok());
  auto t = Encode(s, -12345, 0.0, "x");
  EXPECT_DOUBLE_EQ(e.Eval(s, t.data()), -12345.0);
}

TEST(ExprTest, Arithmetic) {
  Schema s = TestSchema();
  // (d * (1 - d)) + (i - 2)
  Expr e = Expr::Add(
      Expr::Mul(Expr::Column("d"), Expr::Sub(Expr::Const(1.0), Expr::Column("d"))),
      Expr::Sub(Expr::Column("i"), Expr::Const(2.0)));
  ASSERT_TRUE(e.Bind(s).ok());
  auto t = Encode(s, 10, 0.25, "x");
  EXPECT_DOUBLE_EQ(e.Eval(s, t.data()), 0.25 * 0.75 + 8.0);
}

TEST(ExprTest, UnknownColumnFailsBind) {
  Schema s = TestSchema();
  Expr e = Expr::Column("nope");
  EXPECT_EQ(e.Bind(s).code(), Status::Code::kNotFound);
}

TEST(ExprTest, CharColumnRejected) {
  Schema s = TestSchema();
  Expr e = Expr::Column("c");
  EXPECT_EQ(e.Bind(s).code(), Status::Code::kInvalidArgument);
}

TEST(ExprTest, BindErrorPropagatesFromChildren) {
  Schema s = TestSchema();
  Expr e = Expr::Mul(Expr::Const(2.0), Expr::Column("nope"));
  EXPECT_FALSE(e.Bind(s).ok());
}

TEST(ExprTest, CopySemanticsDeep) {
  Schema s = TestSchema();
  Expr a = Expr::Mul(Expr::Column("d"), Expr::Const(2.0));
  Expr b = a;  // Deep copy.
  ASSERT_TRUE(a.Bind(s).ok());
  ASSERT_TRUE(b.Bind(s).ok());
  auto t = Encode(s, 0, 3.0, "x");
  EXPECT_DOUBLE_EQ(a.Eval(s, t.data()), 6.0);
  EXPECT_DOUBLE_EQ(b.Eval(s, t.data()), 6.0);
}

TEST(ExprTest, AssignmentReplacesTree) {
  Schema s = TestSchema();
  Expr a = Expr::Const(1.0);
  a = Expr::Add(Expr::Const(2.0), Expr::Const(3.0));
  ASSERT_TRUE(a.Bind(s).ok());
  auto t = Encode(s, 0, 0.0, "x");
  EXPECT_DOUBLE_EQ(a.Eval(s, t.data()), 5.0);
  EXPECT_EQ(a.kind(), Expr::Kind::kAdd);
}

/// Every lane `lanes` names must equal Expr::Eval of its expression, bit
/// for bit, on every row.
void ExpectLanesAreEval(const Schema& s, const std::vector<Expr>& exprs,
                        const std::vector<std::vector<uint8_t>>& rows,
                        LaneProgram* program) {
  std::vector<uint32_t> lanes;
  for (const Expr& e : exprs) {
    auto lane = program->Add(e, s);
    ASSERT_TRUE(lane.ok()) << lane.status().ToString();
    lanes.push_back(*lane);
  }
  std::vector<const uint8_t*> tuples;
  for (const auto& row : rows) tuples.push_back(row.data());
  const size_t n = tuples.size();
  std::vector<double> out(program->num_lanes() * n);
  program->EvalBatch(tuples.data(), n, out.data());
  for (size_t k = 0; k < exprs.size(); ++k) {
    for (size_t r = 0; r < n; ++r) {
      const double want = exprs[k].Eval(s, tuples[r]);
      const double got = out[lanes[k] * n + r];
      EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
          << "expr " << k << " row " << r << ": " << got << " vs " << want;
    }
  }
}

// Q1's shape: repeated columns, the constant 1 and the shared
// price * (1 - disc) subtree are each evaluated once.
TEST(ExprTest, LaneProgramSharesColumnsAndSubtrees) {
  Schema s = TestSchema();
  const Expr qty = Expr::Column("i");
  const Expr price = Expr::Column("d");
  const Expr disc_price =
      Expr::Mul(price, Expr::Sub(Expr::Const(1.0), price));
  std::vector<Expr> exprs = {
      qty, price, disc_price,
      Expr::Mul(disc_price, Expr::Add(Expr::Const(1.0), qty)), qty, price};
  for (Expr& e : exprs) ASSERT_TRUE(e.Bind(s).ok());
  std::vector<std::vector<uint8_t>> rows;
  for (int k = 0; k < 9; ++k) {
    rows.push_back(Encode(s, k - 4, 0.3 * k - 1.1, "x"));
  }
  LaneProgram program;
  ExpectLanesAreEval(s, exprs, rows, &program);
  // i, d, 1, 1 - d, d * (1 - d), 1 + i and the product: seven lanes.
  EXPECT_EQ(program.num_lanes(), 7u);
}

// Constants share a lane only when their bits match: d + 0.0 and d + -0.0
// differ at d = -0.0. A constant-only subtree is evaluated like any other.
TEST(ExprTest, LaneProgramKeepsConstantsApartByBits) {
  Schema s = TestSchema();
  std::vector<Expr> exprs = {
      Expr::Add(Expr::Mul(Expr::Const(2.0), Expr::Const(3.0)),
                Expr::Column("d")),
      Expr::Const(2.5),
      Expr::Add(Expr::Column("d"), Expr::Const(0.0)),
      Expr::Add(Expr::Column("d"), Expr::Const(-0.0)),
      Expr::Sub(Expr::Column("i"), Expr::Column("d"))};
  for (Expr& e : exprs) ASSERT_TRUE(e.Bind(s).ok());
  std::vector<std::vector<uint8_t>> rows = {
      Encode(s, 1, -0.0, "x"), Encode(s, -7, 0.0, "x"),
      Encode(s, 3, 1e300, "x"), Encode(s, 0, -2.5, "x")};
  LaneProgram program;
  ExpectLanesAreEval(s, exprs, rows, &program);
  // 2, 3, 2 * 3, d, 2 * 3 + d, 2.5, 0.0, d + 0.0, -0.0, d + -0.0, i, i - d.
  EXPECT_EQ(program.num_lanes(), 12u);
}

TEST(ExprTest, LaneProgramRejectsUnboundExpr) {
  Schema s = TestSchema();
  LaneProgram program;
  EXPECT_EQ(program.Add(Expr::Column("d"), s).status().code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(program.num_lanes(), 0u);
}

}  // namespace
}  // namespace scanshare::exec
