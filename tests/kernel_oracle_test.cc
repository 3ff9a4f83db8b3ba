// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Oracle tests for the one tuple kernel. Scans run
// CompiledPredicate::MatchBatch and Aggregator::ConsumeBatch; the
// interpreted Predicate::Eval and Aggregator::Consume are the reference,
// and every comparison here is exact (aggregates by bit pattern).
//
// Unit level: every CompareOp over int64, double and char columns — char
// constants shorter than the field, zero-padded and full-width fields —
// and every AggOp, grouped and ungrouped, under all-zero, all-one and
// mixed selections. Engine level: a baseline run of the default query mix
// and a query whose aggregate is a 41-deep sum are bit-identical to a
// front-to-back Eval/Consume pass over the table's page images.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "exec/aggregate.h"
#include "exec/predicate.h"
#include "exec/scan_ops.h"
#include "metrics/report.h"
#include "storage/page.h"
#include "testutil.h"
#include "workload/queries.h"

namespace scanshare::exec {
namespace {

using storage::Column;
using storage::Schema;
using storage::Value;

Schema TestSchema() {
  return Schema({Column::Int64("i"), Column::Double("d"), Column::Char("c", 4),
                 Column::Char("g", 1)});
}

/// Encoded rows plus the tuple-pointer array the kernel takes.
struct Batch {
  std::vector<std::vector<uint8_t>> rows;
  std::vector<const uint8_t*> tuples;
};

// Char values cover the empty (all-zero) field, constants' prefixes and
// extensions, and a full-width field with no zero padding at all.
const char* const kChars[] = {"", "A", "AB", "ABC", "ABCD", "ABD", "B", "AA"};

Batch MakeBatch(const Schema& schema, size_t n) {
  Batch batch;
  batch.rows.resize(n);
  for (size_t r = 0; r < n; ++r) {
    const int64_t i = static_cast<int64_t>(r * 7 % 23) - 11;
    const double d = static_cast<double>(r * 13 % 17) * 0.25 - 2.0;
    const std::string g(1, static_cast<char>('x' + r % 3));
    EXPECT_TRUE(schema
                    .EncodeTuple({Value::Int64(i), Value::Double(d),
                                  Value::Char(kChars[r % 8]), Value::Char(g)},
                                 &batch.rows[r])
                    .ok());
  }
  for (const auto& row : batch.rows) batch.tuples.push_back(row.data());
  return batch;
}

const CompareOp kOps[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                          CompareOp::kGe, CompareOp::kEq, CompareOp::kNe};

/// MatchBatch must set exactly sel[r] = Eval(row r) for every row.
void ExpectMatchBatchIsEval(const Schema& schema, Predicate predicate,
                            const Batch& batch, const std::string& what) {
  ASSERT_TRUE(predicate.Bind(schema).ok()) << what;
  auto compiled = predicate.Compile(schema);
  ASSERT_TRUE(compiled.ok()) << what;
  std::vector<uint8_t> sel(batch.tuples.size(), 7);
  compiled->MatchBatch(batch.tuples.data(), batch.tuples.size(), sel.data());
  for (size_t r = 0; r < batch.tuples.size(); ++r) {
    EXPECT_EQ(sel[r], predicate.Eval(schema, batch.tuples[r]) ? 1 : 0)
        << what << " row " << r;
  }
}

TEST(KernelOracleTest, MatchBatchIsEvalForEveryOpAndType) {
  const Schema schema = TestSchema();
  const Batch batch = MakeBatch(schema, 96);
  for (const CompareOp op : kOps) {
    const std::string op_name = std::to_string(static_cast<int>(op));
    for (const int64_t v : {-11, -3, 0, 5, 11}) {
      ExpectMatchBatchIsEval(schema, Predicate().And("i", op, Value::Int64(v)),
                             batch, "i op" + op_name + " " + std::to_string(v));
    }
    for (const double v : {-2.0, -0.25, 0.0, 0.5, 2.0}) {
      ExpectMatchBatchIsEval(schema,
                             Predicate().And("d", op, Value::Double(v)), batch,
                             "d op" + op_name + " " + std::to_string(v));
    }
    for (const char* v : kChars) {
      ExpectMatchBatchIsEval(schema, Predicate().And("c", op, Value::Char(v)),
                             batch, "c op" + op_name + " '" + v + "'");
    }
  }
}

TEST(KernelOracleTest, MatchBatchIsEvalForConjunctions) {
  const Schema schema = TestSchema();
  const Batch batch = MakeBatch(schema, 96);
  ExpectMatchBatchIsEval(schema, Predicate(), batch, "empty");
  ExpectMatchBatchIsEval(schema,
                         Predicate()
                             .And("i", CompareOp::kGe, Value::Int64(-5))
                             .And("d", CompareOp::kLt, Value::Double(1.0))
                             .And("c", CompareOp::kNe, Value::Char("AB")),
                         batch, "three types");
  ExpectMatchBatchIsEval(schema,
                         Predicate()
                             .And("c", CompareOp::kGe, Value::Char("A"))
                             .And("c", CompareOp::kLe, Value::Char("ABC"))
                             .And("g", CompareOp::kEq, Value::Char("y")),
                         batch, "char band");
}

/// The aggregate input: a mixed int64/double expression.
Expr InputExpr() {
  return Expr::Sub(Expr::Mul(Expr::Column("d"), Expr::Const(1.5)),
                   Expr::Add(Expr::Column("i"), Expr::Const(0.1)));
}

std::vector<AggSpec> EveryAggOp(const Expr& input) {
  return {AggSpec{"sum", AggOp::kSum, input}, AggSpec{"avg", AggOp::kAvg, input},
          AggSpec{"cnt", AggOp::kCount, Expr::Const(0.0)},
          AggSpec{"min", AggOp::kMin, input}, AggSpec{"max", AggOp::kMax, input}};
}

/// Folds `batch` under `sel` through Consume (reference) and through
/// ConsumeBatch in uneven slices, and requires bit-identical Finish output.
void ExpectConsumeBatchIsConsume(const Schema& schema,
                                 const std::vector<AggSpec>& specs,
                                 const std::vector<std::string>& group_by,
                                 const Batch& batch,
                                 const std::vector<uint8_t>& sel,
                                 const std::string& what) {
  Aggregator reference(specs, group_by);
  ASSERT_TRUE(reference.Bind(schema).ok()) << what;
  Aggregator kernel(specs, group_by);
  ASSERT_TRUE(kernel.Bind(schema).ok()) << what;
  ASSERT_TRUE(kernel.PrepareHot(schema).ok()) << what;

  size_t selected = 0;
  for (size_t r = 0; r < batch.tuples.size(); ++r) {
    if (sel[r]) {
      reference.Consume(schema, batch.tuples[r]);
      ++selected;
    }
  }
  size_t folded = 0;
  for (size_t begin = 0, len = 1; begin < batch.tuples.size();
       begin += len, len = len * 2 + 1) {
    const size_t n = std::min(len, batch.tuples.size() - begin);
    folded += kernel.ConsumeBatch(batch.tuples.data() + begin,
                                  sel.data() + begin, n);
  }
  EXPECT_EQ(folded, selected) << what;

  const uint64_t scanned = batch.tuples.size();
  std::string diff;
  EXPECT_TRUE(metrics::BitIdentical(kernel.Finish(scanned),
                                    reference.Finish(scanned), &diff))
      << what << ": " << diff;
}

TEST(KernelOracleTest, ConsumeBatchIsConsumeForEveryAggOp) {
  const Schema schema = TestSchema();
  const Batch batch = MakeBatch(schema, 200);
  const size_t n = batch.tuples.size();
  const std::vector<std::pair<const char*, std::vector<uint8_t>>> selections = {
      {"none", std::vector<uint8_t>(n, 0)},
      {"all", std::vector<uint8_t>(n, 1)},
      {"mixed", [n] {
         std::vector<uint8_t> sel(n);
         for (size_t r = 0; r < n; ++r) sel[r] = (r * 5 % 7) < 3 ? 1 : 0;
         return sel;
       }()}};
  const std::vector<std::vector<std::string>> groupings = {
      {}, {"g"}, {"c", "g"}};
  for (const AggSpec& spec : EveryAggOp(InputExpr())) {
    for (const auto& group_by : groupings) {
      for (const auto& [sel_name, sel] : selections) {
        ExpectConsumeBatchIsConsume(
            schema, {spec}, group_by, batch, sel,
            spec.name + " by " + std::to_string(group_by.size()) + " cols, " +
                sel_name + " selected");
      }
    }
  }
  // All five together share one fold per group.
  ExpectConsumeBatchIsConsume(schema, EveryAggOp(InputExpr()), {"g"}, batch,
                              selections[2].second, "all ops grouped");
}

/// A right-nested sum 41 Adds deep: postfix stack depth 42.
Expr DeepSum(const std::string& leaf, const std::string& addend) {
  Expr e = Expr::Column(leaf);
  for (int k = 0; k < 41; ++k) {
    e = Expr::Add(Expr::Column(addend), std::move(e));
  }
  return e;
}

TEST(KernelOracleTest, DeepExpressionCompilesAndMatchesConsume) {
  const Schema schema = TestSchema();
  Expr deep = DeepSum("i", "d");
  ASSERT_TRUE(deep.Bind(schema).ok());
  auto compiled = deep.Compile(schema);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->max_stack_depth(), 42u);

  const Batch batch = MakeBatch(schema, 64);
  ExpectConsumeBatchIsConsume(schema, EveryAggOp(deep), {"g"}, batch,
                              std::vector<uint8_t>(batch.tuples.size(), 1),
                              "deep");
}

// ------------------------------------------------------------ engine level

/// Front-to-back reference for one query: every page of its scan range in
/// order, every tuple through Predicate::Eval and Aggregator::Consume.
QueryOutput OracleOutput(Database* db, QuerySpec query, uint64_t extent) {
  auto table = db->catalog()->GetTable(query.table);
  EXPECT_TRUE(table.ok());
  const Schema& schema = (*table)->schema;
  EXPECT_TRUE(query.predicate.Bind(schema).ok());
  Aggregator agg(query.aggs, query.group_by);
  EXPECT_TRUE(agg.Bind(schema).ok());
  sim::PageId first = 0;
  sim::PageId end = 0;
  ResolveScanRange(**table, query, extent, &first, &end);
  uint64_t scanned = 0;
  for (sim::PageId p = first; p < end; ++p) {
    auto data = db->disk_manager()->PageData(p);
    EXPECT_TRUE(data.ok());
    const storage::Page view(const_cast<uint8_t*>(*data),
                             db->disk_manager()->page_size());
    for (uint16_t slot = 0; slot < view.tuple_count(); ++slot) {
      const uint8_t* tuple = view.TupleDataUnchecked(slot);
      ++scanned;
      if (query.predicate.Eval(schema, tuple)) agg.Consume(schema, tuple);
    }
  }
  return agg.Finish(scanned);
}

/// Runs `queries` as one baseline stream (front to back, slot order) and
/// requires every output to be bit-identical to its oracle.
void ExpectBaselineRunMatchesOracle(const std::vector<QuerySpec>& queries) {
  Database* db = testutil::SharedLineitemDb(128, 777);
  const RunConfig config = testutil::MakeRunConfig(ScanMode::kBaseline, 24);
  StreamSpec stream;
  stream.queries = queries;
  auto run = db->Run(config, {stream});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->streams.size(), 1u);
  ASSERT_EQ(run->streams[0].queries.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const QueryOutput oracle =
        OracleOutput(db, queries[q], config.buffer.prefetch_extent_pages);
    EXPECT_GT(oracle.rows_matched, 0u) << queries[q].name;
    std::string diff;
    EXPECT_TRUE(
        metrics::BitIdentical(run->streams[0].queries[q].output, oracle, &diff))
        << queries[q].name << ": " << diff;
  }
}

TEST(KernelOracleTest, BaselineDefaultMixMatchesFrontToBackOracle) {
  ExpectBaselineRunMatchesOracle(workload::DefaultQueryMix("lineitem"));
}

// The deep sum needs a 42-slot evaluation stack per lane; the query,
// predicate included, runs through the kernel and must match the oracle.
TEST(KernelOracleTest, DeepAggregateQueryMatchesFrontToBackOracle) {
  QuerySpec deep = workload::MakeQ1Like("lineitem");
  deep.name = "Q1deep";
  deep.aggs.push_back(
      AggSpec{"deep_sum", AggOp::kSum, DeepSum("l_quantity", "l_discount")});
  ExpectBaselineRunMatchesOracle({deep});
}

}  // namespace
}  // namespace scanshare::exec
