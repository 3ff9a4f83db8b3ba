// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// Oracle tests for the one tuple kernel. Scans run
// CompiledPredicate::MatchBatch and Aggregator::ConsumeBatch; the
// interpreted Predicate::Eval and Aggregator::Consume are the reference,
// and every comparison here is exact (aggregates by bit pattern).
//
// Unit level: every CompareOp over int64, double and char columns — char
// constants shorter than the field, zero-padded and full-width fields, and
// one-byte fields and constants on both sides of 0x80 — and every AggOp,
// ungrouped and grouped by packed keys, by keys wider than 8 bytes and by
// more groups than the group-id table first holds, under all-zero,
// all-one and mixed selections; MIN/MAX over signed zeros and NaN; raw
// group bytes that differ only after a NUL; and one aggregator mixing
// every entry point. Engine level: a baseline run of the default query
// mix and a query whose aggregate is a 41-deep sum are bit-identical to a
// front-to-back Eval/Consume pass over the table's page images.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
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

/// `w` is wider than 8 bytes, so grouping by it cannot use packed keys.
Schema TestSchema() {
  return Schema({Column::Int64("i"), Column::Double("d"), Column::Char("c", 4),
                 Column::Char("g", 1), Column::Char("w", 12)});
}

/// One test row's values, in TestSchema order.
struct Row {
  int64_t i = 0;
  double d = 0.0;
  std::string c;
  std::string g;
  std::string w;
};

/// Encoded rows plus the tuple-pointer array the kernel takes.
struct Batch {
  std::vector<std::vector<uint8_t>> rows;
  std::vector<const uint8_t*> tuples;
};

Batch MakeRows(const Schema& schema, const std::vector<Row>& rows) {
  Batch batch;
  batch.rows.resize(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    EXPECT_TRUE(schema
                    .EncodeTuple({Value::Int64(row.i), Value::Double(row.d),
                                  Value::Char(row.c), Value::Char(row.g),
                                  Value::Char(row.w)},
                                 &batch.rows[r])
                    .ok());
  }
  for (const auto& row : batch.rows) batch.tuples.push_back(row.data());
  return batch;
}

// Char values cover the empty (all-zero) field, constants' prefixes and
// extensions, and a full-width field with no zero padding at all.
const char* const kChars[] = {"", "A", "AB", "ABC", "ABCD", "ABD", "B", "AA"};
const char* const kWide[] = {"", "1-URGENT", "2-HIGH", "3-MEDIUM-XYZ",
                             "5-LOW"};

Batch MakeBatch(const Schema& schema, size_t n) {
  std::vector<Row> rows(n);
  for (size_t r = 0; r < n; ++r) {
    rows[r].i = static_cast<int64_t>(r * 7 % 23) - 11;
    rows[r].d = static_cast<double>(r * 13 % 17) * 0.25 - 2.0;
    rows[r].c = kChars[r % 8];
    rows[r].g = std::string(1, static_cast<char>('x' + r % 3));
    rows[r].w = kWide[r % 5];
  }
  return MakeRows(schema, rows);
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

// A one-byte char atom is a dense unsigned byte compare. Field bytes 0
// (the empty field) and >= 0x80 catch a signed-char compare.
TEST(KernelOracleTest, MatchBatchIsEvalForOneByteCharAtoms) {
  const Schema schema = TestSchema();
  const uint8_t kBytes[] = {0x00, 0x01, 'A', 'R', 'S', 0x7f,
                            0x80, 0x81, 0xc3, 0xfe, 0xff};
  std::vector<Row> rows;
  for (const uint8_t byte : kBytes) {
    Row row;
    if (byte != 0) row.g = std::string(1, static_cast<char>(byte));
    rows.push_back(row);
  }
  const Batch batch = MakeRows(schema, rows);
  for (const CompareOp op : kOps) {
    const std::string op_name = std::to_string(static_cast<int>(op));
    for (const char* v : {"", "R", "\x7f", "\x80", "\xff"}) {
      ExpectMatchBatchIsEval(schema, Predicate().And("g", op, Value::Char(v)),
                             batch, "g op" + op_name + " byte " +
                                        std::to_string(static_cast<uint8_t>(
                                            v[0])));
    }
  }
  // Unsigned order: exactly the five bytes above 0x7f pass g > '\x7f'.
  Predicate high = Predicate().And("g", CompareOp::kGt, Value::Char("\x7f"));
  ASSERT_TRUE(high.Bind(schema).ok());
  auto compiled = high.Compile(schema);
  ASSERT_TRUE(compiled.ok());
  std::vector<uint8_t> sel(batch.tuples.size());
  compiled->MatchBatch(batch.tuples.data(), batch.tuples.size(), sel.data());
  EXPECT_EQ(std::count(sel.begin(), sel.end(), 1), 5);
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
  // Packed keys of one and five bytes, and keys of 12 and 13 bytes that
  // resolve through the canonical map.
  const std::vector<std::vector<std::string>> groupings = {
      {}, {"g"}, {"c", "g"}, {"w"}, {"g", "w"}};
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
  // All five together share one input lane.
  ExpectConsumeBatchIsConsume(schema, EveryAggOp(InputExpr()), {"g"}, batch,
                              selections[2].second, "all ops grouped");
  ExpectConsumeBatchIsConsume(schema, EveryAggOp(InputExpr()), {"w"}, batch,
                              selections[2].second, "all ops, wide key");
}

/// Finish output of a Consume-only fold of every row of `batch`.
QueryOutput ConsumeAll(const Schema& schema, const std::vector<AggSpec>& specs,
                       const std::vector<std::string>& group_by,
                       const Batch& batch) {
  Aggregator agg(specs, group_by);
  EXPECT_TRUE(agg.Bind(schema).ok());
  for (const uint8_t* tuple : batch.tuples) agg.Consume(schema, tuple);
  return agg.Finish(batch.tuples.size());
}

// 100 distinct packed keys, first seen mid-batch, grow the group-id table
// well past its first capacity of 16 entries.
TEST(KernelOracleTest, ConsumeBatchIsConsumeWithMoreGroupsThanTheIdTable) {
  const Schema schema = TestSchema();
  std::vector<Row> rows(700);
  for (size_t r = 0; r < rows.size(); ++r) {
    rows[r].i = static_cast<int64_t>(r % 41) - 20;
    rows[r].d = static_cast<double>(r % 37) * 0.125;
    const size_t group = r * 37 % 100;
    rows[r].c = {static_cast<char>('A' + group % 10),
                 static_cast<char>('a' + group / 10)};
    rows[r].g = std::string(1, static_cast<char>('x' + r % 2));
  }
  const Batch batch = MakeRows(schema, rows);
  const std::vector<uint8_t> all(batch.tuples.size(), 1);
  EXPECT_EQ(ConsumeAll(schema, EveryAggOp(InputExpr()), {"c"}, batch)
                .groups.size(),
            100u);
  ExpectConsumeBatchIsConsume(schema, EveryAggOp(InputExpr()), {"c"}, batch,
                              all, "100 groups");
  ExpectConsumeBatchIsConsume(schema, EveryAggOp(InputExpr()), {"c", "g"},
                              batch, all, "200 groups");
}

// std::min(acc, v) keeps acc on a tie or a NaN v; the other argument order
// would let -0.0 replace +0.0, or NaN replace a value, and BitIdentical
// sees both. Each group gets the inputs in a different order.
TEST(KernelOracleTest, MinMaxKeepArgumentOrderOverSignedZerosAndNaN) {
  const Schema schema = TestSchema();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<const char*, std::vector<double>>> orders = {
      {"x", {0.0, -0.0, nan}},
      {"y", {-0.0, 0.0, nan}},
      {"z", {nan, -0.0, 0.0, nan}}};
  std::vector<Row> rows;
  for (size_t k = 0; k < 4; ++k) {
    for (const auto& [group, values] : orders) {
      if (k < values.size()) {
        Row row;
        row.d = values[k];
        row.g = group;
        row.w = std::string("wide-") + group;
        rows.push_back(row);
      }
    }
  }
  const Batch batch = MakeRows(schema, rows);
  const std::vector<uint8_t> all(batch.tuples.size(), 1);
  const Expr d = Expr::Column("d");
  for (const auto& group_by : std::vector<std::vector<std::string>>{
           {}, {"g"}, {"w"}}) {
    ExpectConsumeBatchIsConsume(
        schema, EveryAggOp(d), group_by, batch, all,
        "signed zeros by " + std::to_string(group_by.size()) + " cols");
  }
  // The reference itself: the first zero of each order wins both ways.
  const QueryOutput out = ConsumeAll(
      schema,
      {AggSpec{"min", AggOp::kMin, d}, AggSpec{"max", AggOp::kMax, d}}, {"g"},
      batch);
  ASSERT_EQ(out.groups.size(), 3u);
  EXPECT_FALSE(std::signbit(out.groups[0].values[0]));  // x: +0.0 first.
  EXPECT_FALSE(std::signbit(out.groups[0].values[1]));
  EXPECT_TRUE(std::signbit(out.groups[1].values[0]));  // y: -0.0 first.
  EXPECT_TRUE(std::signbit(out.groups[1].values[1]));
  EXPECT_TRUE(std::signbit(out.groups[2].values[0]));  // z: NaN skipped.
  EXPECT_FALSE(std::isnan(out.groups[2].values[1]));
}

// Group fields that differ only after their first NUL are one canonical
// group: the kernel must fold all of their rows into one accumulator in
// slot order. The values make the sum depend on that order.
TEST(KernelOracleTest, RawBytesAfterTheFirstNulFoldAsOneGroupInSlotOrder) {
  const Schema schema = TestSchema();
  const double kValues[] = {1e16, 1.0, -1e16, 1.0, 0.5, 3.0, -0.25, 1e-3};
  std::vector<Row> rows;
  for (size_t r = 0; r < 24; ++r) {
    Row row;
    row.d = kValues[r % 8] * static_cast<double>(1 + r / 8);
    row.c = "A";
    row.g = "x";
    row.w = "LOW";
    rows.push_back(row);
  }
  Batch batch = MakeRows(schema, rows);
  // Three raw encodings of "A" (and of "LOW"): clean, and with bytes
  // after the NUL.
  const uint32_t c_at = schema.offset(2);
  const uint32_t w_at = schema.offset(4);
  for (size_t r = 0; r < batch.rows.size(); ++r) {
    if (r % 3 == 1) {
      batch.rows[r][c_at + 2] = 'Z';
      batch.rows[r][w_at + 5] = 'Q';
    } else if (r % 3 == 2) {
      batch.rows[r][c_at + 3] = 0xff;
      batch.rows[r][w_at + 11] = 0x80;
    }
  }
  const std::vector<uint8_t> all(batch.tuples.size(), 1);
  const std::vector<AggSpec> specs = EveryAggOp(Expr::Column("d"));
  for (const auto& [group_by, key] :
       std::vector<std::pair<std::vector<std::string>, std::string>>{
           {{"c"}, "A"}, {{"c", "g"}, "A|x"}, {{"w"}, "LOW"}}) {
    const QueryOutput reference = ConsumeAll(schema, specs, group_by, batch);
    ASSERT_EQ(reference.groups.size(), 1u) << key;
    EXPECT_EQ(reference.groups[0].key, key);
    EXPECT_EQ(reference.groups[0].rows, batch.rows.size()) << key;
    ExpectConsumeBatchIsConsume(schema, specs, group_by, batch, all,
                                "raw encodings of " + key);
  }
}

// One aggregator through every entry point: batches, single tuples, a
// plain copy, and a copy followed by PrepareHot (which empties the
// group-id table the copy carried). The reference runs the same script
// with Consume wherever the kernel runs ConsumeBatch.
TEST(KernelOracleTest, MixedEntryPointsMatchAConsumeOnlyScript) {
  const Schema schema = TestSchema();
  const Batch batch = MakeBatch(schema, 300);
  const size_t n = batch.tuples.size();
  std::vector<uint8_t> sel(n);
  for (size_t r = 0; r < n; ++r) sel[r] = (r * 5 % 7) < 5 ? 1 : 0;

  for (const auto& group_by : std::vector<std::vector<std::string>>{
           {}, {"g"}, {"c", "g"}, {"w"}}) {
    const std::string what =
        "mixed by " + std::to_string(group_by.size()) + " cols";
    const std::vector<AggSpec> specs = EveryAggOp(InputExpr());
    auto make = [&](bool hot) {
      Aggregator agg(specs, group_by);
      EXPECT_TRUE(agg.Bind(schema).ok());
      if (hot) {
        EXPECT_TRUE(agg.PrepareHot(schema).ok());
      }
      return agg;
    };
    // Folds rows [begin, end): the kernel a batch at a time, the
    // reference one selected tuple at a time.
    auto fold = [&](Aggregator& agg, bool hot, size_t begin, size_t end) {
      if (hot) {
        agg.ConsumeBatch(batch.tuples.data() + begin, sel.data() + begin,
                         end - begin);
        return;
      }
      for (size_t r = begin; r < end; ++r) {
        if (sel[r]) agg.Consume(schema, batch.tuples[r]);
      }
    };
    auto script = [&](bool hot) {
      Aggregator agg = make(hot);
      fold(agg, hot, 0, 40);
      for (size_t r = 40; r < 50; ++r) agg.Consume(schema, batch.tuples[r]);
      fold(agg, hot, 50, 180);
      Aggregator copy = agg;
      fold(copy, hot, 180, 200);
      Aggregator prepared = copy;
      EXPECT_TRUE(prepared.PrepareHot(schema).ok());
      fold(prepared, hot, 200, n);
      return prepared.Finish(n);
    };
    std::string diff;
    EXPECT_TRUE(metrics::BitIdentical(script(true), script(false), &diff))
        << what << ": " << diff;
  }
}

/// A right-nested sum 41 Adds deep: 43 lanes (two columns, 41 sums).
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
  LaneProgram program;
  auto lane = program.Add(deep, schema);
  ASSERT_TRUE(lane.ok()) << lane.status().ToString();
  EXPECT_EQ(program.num_lanes(), 43u);
  // The same tree again shares every lane.
  auto again = program.Add(deep, schema);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *lane);
  EXPECT_EQ(program.num_lanes(), 43u);

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
    const storage::PageView view(*data, db->disk_manager()->page_size());
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

// The deep sum adds 41 lanes to Q1's program (its two columns are Q1's);
// the query, predicate included, runs through the kernel and must match
// the oracle.
TEST(KernelOracleTest, DeepAggregateQueryMatchesFrontToBackOracle) {
  QuerySpec deep = workload::MakeQ1Like("lineitem");
  deep.name = "Q1deep";
  deep.aggs.push_back(
      AggSpec{"deep_sum", AggOp::kSum, DeepSum("l_quantity", "l_discount")});
  ExpectBaselineRunMatchesOracle({deep});
}

}  // namespace
}  // namespace scanshare::exec
