// Execution-contract tests for the row and vector pull styles and
// PhysicalOperator::DrainTo.
//
// EOF contract: the final vector of a stream may be non-empty AND carry
// *eof = true (LimitOp truncating mid-vector, UnionAllOp's last child,
// TableScanOp's final partial vector). Consumers must drain first and
// test eof second — these tests verify producers really emit that shape
// and that drains never drop the final rows.
//
// Also covered: limit hit mid-vector, UNION ALL over interleaved empty
// children, capacity-1 vectors, DrainTo over row-only operators, and
// row/vector mode equivalence over a small query suite.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "db/database.h"
#include "exec/executor.h"
#include "exec/operators.h"
#include "expr/builder.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::MustExecute;

class ExecContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE t5 (a INTEGER)");
    MustExecute(db_, "INSERT INTO t5 VALUES (1), (2), (3), (4), (5)");
    MustExecute(db_, "CREATE TABLE empty1 (a INTEGER)");
    MustExecute(db_, "CREATE TABLE empty2 (a INTEGER)");
    MustExecute(db_, "CREATE TABLE empty3 (a INTEGER)");
    MustExecute(db_, "CREATE TABLE t2 (a INTEGER)");
    MustExecute(db_, "INSERT INTO t2 VALUES (10), (11)");
  }

  Table* GetTable(const std::string& name) {
    Result<Table*> t = db_.catalog()->GetTable(name);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return t.ok() ? *t : nullptr;
  }

  PhysicalOperatorPtr Scan(const std::string& name) {
    Table* table = GetTable(name);
    return std::make_unique<TableScanOp>(table->schema(), table);
  }

  Database db_;
};

// ---------------------------------------------------------------------
// EOF contract: non-empty final vector with *eof = true.
// ---------------------------------------------------------------------

TEST_F(ExecContractTest, ScanFinalVectorIsNonEmptyWithEof) {
  PhysicalOperatorPtr scan = Scan("t5");
  ASSERT_TRUE(scan->Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = false;
  ASSERT_TRUE(scan->NextVector(&vp, &eof).ok());
  // 5 rows fit one vector: the producer reports them AND eof together.
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->NumSelected(), 5u);
  EXPECT_TRUE(eof);
}

TEST_F(ExecContractTest, LimitTruncatesMidVectorAndCarriesEof) {
  // A row-only child: the limit truncates the transposed vector of the
  // default NextVectorImpl.
  auto sort = std::make_unique<SortOp>(GetTable("t5")->schema(), Scan("t5"),
                                       std::vector<SortKey>{});
  auto limit = std::make_unique<LimitOp>(GetTable("t5")->schema(),
                                         std::move(sort), /*limit=*/3);
  ASSERT_TRUE(limit->Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = false;
  ASSERT_TRUE(limit->NextVector(&vp, &eof).ok());
  ASSERT_NE(vp, nullptr);
  ASSERT_EQ(vp->NumSelected(), 3u);
  EXPECT_TRUE(eof);
  Row last;
  vp->MaterializeRow(vp->sel()[2], &last);
  EXPECT_EQ(last[0], Value::Int(3));

  // Post-eof pulls are safe: the shell's latch answers null + eof
  // without re-entering the operator.
  ASSERT_TRUE(limit->NextVector(&vp, &eof).ok());
  EXPECT_EQ(vp, nullptr);
  EXPECT_TRUE(eof);
}

TEST_F(ExecContractTest, LimitVectorTruncatesSelectionAndCarriesEof) {
  auto limit = std::make_unique<LimitOp>(GetTable("t5")->schema(),
                                         Scan("t5"), /*limit=*/3);
  ASSERT_TRUE(limit->Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = false;
  ASSERT_TRUE(limit->NextVector(&vp, &eof).ok());
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->NumSelected(), 3u);
  EXPECT_TRUE(eof);
  // The physical vector still holds all 5 scanned rows; only the
  // selection was narrowed.
  EXPECT_EQ(vp->num_rows(), 5u);

  ASSERT_TRUE(limit->NextVector(&vp, &eof).ok());
  EXPECT_EQ(vp, nullptr);
  EXPECT_TRUE(eof);
}

TEST_F(ExecContractTest, DrainToKeepsFinalVectorRows) {
  // A consumer that tested eof before draining would lose the truncated
  // final vector entirely.
  auto limit = std::make_unique<LimitOp>(GetTable("t5")->schema(),
                                         Scan("t5"), /*limit=*/4);
  limit->SetVectorized(true);
  ASSERT_TRUE(limit->Open().ok());
  std::vector<Row> rows;
  ASSERT_TRUE(limit->DrainTo(&rows).ok());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[3][0], Value::Int(4));
}

// DrainTo over row-only materializing operators: a tight NextImpl loop
// under one clock pair, still accounted in the operator's metrics.
TEST_F(ExecContractTest, DrainToOverRowOnlyOperatorsRecordsMetrics) {
  std::vector<SortKey> keys(1);
  keys[0].expr = eb::Col(0, DataType::kInt64);
  keys[0].ascending = false;
  auto sort = std::make_unique<SortOp>(GetTable("t5")->schema(), Scan("t5"),
                                       std::move(keys));
  WindowCall count;
  count.fn = AggFn::kCount;
  count.is_count_star = true;
  count.frame = WindowFrame::WholePartition();
  count.output_name = "n";
  count.output_type = DataType::kInt64;
  std::vector<WindowCall> calls;
  calls.push_back(std::move(count));
  Schema window_schema({ColumnDef("a", DataType::kInt64),
                        ColumnDef("n", DataType::kInt64)});
  std::vector<PhysicalOperatorPtr> ops;
  ops.push_back(std::move(sort));
  ops.push_back(std::make_unique<WindowOp>(std::move(window_schema),
                                           Scan("t5"), std::move(calls)));
  for (const PhysicalOperatorPtr& op : ops) {
    ASSERT_FALSE(op->vectorized()) << op->name();
    ASSERT_TRUE(op->Open().ok());
    std::vector<Row> rows;
    ASSERT_TRUE(op->DrainTo(&rows).ok());
    ASSERT_EQ(rows.size(), 5u) << op->name();
    EXPECT_EQ(op->metrics().rows_out, 5) << op->name();
    EXPECT_EQ(op->metrics().next_calls, 1) << op->name();
    EXPECT_GT(op->metrics().next_ns, 0) << op->name();
    // Exhausted: a later drain appends nothing.
    ASSERT_TRUE(op->DrainTo(&rows).ok());
    EXPECT_EQ(rows.size(), 5u) << op->name();
  }
}

// ---------------------------------------------------------------------
// UNION ALL with empty children interleaved among non-empty ones.
// ---------------------------------------------------------------------

class UnionModesTest : public ExecContractTest {
 protected:
  PhysicalOperatorPtr MakeUnion() {
    std::vector<PhysicalOperatorPtr> children;
    children.push_back(Scan("empty1"));
    children.push_back(Scan("t5"));
    children.push_back(Scan("empty2"));
    children.push_back(Scan("t2"));
    children.push_back(Scan("empty3"));
    return std::make_unique<UnionAllOp>(GetTable("t5")->schema(),
                                        std::move(children));
  }

  void ExpectAllRows(const std::vector<Row>& rows) {
    ASSERT_EQ(rows.size(), 7u);
    EXPECT_EQ(rows[0][0], Value::Int(1));
    EXPECT_EQ(rows[4][0], Value::Int(5));
    EXPECT_EQ(rows[5][0], Value::Int(10));
    EXPECT_EQ(rows[6][0], Value::Int(11));
  }
};

TEST_F(UnionModesTest, RowPath) {
  PhysicalOperatorPtr u = MakeUnion();
  Result<std::vector<Row>> rows = ExecuteToVector(u.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ExpectAllRows(*rows);
}

TEST_F(UnionModesTest, VectorPath) {
  PhysicalOperatorPtr u = MakeUnion();
  u->SetVectorized(true);
  Result<std::vector<Row>> rows = ExecuteToVector(u.get());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ExpectAllRows(*rows);
}

TEST_F(UnionModesTest, VectorPathSkipsEmptyChildrenWithinOneCall) {
  PhysicalOperatorPtr u = MakeUnion();
  ASSERT_TRUE(u->Open().ok());
  VectorProjection* vp = nullptr;
  bool eof = false;
  // First call: skips empty1, yields t5's rows.
  ASSERT_TRUE(u->NextVector(&vp, &eof).ok());
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->NumSelected(), 5u);
  EXPECT_FALSE(eof);
  // Second call: skips empty2, yields t2's rows; empty3 still pending,
  // so eof may only be reported once it is drained too.
  ASSERT_TRUE(u->NextVector(&vp, &eof).ok());
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->NumSelected(), 2u);
  if (!eof) {
    ASSERT_TRUE(u->NextVector(&vp, &eof).ok());
    EXPECT_TRUE(vp == nullptr || vp->NumSelected() == 0);
    EXPECT_TRUE(eof);
  }
}

// ---------------------------------------------------------------------
// Capacity-1 vectors: the smallest legal vector still makes progress
// through a vector-native consumer and honors the EOF contract.
// ---------------------------------------------------------------------

TEST_F(ExecContractTest, CapacityOneVectorsDrainEverything) {
  // t5 JOIN t5 ON a = a, one output row per vector, then a > 1: the
  // filter sees a vector it empties (a = 1) and four it keeps.
  Schema joined({ColumnDef("a", DataType::kInt64),
                 ColumnDef("b", DataType::kInt64)});
  std::vector<ExprPtr> left_keys;
  left_keys.push_back(eb::Col(0, DataType::kInt64));
  std::vector<ExprPtr> right_keys;
  right_keys.push_back(eb::Col(0, DataType::kInt64));
  auto join = std::make_unique<HashJoinOp>(
      joined, Scan("t5"), Scan("t5"), std::move(left_keys),
      std::move(right_keys), nullptr, JoinType::kInner);
  join->SetVectorized(true);
  join->SetVectorOutputCapacityForTest(1);
  auto filter = std::make_unique<FilterOp>(
      joined, std::move(join),
      eb::Gt(eb::Col(0, DataType::kInt64), eb::Int(1)));
  filter->SetVectorized(true);
  ASSERT_TRUE(filter->Open().ok());
  std::vector<Row> rows;
  ASSERT_TRUE(filter->DrainTo(&rows).ok());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][0], Value::Int(2));
  EXPECT_EQ(rows[3][1], Value::Int(5));
  EXPECT_EQ(filter->metrics().vectors_out, 4);
}

// ---------------------------------------------------------------------
// The two execution modes agree on a small SQL suite (end to end,
// including plans that mix vector-native and row-only operators).
// ---------------------------------------------------------------------

class ExecModesSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE t (a INTEGER, b DOUBLE, s VARCHAR)");
    MustExecute(db_,
                "INSERT INTO t VALUES (1, 10.0, 'x'), (2, 20.0, 'y'), "
                "(3, NULL, 'x'), (4, 40.0, NULL), (2, 25.0, 'z'), "
                "(6, 5.5, 'x'), (7, NULL, 'y')");
  }

  // Runs `sql` under the vectorized and row modes and checks they
  // produce identical rows in identical order.
  void ExpectModesAgree(const std::string& sql) {
    db_.options().exec.use_vectorized_execution = true;
    const ResultSet vec = MustExecute(db_, sql);
    db_.options().exec.use_vectorized_execution = false;
    const ResultSet row = MustExecute(db_, sql);
    db_.options().exec.use_vectorized_execution = true;
    EXPECT_TRUE(testutil::RowsEqual(vec, row)) << sql;
  }

  Database db_;
};

TEST_F(ExecModesSqlTest, FilterProjectExpressions) {
  ExpectModesAgree(
      "SELECT a, CASE WHEN a > 2 THEN 100 / a ELSE 0 - a END FROM t "
      "WHERE a BETWEEN 1 AND 6");
  ExpectModesAgree(
      "SELECT a, COALESCE(b, 0.0), MOD(a, 3) FROM t WHERE b > 0 OR s = 'y'");
  ExpectModesAgree("SELECT a FROM t WHERE a IN (2, 4, 9)");
}

TEST_F(ExecModesSqlTest, AllRowsFilteredOut) {
  ExpectModesAgree("SELECT a FROM t WHERE a > 1000");
  ExpectModesAgree("SELECT a FROM t WHERE b IS NULL AND b IS NOT NULL");
}

TEST_F(ExecModesSqlTest, GroupByAndAggregates) {
  ExpectModesAgree(
      "SELECT s, COUNT(*), SUM(a), AVG(b), MIN(b), MAX(a) FROM t GROUP BY s "
      "ORDER BY s");
  // Single-int-key grouping exercises the aggregate's int64 fast path;
  // grouping by a double expression forces the migration to Value keys.
  ExpectModesAgree("SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a");
  ExpectModesAgree("SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b");
}

TEST_F(ExecModesSqlTest, LimitAndUnion) {
  ExpectModesAgree("SELECT a FROM t ORDER BY a LIMIT 3");
  ExpectModesAgree("SELECT a FROM t LIMIT 0");
  ExpectModesAgree(
      "SELECT a FROM t WHERE a < 3 UNION ALL SELECT a FROM t WHERE a > 100 "
      "UNION ALL SELECT a FROM t WHERE a > 5");
}

// ---------------------------------------------------------------------
// Vector-native joins: HashJoinOp's bulk-hashed build/probe and
// MergeBandJoinOp's gathered candidate runs, driven directly through
// NextVector. Covers the edge shapes the fuzz oracles reach only by
// chance: empty build side, all-probe-miss, duplicate-key chains
// spilling across output vectors, capacity-1 outputs, and the
// nonempty-final-vector EOF contract.
// ---------------------------------------------------------------------

class VectorJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE build (k INTEGER, w DOUBLE)");
    MustExecute(db_, "CREATE TABLE probe (k INTEGER, v DOUBLE)");
  }

  void Insert(const std::string& table, const std::string& values) {
    MustExecute(db_, "INSERT INTO " + table + " VALUES " + values);
  }

  PhysicalOperatorPtr Scan(const std::string& name) {
    Result<Table*> t = db_.catalog()->GetTable(name);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    auto scan = std::make_unique<TableScanOp>((*t)->schema(), *t);
    scan->SetVectorized(true);
    return scan;
  }

  // probe JOIN build ON probe.k = build.k; output (p.k, p.v, b.k, b.w).
  std::unique_ptr<HashJoinOp> MakeHashJoin(JoinType join_type,
                                           ExprPtr residual = nullptr) {
    Schema joined({ColumnDef("pk", DataType::kInt64),
                   ColumnDef("pv", DataType::kDouble),
                   ColumnDef("bk", DataType::kInt64),
                   ColumnDef("bw", DataType::kDouble)});
    std::vector<ExprPtr> left_keys;
    left_keys.push_back(eb::Col(0, DataType::kInt64));
    std::vector<ExprPtr> right_keys;
    right_keys.push_back(eb::Col(0, DataType::kInt64));
    auto join = std::make_unique<HashJoinOp>(
        std::move(joined), Scan("probe"), Scan("build"),
        std::move(left_keys), std::move(right_keys), std::move(residual),
        join_type);
    join->SetVectorized(true);
    join->SetVectorExecEnabled(true);
    return join;
  }

  // Drains `op` through NextVector, materializing every selected lane;
  // asserts the EOF contract (post-eof pulls stay empty).
  std::vector<Row> DrainVectors(PhysicalOperator* op) {
    EXPECT_TRUE(op->Open().ok());
    std::vector<Row> rows;
    bool eof = false;
    while (!eof) {
      VectorProjection* vp = nullptr;
      EXPECT_TRUE(op->NextVector(&vp, &eof).ok());
      if (vp == nullptr) continue;
      for (size_t k = 0; k < vp->NumSelected(); ++k) {
        Row row;
        vp->MaterializeRow(vp->sel()[k], &row);
        rows.push_back(std::move(row));
      }
    }
    VectorProjection* vp = nullptr;
    EXPECT_TRUE(op->NextVector(&vp, &eof).ok());
    EXPECT_TRUE(vp == nullptr || vp->NumSelected() == 0);
    EXPECT_TRUE(eof);
    return rows;
  }

  Database db_;
};

TEST_F(VectorJoinTest, EmptyBuildSideInnerYieldsNothing) {
  Insert("probe", "(1, 10), (2, 20), (3, 30)");
  auto join = MakeHashJoin(JoinType::kInner);
  EXPECT_TRUE(DrainVectors(join.get()).empty());
}

TEST_F(VectorJoinTest, EmptyBuildSideLeftOuterNullPads) {
  Insert("probe", "(1, 10), (2, 20)");
  auto join = MakeHashJoin(JoinType::kLeftOuter);
  const std::vector<Row> rows = DrainVectors(join.get());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value::Int(1));
  EXPECT_TRUE(rows[0][2].is_null());
  EXPECT_TRUE(rows[0][3].is_null());
  EXPECT_EQ(rows[1][0], Value::Int(2));
  EXPECT_TRUE(rows[1][3].is_null());
}

TEST_F(VectorJoinTest, AllProbeMissInnerYieldsNothing) {
  Insert("build", "(100, 1), (200, 2)");
  Insert("probe", "(1, 10), (2, 20), (3, 30)");
  auto join = MakeHashJoin(JoinType::kInner);
  EXPECT_TRUE(DrainVectors(join.get()).empty());
}

TEST_F(VectorJoinTest, NullKeysNeverMatchButLeftOuterPads) {
  Insert("build", "(NULL, 1), (2, 2)");
  Insert("probe", "(NULL, 10), (2, 20)");
  {
    auto join = MakeHashJoin(JoinType::kInner);
    const std::vector<Row> rows = DrainVectors(join.get());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][0], Value::Int(2));
    EXPECT_EQ(rows[0][2], Value::Int(2));
  }
  {
    auto join = MakeHashJoin(JoinType::kLeftOuter);
    const std::vector<Row> rows = DrainVectors(join.get());
    ASSERT_EQ(rows.size(), 2u);  // NULL probe row survives null-padded
  }
}

TEST_F(VectorJoinTest, DuplicateKeyChainsSpillAcrossOutputVectors) {
  // 3 probe rows × 5 duplicate build keys = 15 matches; capacity 4
  // forces one probe row's candidate run to split mid-vector and the
  // final vector to arrive non-empty with eof.
  Insert("build", "(7, 1), (7, 2), (7, 3), (7, 4), (7, 5)");
  Insert("probe", "(7, 10), (7, 20), (7, 30)");
  auto join = MakeHashJoin(JoinType::kInner);
  join->SetVectorOutputCapacityForTest(4);
  ASSERT_TRUE(join->Open().ok());
  std::vector<Row> rows;
  size_t vectors = 0;
  bool saw_nonempty_final = false;
  bool eof = false;
  while (!eof) {
    VectorProjection* vp = nullptr;
    ASSERT_TRUE(join->NextVector(&vp, &eof).ok());
    if (vp == nullptr) continue;
    if (vp->NumSelected() > 0) {
      ++vectors;
      if (eof) saw_nonempty_final = true;
    }
    EXPECT_LE(vp->NumSelected(), 4u);
    for (size_t k = 0; k < vp->NumSelected(); ++k) {
      Row row;
      vp->MaterializeRow(vp->sel()[k], &row);
      rows.push_back(std::move(row));
    }
  }
  ASSERT_EQ(rows.size(), 15u);
  EXPECT_GE(vectors, 4u);  // 15 matches through capacity-4 vectors
  EXPECT_TRUE(saw_nonempty_final);
  // Chains preserve build arrival order per probe row (w ascending),
  // and probe rows surface in probe order.
  EXPECT_EQ(rows[0][3], Value::Double(1));
  EXPECT_EQ(rows[4][3], Value::Double(5));
  EXPECT_EQ(rows[5][1], Value::Double(20));
}

TEST_F(VectorJoinTest, CapacityOneVectorsDrainEverything) {
  Insert("build", "(1, 1), (2, 2), (2, 3)");
  Insert("probe", "(2, 20), (1, 10), (9, 90)");
  auto join = MakeHashJoin(JoinType::kLeftOuter);
  join->SetVectorOutputCapacityForTest(1);
  const std::vector<Row> rows = DrainVectors(join.get());
  ASSERT_EQ(rows.size(), 4u);  // 2 matches for k=2, 1 for k=1, 1 padded
  EXPECT_EQ(rows[0][3], Value::Double(2));
  EXPECT_EQ(rows[1][3], Value::Double(3));
  EXPECT_EQ(rows[2][0], Value::Int(1));
  EXPECT_TRUE(rows[3][3].is_null());  // k=9 null-padded
}

TEST_F(VectorJoinTest, ResidualFiltersCandidates) {
  Insert("build", "(5, 1), (5, 2), (5, 3)");
  Insert("probe", "(5, 50)");
  // Residual over the joined row: build.w >= 2 (column 3 of output).
  auto join = MakeHashJoin(
      JoinType::kInner,
      eb::Ge(eb::Col(3, DataType::kDouble), eb::Dbl(2.0)));
  const std::vector<Row> rows = DrainVectors(join.get());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][3], Value::Double(2));
  EXPECT_EQ(rows[1][3], Value::Double(3));
}

TEST_F(VectorJoinTest, RowAndVectorPathsAgreeOnForcedHashJoinSql) {
  Insert("build", "(1, 1), (2, 2), (2, 3), (NULL, 4), (5, 5)");
  Insert("probe",
         "(2, 20), (2, 21), (1, 10), (NULL, 0), (7, 70), (5, 50)");
  // Forcing the planner away from index nested loops routes these
  // through HashJoinOp in every mode.
  db_.options().exec.enable_index_nested_loop_join = false;
  const char* queries[] = {
      "SELECT p.k, p.v, b.w FROM probe p JOIN build b ON p.k = b.k "
      "ORDER BY 1, 2, 3",
      "SELECT p.k, p.v, b.w FROM probe p LEFT OUTER JOIN build b ON "
      "p.k = b.k ORDER BY 2, 3",
      "SELECT p.k, COUNT(*) FROM probe p JOIN build b ON p.k = b.k "
      "GROUP BY p.k ORDER BY 1",
  };
  for (const char* sql : queries) {
    db_.options().exec.use_vectorized_execution = true;
    const ResultSet vec = MustExecute(db_, sql);
    db_.options().exec.use_vectorized_execution = false;
    const ResultSet row = MustExecute(db_, sql);
    db_.options().exec.use_vectorized_execution = true;
    EXPECT_TRUE(testutil::RowsEqual(vec, row)) << sql;
  }
}

// Band join vector path: the same capacity/EOF edges through SQL-level
// band-shaped self joins (direct construction is covered by the band
// join's own suite; here the vector output path is the subject).
class VectorBandJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE seq (pos INTEGER, val DOUBLE)");
    std::string values;
    for (int i = 1; i <= 40; ++i) {
      if (i > 1) values += ", ";
      values += "(" + std::to_string(i) + ", " + std::to_string(i * 10) +
                ")";
    }
    MustExecute(db_, "INSERT INTO seq VALUES " + values);
  }

  void ExpectVectorMatchesRow(const std::string& sql) {
    db_.options().exec.use_vectorized_execution = true;
    const ResultSet vec = MustExecute(db_, sql);
    db_.options().exec.use_vectorized_execution = false;
    const ResultSet row = MustExecute(db_, sql);
    db_.options().exec.use_vectorized_execution = true;
    EXPECT_TRUE(testutil::RowsEqual(vec, row)) << sql;
  }

  Database db_;
};

TEST_F(VectorBandJoinTest, BandShapesAgreeAcrossModes) {
  ExpectVectorMatchesRow(
      "SELECT s1.pos, SUM(s2.val) FROM seq s1, seq s2 WHERE s2.pos "
      "BETWEEN s1.pos - 3 AND s1.pos + 3 GROUP BY s1.pos ORDER BY 1");
  ExpectVectorMatchesRow(
      "SELECT s1.pos, s2.val FROM seq s1, seq s2 WHERE s2.pos IN "
      "(s1.pos - 1, s1.pos, s1.pos + 1) ORDER BY 1, 2");
  ExpectVectorMatchesRow(
      "SELECT s1.pos, COUNT(*) FROM seq s1, seq s2 WHERE s2.pos < s1.pos "
      "AND MOD(s2.pos, 4) = MOD(s1.pos, 4) GROUP BY s1.pos ORDER BY 1");
}

TEST_F(ExecModesSqlTest, ErrorsAgreeAcrossModes) {
  const std::string sql = "SELECT 1 / (a - a) FROM t";
  db_.options().exec.use_vectorized_execution = true;
  Result<ResultSet> vec = db_.Execute(sql);
  db_.options().exec.use_vectorized_execution = false;
  Result<ResultSet> row = db_.Execute(sql);
  ASSERT_FALSE(vec.ok());
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(vec.status().ToString(), row.status().ToString());
}

}  // namespace
}  // namespace rfv
