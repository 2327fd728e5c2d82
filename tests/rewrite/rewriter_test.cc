#include "rewrite/rewriter.h"

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "test_util.h"

namespace rfv {
namespace {

using testutil::CreateSeqTable;
using testutil::MustExecute;
using testutil::RowsEqual;

std::optional<SeqQuery> Recognize(const std::string& sql,
                                  bool* wants_order = nullptr) {
  Result<Statement> stmt = Parser::ParseStatement(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  bool ignored = false;
  return Rewriter::RecognizeSimpleWindowQuery(
      *stmt->select, wants_order != nullptr ? wants_order : &ignored);
}

TEST(RecognizeTest, CanonicalSlidingQuery) {
  const auto q = Recognize(
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
      "AND 1 FOLLOWING) FROM seq");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->base_table, "seq");
  EXPECT_EQ(q->order_column, "pos");
  EXPECT_EQ(q->value_column, "val");
  EXPECT_EQ(q->fn, SeqAggFn::kSum);
  EXPECT_EQ(q->window, WindowSpec::SlidingUnchecked(2, 1));
}

TEST(RecognizeTest, CumulativeShapes) {
  for (const char* frame :
       {"ROWS UNBOUNDED PRECEDING",
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW", ""}) {
    const std::string over =
        std::string("(ORDER BY pos ") + frame + ")";
    const auto q = Recognize("SELECT pos, SUM(val) OVER " + over + " FROM seq");
    ASSERT_TRUE(q.has_value()) << frame;
    EXPECT_TRUE(q->window.is_cumulative()) << frame;
  }
}

TEST(RecognizeTest, AvgSetsFlag) {
  const auto q = Recognize(
      "SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
      "AND 1 FOLLOWING) FROM seq");
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(q->is_avg);
  EXPECT_EQ(q->fn, SeqAggFn::kSum);
}

TEST(RecognizeTest, MinMaxFunctions) {
  EXPECT_EQ(Recognize("SELECT pos, MIN(val) OVER (ORDER BY pos ROWS "
                      "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq")
                ->fn,
            SeqAggFn::kMin);
  EXPECT_EQ(Recognize("SELECT pos, MAX(val) OVER (ORDER BY pos ROWS "
                      "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq")
                ->fn,
            SeqAggFn::kMax);
}

TEST(RecognizeTest, OrderByVariantsAccepted) {
  bool wants_order = false;
  ASSERT_TRUE(Recognize("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                        "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq "
                        "ORDER BY pos",
                        &wants_order)
                  .has_value());
  EXPECT_TRUE(wants_order);
  ASSERT_TRUE(Recognize("SELECT pos AS p, SUM(val) OVER (ORDER BY pos ROWS "
                        "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq "
                        "ORDER BY p",
                        &wants_order)
                  .has_value());
  ASSERT_TRUE(Recognize("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                        "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq "
                        "ORDER BY 1",
                        &wants_order)
                  .has_value());
}

TEST(RecognizeTest, PartitionedQuery) {
  const auto q = Recognize(
      "SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS "
      "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM pseq");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->partition_columns, std::vector<std::string>({"grp"}));
  EXPECT_EQ(q->order_column, "pos");
}

TEST(RecognizeTest, PartitionedQueryOrderByFullKey) {
  bool wants_order = false;
  ASSERT_TRUE(Recognize("SELECT grp, pos, SUM(val) OVER (PARTITION BY grp "
                        "ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 "
                        "FOLLOWING) FROM pseq ORDER BY grp, pos",
                        &wants_order)
                  .has_value());
  EXPECT_TRUE(wants_order);
  // Wrong key order is rejected.
  EXPECT_FALSE(Recognize("SELECT grp, pos, SUM(val) OVER (PARTITION BY grp "
                         "ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 "
                         "FOLLOWING) FROM pseq ORDER BY pos, grp")
                   .has_value());
}

TEST(RecognizeTest, PartitionColumnsMustMatchSelectPrefix) {
  // Select prefix (grp) must equal the PARTITION BY list.
  EXPECT_FALSE(Recognize("SELECT val, pos, SUM(val) OVER (PARTITION BY grp "
                         "ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 "
                         "FOLLOWING) FROM pseq")
                   .has_value());
}

TEST(RecognizeTest, RejectedShapes) {
  // WHERE clause.
  EXPECT_FALSE(Recognize("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                         "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq "
                         "WHERE pos > 1")
                   .has_value());
  // Partition clause without the partition columns in the select list.
  EXPECT_FALSE(Recognize("SELECT pos, SUM(val) OVER (PARTITION BY grp "
                         "ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 "
                         "FOLLOWING) FROM seq")
                   .has_value());
  // Mismatched order column.
  EXPECT_FALSE(Recognize("SELECT pos, SUM(val) OVER (ORDER BY val ROWS "
                         "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq")
                   .has_value());
  // Descending window order.
  EXPECT_FALSE(Recognize("SELECT pos, SUM(val) OVER (ORDER BY pos DESC "
                         "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM "
                         "seq")
                   .has_value());
  // Backward frame (not a paper sequence window).
  EXPECT_FALSE(Recognize("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                         "BETWEEN 3 PRECEDING AND 1 PRECEDING) FROM seq")
                   .has_value());
  // COUNT is not a sequence aggregate here.
  EXPECT_FALSE(Recognize("SELECT pos, COUNT(val) OVER (ORDER BY pos ROWS "
                         "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq")
                   .has_value());
  // Window argument must be a plain column.
  EXPECT_FALSE(Recognize("SELECT pos, SUM(val * 2) OVER (ORDER BY pos ROWS "
                         "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM seq")
                   .has_value());
}

class RewriterEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    CreateSeqTable(db_, 50);
    MustExecute(db_,
                "CREATE MATERIALIZED VIEW matseq AS SELECT pos, SUM(val) "
                "OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 "
                "FOLLOWING) FROM seq");
  }

  ResultSet Reference(const std::string& sql) {
    db_.options().enable_view_rewrite = false;
    ResultSet rs = MustExecute(db_, sql);
    db_.options().enable_view_rewrite = true;
    return rs;
  }

  Database db_;
};

TEST_F(RewriterEndToEnd, DirectHit) {
  const std::string sql =
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos";
  const ResultSet rs = MustExecute(db_, sql);
  EXPECT_EQ(rs.rewrite_method(), "direct");
  EXPECT_TRUE(RowsEqual(rs, Reference(sql)));
}

TEST_F(RewriterEndToEnd, CostModelPrefersMinoaOverMaxoa) {
  // The static order picks MaxOA for a widened window, but the cost
  // model arbitrates the paper's §7 trade-off: MaxOA's disjunction has
  // 3 congruence branches here against MinOA's 2, so the nested-loop
  // pattern join is priced lower for MinOA.
  const std::string sql =
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos";
  const ResultSet rs = MustExecute(db_, sql);
  EXPECT_EQ(rs.rewrite_method(), "MinOA");
  EXPECT_TRUE(RowsEqual(rs, Reference(sql)));
}

TEST_F(RewriterEndToEnd, StaticOrderPicksMaxoa) {
  // With the cost model off, the paper's static preference order
  // applies: direct > cumulative-diff > MaxOA > MinOA.
  db_.options().use_cost_model = false;
  const std::string sql =
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos";
  const ResultSet rs = MustExecute(db_, sql);
  EXPECT_EQ(rs.rewrite_method(), "MaxOA");
  EXPECT_TRUE(RowsEqual(rs, Reference(sql)));
}

TEST_F(RewriterEndToEnd, ForcedMinoa) {
  db_.options().force_method = DerivationMethod::kMinoa;
  const std::string sql =
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos";
  const ResultSet rs = MustExecute(db_, sql);
  EXPECT_EQ(rs.rewrite_method(), "MinOA");
  EXPECT_TRUE(RowsEqual(rs, Reference(sql)));
}

TEST_F(RewriterEndToEnd, NarrowingQueryViaMinoa) {
  const std::string sql =
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos";
  const ResultSet rs = MustExecute(db_, sql);
  EXPECT_EQ(rs.rewrite_method(), "MinOA");
  EXPECT_TRUE(RowsEqual(rs, Reference(sql)));
}

TEST_F(RewriterEndToEnd, CumulativeQueryFromSlidingView) {
  const std::string sql =
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) "
      "FROM seq ORDER BY pos";
  const ResultSet rs = MustExecute(db_, sql);
  EXPECT_EQ(rs.rewrite_method(), "MinOA");
  EXPECT_TRUE(RowsEqual(rs, Reference(sql)));
}

TEST_F(RewriterEndToEnd, UnionVariantProducesSameValues) {
  db_.options().rewrite_variant = RewriteVariant::kUnion;
  const std::string sql =
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
      "AND 2 FOLLOWING) FROM seq ORDER BY pos";
  const ResultSet rs = MustExecute(db_, sql);
  EXPECT_FALSE(rs.rewrite_method().empty());
  EXPECT_NE(rs.rewritten_sql().find("UNION ALL"), std::string::npos);
  EXPECT_TRUE(RowsEqual(rs, Reference(sql)));
}

TEST_F(RewriterEndToEnd, NoViewNoRewrite) {
  const std::string sql =
      "SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos";
  const ResultSet rs = MustExecute(db_, sql);
  EXPECT_TRUE(rs.rewrite_method().empty());
}

TEST_F(RewriterEndToEnd, RewriteDisabled) {
  db_.options().enable_view_rewrite = false;
  const ResultSet rs = MustExecute(
      db_,
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos");
  EXPECT_TRUE(rs.rewrite_method().empty());
}

TEST_F(RewriterEndToEnd, AvgFromSumView) {
  const std::string sql =
      "SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos";
  const ResultSet rs = MustExecute(db_, sql);
  EXPECT_FALSE(rs.rewrite_method().empty());
  const ResultSet reference = Reference(sql);
  ASSERT_EQ(rs.NumRows(), reference.NumRows());
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    EXPECT_NEAR(rs.at(i, 1).ToDouble(), reference.at(i, 1).ToDouble(), 1e-9);
  }
}

TEST_F(RewriterEndToEnd, QueriesOnOtherTablesUntouched) {
  MustExecute(db_, "CREATE TABLE other (pos INTEGER, val DOUBLE)");
  MustExecute(db_, "INSERT INTO other VALUES (1, 1), (2, 2), (3, 3)");
  const ResultSet rs = MustExecute(
      db_,
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
      "AND 1 FOLLOWING) FROM other ORDER BY pos");
  EXPECT_TRUE(rs.rewrite_method().empty());
}

TEST_F(RewriterEndToEnd, CountTrivialRewrite) {
  // Paper §2.1: COUNT is trivial — positions alone answer it. The
  // materialized view from SetUp is the density witness.
  for (const char* frame :
       {"ROWS BETWEEN 2 PRECEDING AND 3 FOLLOWING",
        "ROWS UNBOUNDED PRECEDING"}) {
    const std::string sql =
        std::string("SELECT pos, COUNT(*) OVER (ORDER BY pos ") + frame +
        ") FROM seq ORDER BY pos";
    const ResultSet rs = MustExecute(db_, sql);
    EXPECT_EQ(rs.rewrite_method(), "count-trivial") << frame;
    const ResultSet reference = Reference(sql);
    ASSERT_EQ(rs.NumRows(), reference.NumRows());
    for (size_t i = 0; i < rs.NumRows(); ++i) {
      EXPECT_EQ(rs.at(i, 1).AsInt(), reference.at(i, 1).AsInt())
          << frame << " row " << i;
    }
  }
  // COUNT(pos) (the dense order column) also qualifies.
  const ResultSet rs = MustExecute(
      db_, "SELECT pos, COUNT(pos) OVER (ORDER BY pos ROWS BETWEEN 1 "
           "PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos");
  EXPECT_EQ(rs.rewrite_method(), "count-trivial");
}

TEST_F(RewriterEndToEnd, CountOverMeasureNotRewritten) {
  // COUNT(val) could see NULLs; it is not position-trivial.
  const ResultSet rs = MustExecute(
      db_, "SELECT pos, COUNT(val) OVER (ORDER BY pos ROWS BETWEEN 1 "
           "PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos");
  EXPECT_TRUE(rs.rewrite_method().empty());
}

TEST(CountTrivialGuard, NoWitnessNoRewrite) {
  // Without any registered view over (seq, pos), density is unknown and
  // the COUNT rewrite must not fire.
  Database db;
  CreateSeqTable(db, 10);
  const ResultSet rs = MustExecute(
      db, "SELECT pos, COUNT(*) OVER (ORDER BY pos ROWS BETWEEN 1 "
          "PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos");
  EXPECT_TRUE(rs.rewrite_method().empty());
}

TEST_F(RewriterEndToEnd, PartitionedDirectHit) {
  MustExecute(db_,
              "CREATE TABLE pseq (grp INTEGER, pos INTEGER, val DOUBLE)");
  MustExecute(db_,
              "INSERT INTO pseq VALUES (1, 1, 10), (1, 2, 20), (1, 3, 30), "
              "(2, 1, 100), (2, 2, 200)");
  MustExecute(db_,
              "CREATE MATERIALIZED VIEW pview AS SELECT grp, pos, SUM(val) "
              "OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 "
              "PRECEDING AND 1 FOLLOWING) FROM pseq");
  const std::string sql =
      "SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS "
      "BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM pseq ORDER BY grp, pos";
  const ResultSet rs = MustExecute(db_, sql);
  EXPECT_EQ(rs.rewrite_method(), "direct");
  EXPECT_TRUE(RowsEqual(rs, Reference(sql)));
}

TEST_F(RewriterEndToEnd, PartitionedWindowMismatchNotRewritten) {
  MustExecute(db_,
              "CREATE TABLE pseq (grp INTEGER, pos INTEGER, val DOUBLE)");
  MustExecute(db_, "INSERT INTO pseq VALUES (1, 1, 10), (1, 2, 20)");
  MustExecute(db_,
              "CREATE MATERIALIZED VIEW pview AS SELECT grp, pos, SUM(val) "
              "OVER (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 "
              "PRECEDING AND 1 FOLLOWING) FROM pseq");
  // Different window: per-partition derivation is not offered via SQL.
  const ResultSet rs = MustExecute(
      db_,
      "SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos ROWS "
      "BETWEEN 2 PRECEDING AND 1 FOLLOWING) FROM pseq ORDER BY grp, pos");
  EXPECT_TRUE(rs.rewrite_method().empty());
}

TEST_F(RewriterEndToEnd, MinMaxCoverThroughSql) {
  MustExecute(db_,
              "CREATE MATERIALIZED VIEW vmax AS SELECT pos, MAX(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) "
              "FROM seq");
  const std::string sql =
      "SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING "
      "AND 3 FOLLOWING) FROM seq ORDER BY pos";
  const ResultSet rs = MustExecute(db_, sql);
  EXPECT_EQ(rs.rewrite_method(), "min-max-cover");
  EXPECT_TRUE(RowsEqual(rs, Reference(sql)));
}

class RewriterExplainTest : public ::testing::Test {
 protected:
  void SetUp() override { CreateSeqTable(db_, 25); }
  Database db_;
};

TEST_F(RewriterExplainTest, ExplainStatementShowsRewrite) {
  MustExecute(db_,
              "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) "
              "FROM seq");
  const ResultSet rs = MustExecute(
      db_,
      "EXPLAIN SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
      "PRECEDING AND 1 FOLLOWING) FROM seq");
  ASSERT_GT(rs.NumRows(), 0u);
  // The cost model arbitrates MaxOA vs. MinOA; the widened window here
  // prices MinOA lower (2 congruence branches vs. 3).
  EXPECT_NE(rs.at(0, 0).AsString().find("MinOA"), std::string::npos);
}

TEST_F(RewriterExplainTest, ExplainWithoutViewsShowsWindowOperator) {
  const ResultSet rs = MustExecute(
      db_,
      "EXPLAIN SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
      "PRECEDING AND 1 FOLLOWING) FROM seq");
  bool saw_window = false;
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    saw_window =
        saw_window ||
        rs.at(i, 0).AsString().find("Window(") != std::string::npos;
  }
  EXPECT_TRUE(saw_window);
}

}  // namespace
}  // namespace rfv
