#include "view/reduction.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace rfv {
namespace {

using testutil::MustExecute;

class ReductionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Base: (grp, month) partitioned positions, dense 1..n per group.
    MustExecute(db_,
                "CREATE TABLE pseq (grp INTEGER, mon INTEGER, pos INTEGER, "
                "val DOUBLE)");
    std::string insert = "INSERT INTO pseq VALUES ";
    bool first = true;
    for (int grp = 1; grp <= 2; ++grp) {
      for (int mon = 1; mon <= 3; ++mon) {
        for (int pos = 1; pos <= 4; ++pos) {
          if (!first) insert += ", ";
          first = false;
          const int val = grp * 100 + mon * 10 + pos;
          insert += "(" + std::to_string(grp) + ", " + std::to_string(mon) +
                    ", " + std::to_string(pos) + ", " + std::to_string(val) +
                    ")";
        }
      }
    }
    MustExecute(db_, insert);
  }

  /// Creates a partitioned sliding view over (grp, mon).
  const SequenceViewDef* CreatePartitionedView() {
    SequenceViewDef def;
    def.view_name = "monthly";
    def.base_table = "pseq";
    def.value_column = "val";
    def.order_column = "pos";
    def.partition_columns = {"grp", "mon"};
    def.fn = SeqAggFn::kSum;
    def.window = WindowSpec::SlidingUnchecked(1, 1);
    Result<const SequenceViewDef*> r =
        db_.view_manager()->CreateSequenceView(def);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }

  Database db_;
};

TEST_F(ReductionTest, PartitioningReductionMergesMonths) {
  ASSERT_NE(CreatePartitionedView(), nullptr);
  const Result<const SequenceViewDef*> reduced = ReduceViewPartitioning(
      db_.view_manager(), "monthly", "per_group", /*drop=*/1);
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  EXPECT_EQ((*reduced)->partition_columns,
            std::vector<std::string>({"grp"}));
  EXPECT_TRUE((*reduced)->derived);
  EXPECT_EQ((*reduced)->n, 12);  // 3 months × 4 positions concatenated

  // The merged sequence must equal a window over each group's raw data
  // concatenated in (mon, pos) order. Check a month-boundary value:
  // group 1, merged position 4 (mon=1,pos=4) windows {mon1pos3, mon1pos4,
  // mon2pos1} = 113 + 114 + 121.
  const ResultSet v = MustExecute(
      db_, "SELECT val FROM per_group WHERE grp = 1 AND pos = 4");
  ASSERT_EQ(v.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(v.at(0, 0).ToDouble(), 113 + 114 + 121);
}

TEST_F(ReductionTest, PartitioningReductionDropAll) {
  ASSERT_NE(CreatePartitionedView(), nullptr);
  const Result<const SequenceViewDef*> reduced = ReduceViewPartitioning(
      db_.view_manager(), "monthly", "total", /*drop=*/2);
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  EXPECT_TRUE((*reduced)->partition_columns.empty());
  EXPECT_EQ((*reduced)->n, 24);
  // Complete: header position 0 and trailer position 25 present.
  const ResultSet rows = MustExecute(db_, "SELECT COUNT(*) FROM total");
  EXPECT_EQ(rows.at(0, 0), Value::Int(26));
}

TEST_F(ReductionTest, DerivedViewExcludedFromRewriting) {
  ASSERT_NE(CreatePartitionedView(), nullptr);
  ASSERT_TRUE(ReduceViewPartitioning(db_.view_manager(), "monthly", "total",
                                     2)
                  .ok());
  // A window query over pseq must NOT be answered from "total": its
  // positions live in the concatenated ordering, not in pseq's pos.
  EXPECT_TRUE(db_.view_manager()
                  ->FindCandidates("pseq", "val", "pos", SeqAggFn::kSum)
                  .empty());
}

TEST_F(ReductionTest, DerivedViewCannotRefresh) {
  ASSERT_NE(CreatePartitionedView(), nullptr);
  ASSERT_TRUE(ReduceViewPartitioning(db_.view_manager(), "monthly",
                                     "per_group", 1)
                  .ok());
  EXPECT_EQ(db_.view_manager()->RefreshView("per_group").code(),
            StatusCode::kNotSupported);
}

TEST_F(ReductionTest, ErrorsReported) {
  ASSERT_NE(CreatePartitionedView(), nullptr);
  EXPECT_EQ(ReduceViewPartitioning(db_.view_manager(), "nope", "t", 1)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ReduceViewPartitioning(db_.view_manager(), "monthly", "t", 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReduceViewPartitioning(db_.view_manager(), "monthly", "t", 3)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReduceViewPartitioning(db_.view_manager(), "monthly", "monthly",
                                   1)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ReductionTest, UnpartitionedViewRejected) {
  testutil::CreateSeqTable(db_, 10);
  MustExecute(db_,
              "CREATE MATERIALIZED VIEW simple AS SELECT pos, SUM(val) "
              "OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 "
              "FOLLOWING) FROM seq");
  EXPECT_EQ(ReduceViewPartitioning(db_.view_manager(), "simple", "t", 1)
                .status()
                .code(),
            StatusCode::kNotDerivable);
}

class OrderingReductionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 12 fine positions = 3 blocks of 4 (e.g. months of 4-day weeks).
    testutil::CreateSeqTable(db_, 12);
    MustExecute(db_,
                "CREATE MATERIALIZED VIEW fine AS SELECT pos, SUM(val) "
                "OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) FROM seq");
  }
  Database db_;
};

TEST_F(OrderingReductionTest, CoarseCumulativeMatchesLemma) {
  const Result<const SequenceViewDef*> coarse =
      ReduceViewOrdering(db_.view_manager(), "fine", "coarse", /*block=*/4);
  ASSERT_TRUE(coarse.ok()) << coarse.status().ToString();
  EXPECT_EQ((*coarse)->n, 3);
  EXPECT_TRUE((*coarse)->derived);
  // Coarse cumulative at block b = fine cumulative at position 4b.
  const ResultSet fine = MustExecute(
      db_, "SELECT val FROM fine WHERE pos IN (4, 8, 12) ORDER BY pos");
  const ResultSet reduced =
      MustExecute(db_, "SELECT val FROM coarse ORDER BY pos");
  ASSERT_EQ(reduced.NumRows(), 3u);
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_DOUBLE_EQ(reduced.at(b, 0).ToDouble(), fine.at(b, 0).ToDouble());
  }
}

TEST_F(OrderingReductionTest, IndivisibleBlockRejected) {
  EXPECT_EQ(
      ReduceViewOrdering(db_.view_manager(), "fine", "c", 5).status().code(),
      StatusCode::kNotDerivable);
}

TEST_F(OrderingReductionTest, NonCumulativeRejected) {
  MustExecute(db_,
              "CREATE MATERIALIZED VIEW sliding AS SELECT pos, SUM(val) "
              "OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 "
              "FOLLOWING) FROM seq");
  EXPECT_EQ(ReduceViewOrdering(db_.view_manager(), "sliding", "c", 4)
                .status()
                .code(),
            StatusCode::kNotDerivable);
}

TEST_F(OrderingReductionTest, BlockTooSmallRejected) {
  EXPECT_EQ(
      ReduceViewOrdering(db_.view_manager(), "fine", "c", 1).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(EmptyOrderingReductionTest, EmptyViewRejected) {
  Database db;
  MustExecute(db, "CREATE TABLE e (pos INTEGER, val DOUBLE)");
  MustExecute(db,
              "CREATE MATERIALIZED VIEW ecum AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS UNBOUNDED PRECEDING) FROM e");
  EXPECT_EQ(
      ReduceViewOrdering(db.view_manager(), "ecum", "c", 2).status().code(),
      StatusCode::kNotDerivable);
}

}  // namespace
}  // namespace rfv
