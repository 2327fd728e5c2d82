#include "view/maintenance.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "view/reduction.h"

namespace rfv {
namespace {

using testutil::MustExecute;
using testutil::RowsEqual;

class ViewMaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(db_, "CREATE TABLE seq (pos INTEGER PRIMARY KEY, val DOUBLE)");
    std::string insert = "INSERT INTO seq VALUES ";
    for (int i = 1; i <= 30; ++i) {
      if (i > 1) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
    }
    MustExecute(db_, insert);
  }

  void CreateView(const std::string& name, const std::string& fn, int l,
                  int h) {
    MustExecute(db_, "CREATE MATERIALIZED VIEW " + name + " AS SELECT pos, " +
                         fn + "(val) OVER (ORDER BY pos ROWS BETWEEN " +
                         std::to_string(l) + " PRECEDING AND " +
                         std::to_string(h) + " FOLLOWING) FROM seq");
  }

  /// The view content must equal a freshly refreshed copy.
  void ExpectViewFresh(const std::string& name) {
    const ResultSet before = MustExecute(
        db_, "SELECT pos, val FROM " + name + " ORDER BY pos");
    ASSERT_TRUE(db_.view_manager()->RefreshView(name).ok());
    const ResultSet after = MustExecute(
        db_, "SELECT pos, val FROM " + name + " ORDER BY pos");
    EXPECT_TRUE(RowsEqual(before, after)) << name;
  }

  Database db_;
};

TEST_F(ViewMaintenanceTest, UpdateTouchesWindowRowsOnly) {
  CreateView("v", "SUM", 2, 1);  // w = 4
  const Result<size_t> touched =
      PropagateBaseUpdate(db_.view_manager(), "seq", 15, 100.0);
  ASSERT_TRUE(touched.ok()) << touched.status().ToString();
  EXPECT_EQ(*touched, 4u);
  // Base table took the update.
  const ResultSet base = MustExecute(db_, "SELECT val FROM seq WHERE pos = 15");
  EXPECT_DOUBLE_EQ(base.at(0, 0).ToDouble(), 100.0);
  ExpectViewFresh("v");
}

TEST_F(ViewMaintenanceTest, UpdateNearBoundaryTouchesHeader) {
  CreateView("v", "SUM", 1, 2);
  const Result<size_t> touched =
      PropagateBaseUpdate(db_.view_manager(), "seq", 1, 50.0);
  ASSERT_TRUE(touched.ok());
  // Affected positions [1-2, 1+1] = [-1, 2], all stored.
  EXPECT_EQ(*touched, 4u);
  ExpectViewFresh("v");
}

TEST_F(ViewMaintenanceTest, UpdateMaintainsCumulativeView) {
  MustExecute(db_,
              "CREATE MATERIALIZED VIEW vcum AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS UNBOUNDED PRECEDING) FROM seq");
  const Result<size_t> touched =
      PropagateBaseUpdate(db_.view_manager(), "seq", 10, 99.0);
  ASSERT_TRUE(touched.ok());
  ExpectViewFresh("vcum");
}

TEST_F(ViewMaintenanceTest, UpdateMaintainsMinMaxViews) {
  CreateView("vmin", "MIN", 2, 2);
  CreateView("vmax", "MAX", 1, 1);
  ASSERT_TRUE(
      PropagateBaseUpdate(db_.view_manager(), "seq", 12, -50.0).ok());
  ExpectViewFresh("vmin");
  ExpectViewFresh("vmax");
  ASSERT_TRUE(
      PropagateBaseUpdate(db_.view_manager(), "seq", 12, 50.0).ok());
  ExpectViewFresh("vmin");
  ExpectViewFresh("vmax");
}

TEST_F(ViewMaintenanceTest, MultipleViewsMaintainedTogether) {
  CreateView("v1", "SUM", 1, 1);
  CreateView("v2", "SUM", 3, 0);
  const Result<size_t> touched =
      PropagateBaseUpdate(db_.view_manager(), "seq", 20, 42.0);
  ASSERT_TRUE(touched.ok());
  EXPECT_EQ(*touched, 3u + 4u);
  ExpectViewFresh("v1");
  ExpectViewFresh("v2");
}

TEST_F(ViewMaintenanceTest, InsertShiftsPositions) {
  CreateView("v", "SUM", 1, 1);
  const Result<size_t> touched =
      PropagateBaseInsert(db_.view_manager(), "seq", 10, 500.0);
  ASSERT_TRUE(touched.ok()) << touched.status().ToString();
  // Base has 31 rows, value 500 now at position 10.
  const ResultSet base = MustExecute(db_, "SELECT val FROM seq WHERE pos = 10");
  EXPECT_DOUBLE_EQ(base.at(0, 0).ToDouble(), 500.0);
  EXPECT_EQ(MustExecute(db_, "SELECT COUNT(*) FROM seq").at(0, 0),
            Value::Int(31));
  ExpectViewFresh("v");
}

TEST_F(ViewMaintenanceTest, DeleteShiftsPositions) {
  CreateView("v", "SUM", 1, 1);
  ASSERT_TRUE(PropagateBaseDelete(db_.view_manager(), "seq", 10).ok());
  EXPECT_EQ(MustExecute(db_, "SELECT COUNT(*) FROM seq").at(0, 0),
            Value::Int(29));
  // Positions stay dense 1..29.
  EXPECT_EQ(MustExecute(db_, "SELECT MAX(pos) FROM seq").at(0, 0),
            Value::Int(29));
  ExpectViewFresh("v");
}

TEST_F(ViewMaintenanceTest, UpdateMissingPositionFails) {
  CreateView("v", "SUM", 1, 1);
  EXPECT_EQ(
      PropagateBaseUpdate(db_.view_manager(), "seq", 99, 1.0).status().code(),
      StatusCode::kNotFound);
}

TEST_F(ViewMaintenanceTest, NoDependentViewsFails) {
  EXPECT_EQ(
      PropagateBaseUpdate(db_.view_manager(), "seq", 1, 1.0).status().code(),
      StatusCode::kNotFound);
}

TEST_F(ViewMaintenanceTest, QueriesAfterMaintenanceAreCorrect) {
  CreateView("v", "SUM", 2, 1);
  ASSERT_TRUE(PropagateBaseUpdate(db_.view_manager(), "seq", 7, 123.0).ok());
  const std::string query =
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
      "AND 1 FOLLOWING) FROM seq ORDER BY pos";
  const ResultSet via_view = MustExecute(db_, query);
  EXPECT_EQ(via_view.rewrite_method(), "direct");
  db_.options().enable_view_rewrite = false;
  const ResultSet direct = MustExecute(db_, query);
  EXPECT_TRUE(RowsEqual(via_view, direct));
}

TEST_F(ViewMaintenanceTest, InsertAndDeleteCountIncrementalOrFullRefresh) {
  CreateView("v_sum", "SUM", 3, 2);
  CreateView("v_min", "MIN", 0, 2);
  MustExecute(db_,
              "CREATE MATERIALIZED VIEW v_cum AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS UNBOUNDED PRECEDING) FROM seq");
  const Result<size_t> inserted =
      PropagateBaseInsert(db_.view_manager(), "seq", 12, 3.0);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  ASSERT_TRUE(PropagateBaseDelete(db_.view_manager(), "seq", 4).ok());
  // Sliding views ran the slice rule twice (after their initial
  // materialization); the cumulative one was refreshed twice.
  const ResultSet rs = MustExecute(
      db_,
      "SELECT view_name, full_refreshes, incremental_updates, n FROM "
      "rfv_system.views ORDER BY view_name");
  ASSERT_EQ(rs.NumRows(), 3u);
  EXPECT_EQ(rs.at(0, 0), Value::String("v_cum"));
  EXPECT_EQ(rs.at(0, 1), Value::Int(3));
  EXPECT_EQ(rs.at(0, 2), Value::Int(0));
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(rs.at(i, 1), Value::Int(1)) << rs.at(i, 0).ToString();
    EXPECT_EQ(rs.at(i, 2), Value::Int(2)) << rs.at(i, 0).ToString();
  }
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(rs.at(i, 3), Value::Int(30));
  ExpectViewFresh("v_sum");
  ExpectViewFresh("v_min");
  ExpectViewFresh("v_cum");
}

/// Contents of `table` ordered by pos, to show that a call changed
/// nothing.
ResultSet Contents(Database& db, const std::string& table) {
  return MustExecute(db, "SELECT * FROM " + table + " ORDER BY pos");
}

TEST(ViewMaintenanceErrorTest, ErrorsLeaveBaseAndViewsUnchanged) {
  Database db;
  MustExecute(db, "CREATE TABLE seq (pos INTEGER PRIMARY KEY, val DOUBLE)");
  MustExecute(db, "INSERT INTO seq VALUES (1, 1), (2, 2), (3, 3), (4, 4), "
                  "(5, 5)");
  MustExecute(db, "CREATE MATERIALIZED VIEW v AS SELECT pos, SUM(val) OVER "
                  "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) "
                  "FROM seq");
  // A base whose value column is INTEGER, one with a third column, and
  // one whose two views aggregate different columns.
  MustExecute(db, "CREATE TABLE ints (pos INTEGER PRIMARY KEY, val INTEGER)");
  MustExecute(db, "INSERT INTO ints VALUES (1, 1), (2, 2), (3, 3)");
  MustExecute(db, "CREATE MATERIALIZED VIEW vi AS SELECT pos, MAX(val) OVER "
                  "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 0 FOLLOWING) "
                  "FROM ints");
  MustExecute(db, "CREATE TABLE wide (pos INTEGER PRIMARY KEY, a DOUBLE, "
                  "b DOUBLE)");
  MustExecute(db, "INSERT INTO wide VALUES (1, 1, 10), (2, 2, 20), "
                  "(3, 3, 30)");
  MustExecute(db, "CREATE MATERIALIZED VIEW va AS SELECT pos, SUM(a) OVER "
                  "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 0 FOLLOWING) "
                  "FROM wide");
  const std::vector<std::string> tables = {"seq", "v", "ints", "vi", "wide",
                                           "va"};
  std::vector<ResultSet> before;
  for (const std::string& t : tables) before.push_back(Contents(db, t));

  ViewManager* views = db.view_manager();
  const std::vector<std::pair<std::string, Result<size_t>>> calls = {
      // Out-of-range inserts (k outside [1, n+1]).
      {"insert@0", PropagateBaseInsert(views, "seq", 0, 7)},
      {"insert@9", PropagateBaseInsert(views, "seq", 9, 7)},
      {"insert@7", PropagateBaseInsert(views, "seq", 7, 7)},
      {"update@0", PropagateBaseUpdate(views, "seq", 0, 7)},
      {"update@6", PropagateBaseUpdate(views, "seq", 6, 7)},
      {"delete@0", PropagateBaseDelete(views, "seq", 0)},
      {"delete@6", PropagateBaseDelete(views, "seq", 6)},
      {"no views", PropagateBaseUpdate(views, "nosuch", 1, 7)},
      // 1.5 does not fit an INTEGER value column.
      {"ints update", PropagateBaseUpdate(views, "ints", 2, 1.5)},
      {"ints insert", PropagateBaseInsert(views, "ints", 2, 1.5)},
      // A positional insert needs values for every base column.
      {"wide insert", PropagateBaseInsert(views, "wide", 2, 7)},
  };
  const std::vector<StatusCode> want = {
      StatusCode::kInvalidArgument, StatusCode::kInvalidArgument,
      StatusCode::kInvalidArgument, StatusCode::kNotFound,
      StatusCode::kNotFound,        StatusCode::kNotFound,
      StatusCode::kNotFound,        StatusCode::kNotFound,
      StatusCode::kInvalidArgument, StatusCode::kInvalidArgument,
      StatusCode::kNotSupported};
  ASSERT_EQ(calls.size(), want.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].second.status().code(), want[i]) << calls[i].first;
  }
  // Two views of one base that disagree on the value column.
  MustExecute(db, "CREATE MATERIALIZED VIEW vb AS SELECT pos, SUM(b) OVER "
                  "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 0 FOLLOWING) "
                  "FROM wide");
  const ResultSet vb = Contents(db, "vb");
  EXPECT_EQ(PropagateBaseUpdate(views, "wide", 2, 7).status().code(),
            StatusCode::kNotSupported);
  EXPECT_TRUE(RowsEqual(Contents(db, "vb"), vb));

  for (size_t i = 0; i < tables.size(); ++i) {
    EXPECT_TRUE(RowsEqual(Contents(db, tables[i]), before[i])) << tables[i];
  }
  // Positions stayed dense, so a full refresh still works.
  EXPECT_TRUE(views->RefreshView("v").ok());
  EXPECT_TRUE(RowsEqual(Contents(db, "v"), before[1]));
}

// A view derived by the §6 ordering reduction is a snapshot of its
// source: base changes maintain the source, never the derived view.
TEST(ViewMaintenanceDerivedTest, DerivedViewsAreSkipped) {
  Database db;
  MustExecute(db, "CREATE TABLE seq (pos INTEGER PRIMARY KEY, val DOUBLE)");
  MustExecute(db, "INSERT INTO seq VALUES (1, 1), (2, 1), (3, 1), (4, 1), "
                  "(5, 1), (6, 1), (7, 1), (8, 1)");
  MustExecute(db, "CREATE MATERIALIZED VIEW cum AS SELECT pos, SUM(val) OVER "
                  "(ORDER BY pos ROWS UNBOUNDED PRECEDING) FROM seq");
  ViewManager* views = db.view_manager();
  ASSERT_TRUE(ReduceViewOrdering(views, "cum", "coarse", 4).ok());
  const ResultSet snapshot = Contents(db, "coarse");
  const auto expect_rows = [&](const ResultSet& rs,
                               const std::vector<std::pair<int, int>>& want) {
    ASSERT_EQ(rs.NumRows(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(rs.at(i, 0), Value::Int(want[i].first));
      EXPECT_DOUBLE_EQ(rs.at(i, 1).ToDouble(), want[i].second);
    }
  };
  expect_rows(snapshot, {{1, 4}, {2, 8}});

  const Result<size_t> updated = PropagateBaseUpdate(views, "seq", 2, 11);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 7u);  // cum positions 2..8 only
  EXPECT_TRUE(RowsEqual(Contents(db, "coarse"), snapshot));
  // Re-deriving from the maintained source gives the true answer.
  ASSERT_TRUE(views->DropView("coarse").ok());
  ASSERT_TRUE(ReduceViewOrdering(views, "cum", "coarse", 4).ok());
  expect_rows(Contents(db, "coarse"), {{1, 14}, {2, 18}});

  const ResultSet rederived = Contents(db, "coarse");
  const Result<size_t> inserted = PropagateBaseInsert(views, "seq", 3, 5);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_TRUE(RowsEqual(Contents(db, "coarse"), rederived));
  const ResultSet cum = Contents(db, "cum");
  ASSERT_TRUE(views->RefreshView("cum").ok());
  EXPECT_TRUE(RowsEqual(Contents(db, "cum"), cum));
  EXPECT_EQ(Contents(db, "seq").NumRows(), 9u);
}

}  // namespace
}  // namespace rfv
