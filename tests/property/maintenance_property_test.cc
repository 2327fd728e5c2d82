// Randomized end-to-end maintenance property: a stream of base-table
// updates/inserts/deletes propagated through view maintenance must keep
// every materialized sequence view equivalent to a fresh computation —
// verified by answering queries once via the (maintained) views and once
// with rewriting disabled.

#include <gtest/gtest.h>

#include <random>

#include "test_util.h"
#include "view/maintenance.h"

namespace rfv {
namespace {

using testutil::MustExecute;
using testutil::RowsEqual;

class MaintenancePropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(MaintenancePropertyTest, ViewsStayFreshUnderRandomDml) {
  Database db;
  MustExecute(db, "CREATE TABLE seq (pos INTEGER PRIMARY KEY, val DOUBLE)");
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> value(-50, 50);
  int n = 40;
  {
    std::string insert = "INSERT INTO seq VALUES ";
    for (int i = 1; i <= n; ++i) {
      if (i > 1) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(value(rng)) +
                ")";
    }
    MustExecute(db, insert);
  }
  MustExecute(db,
              "CREATE MATERIALIZED VIEW v_sum AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) "
              "FROM seq");
  MustExecute(db,
              "CREATE MATERIALIZED VIEW v_cum AS SELECT pos, SUM(val) OVER "
              "(ORDER BY pos ROWS UNBOUNDED PRECEDING) FROM seq");
  MustExecute(db,
              "CREATE MATERIALIZED VIEW v_min AS SELECT pos, MIN(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) "
              "FROM seq");
  MustExecute(db,
              "CREATE MATERIALIZED VIEW v_max AS SELECT pos, MAX(val) OVER "
              "(ORDER BY pos ROWS BETWEEN 0 PRECEDING AND 2 FOLLOWING) "
              "FROM seq");

  const auto verify = [&](const std::string& frame_fn,
                          const std::string& frame) {
    const std::string sql = "SELECT pos, " + frame_fn +
                            "(val) OVER (ORDER BY pos " + frame +
                            ") FROM seq ORDER BY pos";
    const ResultSet via_views = MustExecute(db, sql);
    db.options().enable_view_rewrite = false;
    const ResultSet direct = MustExecute(db, sql);
    db.options().enable_view_rewrite = true;
    EXPECT_TRUE(RowsEqual(via_views, direct))
        << sql << "\n  rewrite=" << via_views.rewrite_method();
    return via_views.rewrite_method();
  };

  for (int step = 0; step < 30; ++step) {
    const int op = static_cast<int>(rng() % 3);
    if (op == 0 || n <= 5) {
      const int64_t k = 1 + static_cast<int64_t>(rng() % n);
      ASSERT_TRUE(
          PropagateBaseUpdate(db.view_manager(), "seq", k, value(rng)).ok())
          << "step " << step;
    } else if (op == 1) {
      const int64_t k = 1 + static_cast<int64_t>(rng() % (n + 1));
      ASSERT_TRUE(
          PropagateBaseInsert(db.view_manager(), "seq", k, value(rng)).ok())
          << "step " << step;
      ++n;
    } else {
      const int64_t k = 1 + static_cast<int64_t>(rng() % n);
      ASSERT_TRUE(PropagateBaseDelete(db.view_manager(), "seq", k).ok())
          << "step " << step;
      --n;
    }
    // Direct hits on all four views plus a MaxOA/MinOA-derived window.
    EXPECT_EQ(verify("SUM", "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING"),
              "direct");
    EXPECT_EQ(verify("SUM", "ROWS UNBOUNDED PRECEDING"), "direct");
    EXPECT_EQ(verify("MIN", "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING"),
              "direct");
    EXPECT_EQ(verify("MAX", "ROWS BETWEEN 0 PRECEDING AND 2 FOLLOWING"),
              "direct");
    verify("SUM", "ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaintenancePropertyTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace rfv
