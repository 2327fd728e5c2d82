// Incremental maintenance of a materialized sequence view (paper §2.3):
// update / insert / delete against the base table rewrite only the
// w = l+h+1 view rows whose window holds the changed position, instead
// of recomputing the whole view.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "db/database.h"
#include "view/maintenance.h"

namespace {

void Must(const rfv::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  constexpr int64_t kN = 100000;
  rfv::Database db;
  rfv::Result<rfv::Table*> seq = db.catalog()->CreateTable(
      "seq", rfv::Schema({rfv::ColumnDef("pos", rfv::DataType::kInt64),
                          rfv::ColumnDef("val", rfv::DataType::kDouble)}));
  Must(seq.status(), "CREATE TABLE");
  std::vector<rfv::Row> rows;
  for (int64_t i = 1; i <= kN; ++i) {
    rows.push_back(rfv::Row({rfv::Value::Int(i),
                             rfv::Value::Double((i * 13 + 7) % 97)}));
  }
  Must((*seq)->InsertBatch(std::move(rows)), "INSERT");
  Must((*seq)->CreateIndex("seq_pk", "pos"), "CREATE INDEX");
  Must(db.Execute("CREATE MATERIALIZED VIEW v32 AS SELECT pos, SUM(val) "
                  "OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 "
                  "FOLLOWING) FROM seq")
           .status(),
       "CREATE VIEW");
  rfv::ViewManager* views = db.view_manager();

  auto start = std::chrono::steady_clock::now();
  rfv::Result<size_t> written =
      rfv::PropagateBaseUpdate(views, "seq", kN / 2, 1234.0);
  const double update_us = MicrosSince(start);
  Must(written.status(), "PropagateBaseUpdate");
  std::printf("update @%lld: %zu view rows rewritten (w = l+h+1 = 6), "
              "%.1f us\n",
              static_cast<long long>(kN / 2), *written, update_us);

  written = rfv::PropagateBaseInsert(views, "seq", 17, 55.0);
  Must(written.status(), "PropagateBaseInsert");
  std::printf("insert @17: %zu view rows written or added\n", *written);
  written = rfv::PropagateBaseDelete(views, "seq", 99);
  Must(written.status(), "PropagateBaseDelete");
  std::printf("delete @99: %zu view rows written or removed\n", *written);

  // The incrementally maintained content equals a full recompute.
  const std::string content = "SELECT pos, val FROM v32 ORDER BY pos";
  rfv::Result<rfv::ResultSet> incremental = db.Execute(content);
  Must(incremental.status(), "read view");
  start = std::chrono::steady_clock::now();
  Must(views->RefreshView("v32"), "RefreshView");
  std::printf("full view refresh for comparison: %.1f us\n",
              MicrosSince(start));
  rfv::Result<rfv::ResultSet> refreshed = db.Execute(content);
  Must(refreshed.status(), "read refreshed view");
  bool same = incremental->NumRows() == refreshed->NumRows();
  for (size_t i = 0; same && i < incremental->NumRows(); ++i) {
    same = incremental->at(i, 0) == refreshed->at(i, 0) &&
           incremental->at(i, 1) == refreshed->at(i, 1);
  }
  std::printf("incremental equals recompute: %s\n\n", same ? "yes" : "NO");

  // The view answers queries with the new values.
  const std::string query =
      "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
      "AND 2 FOLLOWING) AS v FROM seq ORDER BY pos";
  rfv::Result<rfv::ResultSet> rs = db.Execute(query);
  Must(rs.status(), "query after maintenance");
  db.options().enable_view_rewrite = false;
  rfv::Result<rfv::ResultSet> direct = db.Execute(query);
  Must(direct.status(), "direct query");
  same = rs->NumRows() == direct->NumRows();
  for (size_t i = 0; same && i < rs->NumRows(); ++i) {
    same = rs->at(i, 1) == direct->at(i, 1);
  }
  std::printf("maintained view answers (%s) match direct evaluation: %s\n",
              rs->rewrite_method().c_str(), same ? "yes" : "NO");
  return same ? 0 : 1;
}
