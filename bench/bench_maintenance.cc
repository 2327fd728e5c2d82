// Ablation A2 — the paper's §2.3 claim: incremental maintenance of a
// materialized sequence touches only the w positions whose window
// overlaps the change, so it beats a full recomputation by n/w.
//
// Measured at the storage level, on the path the engine runs: a base
// change propagated by PropagateBase* into one (3,2) view's content
// table (index-read slices, w row writes), per aggregate, against a
// full RefreshView of the same view. Arguments: aggregate (0 = SUM,
// 1 = MIN, 2 = MAX), then n.

#include <benchmark/benchmark.h>

#include "json_reporter.h"

#include <vector>

#include "db/database.h"
#include "view/maintenance.h"

namespace rfv {
namespace {

constexpr SeqAggFn kFns[] = {SeqAggFn::kSum, SeqAggFn::kMin, SeqAggFn::kMax};

/// seq(pos, val) with n rows and a pos index, plus the view v over it.
void SetupViewDb(Database* db, int64_t n, SeqAggFn fn) {
  Result<Table*> table = db->catalog()->CreateTable(
      "seq", Schema({ColumnDef("pos", DataType::kInt64),
                     ColumnDef("val", DataType::kDouble)}));
  std::vector<Row> rows;
  for (int64_t i = 1; i <= n; ++i) {
    rows.push_back(Row({Value::Int(i), Value::Double(i % 97)}));
  }
  (void)(*table)->InsertBatch(std::move(rows));
  (void)(*table)->CreateIndex("seq_pk", "pos");
  SequenceViewDef def;
  def.view_name = "v";
  def.base_table = "seq";
  def.value_column = "val";
  def.order_column = "pos";
  def.fn = fn;
  def.window = WindowSpec::SlidingUnchecked(3, 2);
  (void)db->view_manager()->CreateSequenceView(def);
}

void BM_Maintenance_ViewUpdate(benchmark::State& state) {
  const int64_t n = state.range(1);
  Database db;
  SetupViewDb(&db, n, kFns[state.range(0)]);
  int64_t k = 1;
  for (auto _ : state) {
    k = (k + 7919) % n + 1;  // a prime stride visits every position
    benchmark::DoNotOptimize(PropagateBaseUpdate(
        db.view_manager(), "seq", k, static_cast<double>(k % 89)));
  }
  state.counters["n"] = static_cast<double>(n);
}

/// One positional insert and one delete at n/2 per iteration (n stays
/// put): both shift the positions past the slice in the base and the
/// view table.
void BM_Maintenance_ViewInsertDelete(benchmark::State& state) {
  const int64_t n = state.range(1);
  Database db;
  SetupViewDb(&db, n, kFns[state.range(0)]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PropagateBaseInsert(db.view_manager(), "seq", n / 2, 42.0));
    benchmark::DoNotOptimize(
        PropagateBaseDelete(db.view_manager(), "seq", n / 2));
  }
  state.counters["n"] = static_cast<double>(n);
}

void BM_Maintenance_ViewFullRefresh(benchmark::State& state) {
  const int64_t n = state.range(1);
  Database db;
  SetupViewDb(&db, n, kFns[state.range(0)]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.view_manager()->RefreshView("v"));
  }
  state.counters["n"] = static_cast<double>(n);
}

void Shapes(benchmark::internal::Benchmark* b) {
  b->ArgsProduct({{0, 1, 2}, {1000, 10000, 40000}});
}

BENCHMARK(BM_Maintenance_ViewUpdate)->Apply(Shapes);
BENCHMARK(BM_Maintenance_ViewInsertDelete)->Apply(Shapes);
BENCHMARK(BM_Maintenance_ViewFullRefresh)->Apply(Shapes);

}  // namespace
}  // namespace rfv

BENCH_MAIN_WITH_JSON()
