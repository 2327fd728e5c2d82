#include "replay.h"

#include <algorithm>
#include <utility>

#include "parser/parser.h"
#include "plan/binder.h"
#include "plan/cardinality.h"
#include "plan/planner.h"
#include "rewrite/rewriter.h"

namespace rfbench {

namespace {

void CollectScannedTables(const rfv::LogicalPlan& plan,
                          std::vector<const rfv::Table*>* out) {
  if (plan.kind == rfv::PlanKind::kScan && plan.table != nullptr &&
      std::find(out->begin(), out->end(), plan.table) == out->end()) {
    out->push_back(plan.table);
  }
  for (const auto& child : plan.children) CollectScannedTables(*child, out);
}

}  // namespace

rfv::Result<std::vector<rfv::Row>> ReplaySelect(
    rfv::Database* db, const rfv::Database::Options& options,
    const std::string& sql, int64_t op_id, SpanLog* log,
    LayerCounters* counters) {
  rfv::Statement stmt;
  {
    ScopedSpan span(log, "parser.parse", op_id);
    RFV_ASSIGN_OR_RETURN(stmt, rfv::Parser::ParseStatement(sql));
  }
  if (stmt.kind != rfv::Statement::Kind::kSelect) {
    return rfv::Status::InvalidArgument("replay expects a SELECT");
  }
  const rfv::SelectStmt* select = stmt.select.get();
  rfv::Statement rewritten;
  if (options.enable_view_rewrite) {
    rfv::RewriteOptions rewrite_options;
    rewrite_options.variant = options.rewrite_variant;
    rewrite_options.force_method = options.force_method;
    rewrite_options.use_cost_model = options.use_cost_model;
    rewrite_options.vector_exec = options.exec.use_vectorized_execution;
    rfv::RewriteDecision decision;
    std::optional<rfv::RewriteResult> rewrite;
    {
      ScopedSpan span(log, "rewrite.try", op_id);
      RFV_ASSIGN_OR_RETURN(rewrite, db->rewriter().TryRewrite(
                                        *select, rewrite_options, &decision));
    }
    ++counters->rewrite_tried;
    counters->verdicts += static_cast<int64_t>(decision.verdicts.size());
    if (rewrite.has_value()) {
      ++counters->rewrite_taken;
      counters->rewrite_sql_bytes += static_cast<int64_t>(rewrite->sql.size());
      ScopedSpan span(log, "parser.reparse", op_id);
      RFV_ASSIGN_OR_RETURN(rewritten, rfv::Parser::ParseStatement(rewrite->sql));
      select = rewritten.select.get();
    }
  }
  rfv::LogicalPlanPtr plan;
  {
    ScopedSpan span(log, "plan.bind", op_id);
    rfv::Binder binder(db->catalog());
    RFV_ASSIGN_OR_RETURN(plan, binder.BindSelect(*select));
  }
  std::vector<rfv::TableSnapshotPtr> pinned;
  {
    ScopedSpan span(log, "storage.pin", op_id);
    std::vector<const rfv::Table*> tables;
    CollectScannedTables(*plan, &tables);
    for (const rfv::Table* table : tables) {
      pinned.push_back(table->PinSnapshot());
    }
  }
  {
    ScopedSpan span(log, "plan.optimize", op_id);
    plan = rfv::OptimizePlan(std::move(plan));
    rfv::EstimateCardinality(plan.get());
  }
  rfv::PhysicalOperatorPtr root;
  {
    ScopedSpan span(log, "exec.build", op_id);
    RFV_ASSIGN_OR_RETURN(root, rfv::BuildPhysicalPlan(*plan, options.exec));
  }
  std::vector<rfv::Row> rows;
  {
    ScopedSpan span(log, "exec.run", op_id);
    RFV_ASSIGN_OR_RETURN(rows, rfv::ExecuteToVector(
                                   root.get(), options.exec.use_batch_execution));
  }

  const std::vector<rfv::OperatorMetricsEntry> entries =
      rfv::CollectMetrics(*root);
  const std::vector<int64_t> self = ExclusiveNs(entries);
  ++counters->reads;
  for (size_t i = 0; i < entries.size(); ++i) {
    const rfv::OperatorMetricsEntry& e = entries[i];
    counters->self_ns[e.name] += self[i];
    counters->rows_in += e.rows_in;
    counters->next_calls += e.metrics.next_calls;
    counters->vectors += e.metrics.vectors_out;
    counters->batches += e.metrics.batches_out;
    counters->peak_buffered_rows =
        std::max(counters->peak_buffered_rows, e.metrics.peak_buffered_rows);
    if (e.est_rows >= 0) {
      counters->qerrors.push_back(
          QError(e.est_rows, static_cast<double>(e.metrics.rows_out)));
    }
  }
  if (!entries.empty()) counters->root_rows_out += entries[0].metrics.rows_out;
  return rows;
}

}  // namespace rfbench
