#ifndef RFVIEW_DB_RESULT_SET_H_
#define RFVIEW_DB_RESULT_SET_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/trace.h"
#include "exec/executor.h"

namespace rfv {

/// The outcome of executing one SQL statement: rows + schema for
/// SELECTs, an affected-row count for DML/DDL, plus rewrite provenance
/// when the view rewriter answered the query from a materialized view.
class ResultSet {
 public:
  ResultSet() = default;
  ResultSet(Schema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)), is_query_(true) {}

  static ResultSet ForDml(int64_t affected) {
    ResultSet rs;
    rs.affected_ = affected;
    return rs;
  }

  bool is_query() const { return is_query_; }
  const Schema& schema() const { return schema_; }
  const std::vector<Row>& rows() const { return rows_; }
  size_t NumRows() const { return rows_.size(); }
  int64_t affected() const { return affected_; }

  const Value& at(size_t row, size_t column) const {
    return rows_[row][column];
  }

  /// Renames the output columns, keeping their types; `names` must
  /// have one entry per column.
  void RenameColumns(const std::vector<std::string>& names);

  /// Column index by (unqualified) name; -1 when absent.
  int ColumnIndex(const std::string& name) const;

  /// Rewrite provenance (empty when the query ran against base data).
  const std::string& rewrite_method() const { return rewrite_method_; }
  const std::string& rewrite_view() const { return rewrite_view_; }
  const std::string& rewritten_sql() const { return rewritten_sql_; }
  void SetRewriteInfo(std::string method, std::string view, std::string sql) {
    rewrite_method_ = std::move(method);
    rewrite_view_ = std::move(view);
    rewritten_sql_ = std::move(sql);
  }

  /// Per-operator execution metrics of the physical plan that produced
  /// this result (empty for DML/DDL and results built without a plan).
  /// Entries are in pre-order; entry 0 is the plan root.
  const std::vector<OperatorMetricsEntry>& metrics() const {
    return metrics_;
  }
  void SetMetrics(std::vector<OperatorMetricsEntry> metrics) {
    metrics_ = std::move(metrics);
  }

  /// Indented one-line-per-operator rendering of metrics() (empty
  /// string when no metrics were recorded).
  std::string MetricsToString() const { return FormatMetricsReport(metrics_); }

  /// Per-instance plan tree with metrics annotations (EXPLAIN ANALYZE
  /// view; repeated operators such as both scans of a self-join keep
  /// their own rows).
  std::string MetricsTreeToString() const {
    return FormatMetricsTree(metrics_);
  }

  /// Wall time of each query phase (parse, bind, plan, rewrite,
  /// execute), in execution order. Empty when the statement bypassed a
  /// phase (DML has no plan/rewrite) or predates instrumentation.
  const std::vector<std::pair<std::string, int64_t>>& phase_ns() const {
    return phase_ns_;
  }
  void SetPhaseNs(std::vector<std::pair<std::string, int64_t>> phases) {
    phase_ns_ = std::move(phases);
  }
  /// Records a phase that ran before every phase already recorded.
  void PrependPhaseNs(std::string phase, int64_t ns) {
    phase_ns_.emplace(phase_ns_.begin(), std::move(phase), ns);
  }
  /// One-line `phases: parse=0.1ms bind=...` summary (empty when none).
  std::string PhasesToString() const;

  /// The query-lifecycle trace recorded while producing this result
  /// (null unless Database::Options::enable_tracing was set).
  const std::shared_ptr<const QueryTrace>& trace() const { return trace_; }
  void SetTrace(std::shared_ptr<const QueryTrace> trace) {
    trace_ = std::move(trace);
  }
  /// Chrome trace-event JSON of trace() ("" when not traced).
  std::string TraceJson() const {
    return trace_ == nullptr ? "" : trace_->ToChromeJson();
  }

  /// ASCII table rendering (examples / debugging).
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Row> rows_;
  bool is_query_ = false;
  int64_t affected_ = -1;
  std::string rewrite_method_;
  std::string rewrite_view_;
  std::string rewritten_sql_;
  std::vector<OperatorMetricsEntry> metrics_;
  std::vector<std::pair<std::string, int64_t>> phase_ns_;
  std::shared_ptr<const QueryTrace> trace_;
};

}  // namespace rfv

#endif  // RFVIEW_DB_RESULT_SET_H_
