#include "view/maintenance.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "common/metrics_registry.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "sequence/maintain.h"

namespace rfv {

namespace {

/// Counts view-table rows written while propagating one base change.
void CountMaintenanceRows(const char* op, size_t rows) {
  Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_view_maintenance_rows_total", {{"op", op}},
      "Materialized-view rows written by incremental maintenance");
  c->Increment(static_cast<int64_t>(rows));
}

constexpr size_t kNoRow = static_cast<size_t>(-1);

/// The rows of a positional table on [first, first + values.size() - 1]:
/// the value at each position (0 when absent or NULL, the paper's
/// padding) and the row holding it (kNoRow when absent).
struct Slice {
  int64_t first = 0;
  std::vector<SeqValue> values;
  std::vector<size_t> rows;
};

/// Reads [first, last] through the table's index on `pos_col`, or in one
/// scan when it has none.
Slice ReadSlice(Table* table, size_t pos_col, size_t val_col, int64_t first,
                int64_t last) {
  Slice slice;
  slice.first = first;
  const auto size = static_cast<size_t>(std::max<int64_t>(last - first + 1, 0));
  slice.values.assign(size, 0);
  slice.rows.assign(size, kNoRow);
  if (size == 0) return slice;
  const auto take = [&](size_t r) {
    const Row& row = table->row(r);
    const Value& p = row[pos_col];
    if (p.is_null() || p.type() != DataType::kInt64 || p.AsInt() < first ||
        p.AsInt() > last) {
      return;
    }
    const auto i = static_cast<size_t>(p.AsInt() - first);
    slice.rows[i] = r;
    slice.values[i] = row[val_col].is_null() ? 0 : row[val_col].ToDouble();
  };
  if (OrderedIndex* index = table->GetIndexOnColumn(pos_col)) {
    for (size_t r : index->LookupRange(Value::Int(first), true,
                                       Value::Int(last), true)) {
      take(r);
    }
  } else {
    for (size_t r = 0; r < table->NumRows(); ++r) take(r);
  }
  return slice;
}

/// Renumbers a positional table for an insert at `p` (delta = +1: rows
/// at positions >= p move up, freeing p) or a delete of `p` (delta = -1:
/// the row at p goes, rows above it move down). One pass; shared by the
/// base and the view tables.
Status ShiftPositions(Table* table, size_t pos_col, int64_t p,
                      int64_t delta) {
  size_t removed = kNoRow;
  for (size_t r = 0; r < table->NumRows(); ++r) {
    const Value& v = table->row(r)[pos_col];
    if (v.is_null() || v.AsInt() < p) continue;
    if (delta < 0 && v.AsInt() == p) {
      removed = r;
    } else {
      RFV_RETURN_IF_ERROR(
          table->UpdateCell(r, pos_col, Value::Int(v.AsInt() + delta)));
    }
  }
  return removed == kNoRow ? Status::OK() : table->DeleteRow(removed);
}

/// Writes `values` to the view positions from `first` on: in place
/// where `rows` names a row, as a new row elsewhere.
Status WriteSlice(const SequenceViewDef& def, Table* content,
                  const std::vector<size_t>& rows, int64_t first,
                  const std::vector<SeqValue>& values) {
  for (size_t i = 0; i < values.size(); ++i) {
    RFV_RETURN_IF_ERROR(
        rows[i] != kNoRow
            ? content->UpdateCell(rows[i], def.val_column(),
                                  Value::Double(values[i]))
            : content->Insert(ContentRow(
                  {}, first + static_cast<int64_t>(i), values[i])));
  }
  return Status::OK();
}

/// Runs the slice rule on one view: reads x̃ on the affected range,
/// moves the rows past it for an insert/delete and writes x̃' back.
/// Returns the rows written, added or removed.
Result<size_t> MaintainView(const SequenceViewDef& def, Table* content,
                            const SliceChange& change, const RawSlice& raw) {
  const SeqRange range = AffectedRange(def.window, change, raw.n);
  Slice old = ReadSlice(content, def.pos_column(), def.val_column(),
                        range.first, range.last);
  const std::vector<SeqValue> fresh =
      MaintainSlice(def.window, def.fn, change, raw, old.values);
  if (change.kind == SeqChange::kInsert) {
    // Rows from range.last on move up; the one at range.last leaves the
    // slice, whose last position gets a new row.
    RFV_RETURN_IF_ERROR(
        ShiftPositions(content, def.pos_column(), range.last, +1));
    old.rows.back() = kNoRow;
  }
  RFV_RETURN_IF_ERROR(WriteSlice(def, content, old.rows, range.first, fresh));
  if (change.kind != SeqChange::kDelete) return fresh.size();
  // The row just past the slice goes; the rows above it move down.
  RFV_RETURN_IF_ERROR(
      ShiftPositions(content, def.pos_column(), range.last + 1, -1));
  return fresh.size() + 1;
}

/// A base table and its dependent views, bound before any write.
struct Target {
  Table* base = nullptr;
  size_t order_col = 0;
  size_t value_col = 0;
  std::vector<std::pair<SequenceViewDef*, Table*>> views;
};

/// Binds the non-partitioned views over `base_table`. Views derived by
/// the §6 reductions are snapshots of their source and are skipped.
Result<Target> BindTarget(ViewManager* views, const std::string& base_table) {
  Target target;
  Catalog* catalog = views->catalog();
  for (const auto& def : views->views()) {
    if (!EqualsIgnoreCase(def->base_table, base_table) ||
        !def->partition_columns.empty() || def->derived) {
      continue;
    }
    if (target.views.empty()) {
      RFV_ASSIGN_OR_RETURN(target.base, catalog->GetTable(def->base_table));
      const Schema& schema = target.base->schema();
      RFV_ASSIGN_OR_RETURN(target.order_col,
                           schema.FindColumn("", def->order_column));
      RFV_ASSIGN_OR_RETURN(target.value_col,
                           schema.FindColumn("", def->value_column));
    } else if (!EqualsIgnoreCase(def->order_column,
                                 target.views[0].first->order_column) ||
               !EqualsIgnoreCase(def->value_column,
                                 target.views[0].first->value_column)) {
      return Status::NotSupported("dependent views of " + base_table +
                                  " disagree on the order or value column");
    }
    Table* content = nullptr;
    RFV_ASSIGN_OR_RETURN(content, catalog->GetTable(def->view_name));
    target.views.emplace_back(def.get(), content);
  }
  if (target.views.empty()) {
    return Status::NotFound(
        "no dependent sequence views for table " + base_table +
        " (update the base table directly via SQL)");
  }
  return target;
}

/// Rejects a value the base value column would refuse, so the base
/// write cannot fail after the checks.
Status CheckStorable(const ColumnDef& column, double value) {
  const bool fits_int64 =
      std::trunc(value) == value && std::fabs(value) < 9.2e18;
  if (column.type == DataType::kDouble ||
      (column.type == DataType::kInt64 && fits_int64)) {
    return Status::OK();
  }
  return Status::InvalidArgument("value " + std::to_string(value) +
                                 " does not fit column " + column.name);
}

Result<size_t> Propagate(ViewManager* views, const std::string& base_table,
                         const SliceChange& change) {
  static constexpr const char* kSpans[] = {
      "view.maintain.update", "view.maintain.insert", "view.maintain.delete"};
  static constexpr const char* kOps[] = {"update", "insert", "delete"};
  const auto op = static_cast<size_t>(change.kind);
  TraceSpan span(kSpans[op]);
  if (span.active()) span.AddArg("base", base_table);

  // Check every argument and every dependent view before the first write.
  Target target;
  RFV_ASSIGN_OR_RETURN(target, BindTarget(views, base_table));
  Table* base = target.base;
  const int64_t n = static_cast<int64_t>(base->NumRows());
  const int64_t k = change.k;
  const bool insert = change.kind == SeqChange::kInsert;
  const Status no_row =
      Status::NotFound("no base row at position " + std::to_string(k));
  if (k < 1 || k > (insert ? n + 1 : n)) {
    return insert ? Status::InvalidArgument(
                        "insert position " + std::to_string(k) +
                        " outside [1, " + std::to_string(n + 1) + "]")
                  : no_row;
  }
  if (insert && base->schema().NumColumns() != 2) {
    return Status::NotSupported(
        "positional insert requires a two-column (pos, val) base table");
  }
  if (change.kind != SeqChange::kDelete) {
    RFV_RETURN_IF_ERROR(CheckStorable(
        base->schema().column(target.value_col), change.value));
  }
  int64_t reach = 0;
  for (const auto& view : target.views) {
    reach = std::max(reach, RawReach(view.first->window));
  }
  Slice raw_rows = ReadSlice(base, target.order_col, target.value_col,
                             std::max<int64_t>(k - reach, 1),
                             std::min(k + reach, n));
  const size_t base_row =
      insert ? kNoRow : raw_rows.rows[static_cast<size_t>(k - raw_rows.first)];
  if (!insert && base_row == kNoRow) return no_row;
  const RawSlice raw{n, raw_rows.first, std::move(raw_rows.values)};

  std::deque<Table::WriteGuard> guards;
  guards.emplace_back(base);
  for (const auto& view : target.views) guards.emplace_back(view.second);
  const int64_t new_n = n + (insert ? 1 : 0) -
                        (change.kind == SeqChange::kDelete ? 1 : 0);
  switch (change.kind) {
    case SeqChange::kUpdate:
      RFV_RETURN_IF_ERROR(base->UpdateCell(base_row, target.value_col,
                                           Value::Double(change.value)));
      break;
    case SeqChange::kInsert: {
      RFV_RETURN_IF_ERROR(ShiftPositions(base, target.order_col, k, +1));
      Row row({Value::Null(), Value::Null()});
      row[target.order_col] = Value::Int(k);
      row[target.value_col] = Value::Double(change.value);
      RFV_RETURN_IF_ERROR(base->Insert(std::move(row)));
      break;
    }
    case SeqChange::kDelete:
      RFV_RETURN_IF_ERROR(ShiftPositions(base, target.order_col, k, -1));
      break;
  }

  size_t touched = 0;
  for (auto& [def, content] : target.views) {
    if (HasSliceRule(def->window, def->fn, change.kind) && new_n > 0) {
      size_t rows = 0;
      RFV_ASSIGN_OR_RETURN(rows, MaintainView(*def, content, change, raw));
      def->n = new_n;
      views->NoteIncrementalUpdate(def->view_name,
                                   static_cast<int64_t>(rows));
      touched += rows;
    } else {
      // No local rule, or the sequence became empty: RefreshView
      // rematerializes the view and records a full refresh.
      RFV_RETURN_IF_ERROR(views->RefreshView(def->view_name));
      touched += content->NumRows();
    }
  }
  CountMaintenanceRows(kOps[op], touched);
  if (span.active()) span.AddArg("rows", std::to_string(touched));
  return touched;
}

}  // namespace

Result<size_t> PropagateBaseUpdate(ViewManager* views,
                                   const std::string& base_table,
                                   int64_t position, double new_value) {
  return Propagate(views, base_table,
                   SliceChange{SeqChange::kUpdate, position, new_value});
}

Result<size_t> PropagateBaseInsert(ViewManager* views,
                                   const std::string& base_table,
                                   int64_t position, double value) {
  return Propagate(views, base_table,
                   SliceChange{SeqChange::kInsert, position, value});
}

Result<size_t> PropagateBaseDelete(ViewManager* views,
                                   const std::string& base_table,
                                   int64_t position) {
  return Propagate(views, base_table,
                   SliceChange{SeqChange::kDelete, position, 0});
}

}  // namespace rfv
