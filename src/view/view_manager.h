#ifndef RFVIEW_VIEW_VIEW_MANAGER_H_
#define RFVIEW_VIEW_VIEW_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "sequence/reporting.h"
#include "sequence/sequence.h"
#include "storage/catalog.h"
#include "view/view_def.h"

namespace rfv {

/// Maintenance activity of one registered view, surfaced through the
/// `rfv_system.views` introspection view.
struct ViewMaintenanceCounters {
  /// Complete rematerializations from base data (initial materialize,
  /// REFRESH, and propagations without a local §2.3 rule).
  int64_t full_refreshes = 0;
  /// Localized propagations through the paper's §2.3 slice rules.
  int64_t incremental_updates = 0;
  /// Content rows written across all maintenance of this view.
  int64_t rows_written = 0;
};

/// One partition of a positional table (a view's base data or its
/// content): the partition key and the values at the dense positions
/// first, first+1, ..., first+values.size()-1.
struct PositionalGroup {
  std::vector<Value> key;
  int64_t first = 1;
  std::vector<SeqValue> values;
};

/// One content-table row (view_def.h layout): the partition key, then
/// pos and val.
Row ContentRow(const std::vector<Value>& key, int64_t pos, SeqValue val);

/// Registry and materializer for sequence views. Content tables live in
/// the catalog (so SQL can query them directly); this class owns the
/// sequence metadata and the materialization / refresh logic.
class ViewManager {
 public:
  explicit ViewManager(Catalog* catalog) : catalog_(catalog) {}

  ViewManager(const ViewManager&) = delete;
  ViewManager& operator=(const ViewManager&) = delete;

  /// Materializes a complete sequence view per `def` (def.n is filled
  /// in). Requirements on the base table: `order_column` holds dense
  /// positions 1..n (per partition for partitioned views) — the paper's
  /// sequences are positional — and `value_column` holds no NULL: the
  /// sequence algebra has no NULL, and storing one as 0 would let the
  /// rewriter serve answers that differ from the native window (a MIN
  /// of 0, an AVG over the wrong count). Gaps, duplicate or NULL
  /// positions and NULL values are kInvalidArgument errors, also for
  /// RefreshView.
  /// Errors: kNotFound (base table/columns), kAlreadyExists (view name).
  Result<const SequenceViewDef*> CreateSequenceView(SequenceViewDef def);

  /// Registers a view derived by the §6 reductions (view/reduction.h)
  /// from other views rather than from base data, and stores `sequence`
  /// as its content through the writer CreateSequenceView uses. Sets
  /// def.derived and def.n; the partition columns hold the integer
  /// partition keys. Errors: kAlreadyExists.
  Result<const SequenceViewDef*> StoreDerivedView(
      SequenceViewDef def, const PartitionedSequence& sequence);

  /// The stored content of `def`, one group per partition in ascending
  /// key order (first = the header start).
  Result<std::vector<PositionalGroup>> ReadContent(
      const SequenceViewDef& def) const;

  /// Recomputes the view content from the base table (full refresh).
  /// Errors: kNotSupported for derived views (their content is not a
  /// function of the base table's current positional layout).
  Status RefreshView(const std::string& view_name);

  /// Drops the view and its content table.
  Status DropView(const std::string& view_name);

  const SequenceViewDef* FindView(const std::string& view_name) const;

  /// Views defined over (base_table, value_column, order_column) with
  /// the given aggregate and an identical partitioning scheme — the
  /// rewriter's candidate set. Views derived by the §6 reductions are
  /// excluded (their position space is synthetic).
  std::vector<const SequenceViewDef*> FindCandidates(
      const std::string& base_table, const std::string& value_column,
      const std::string& order_column, SeqAggFn fn,
      const std::vector<std::string>& partition_columns = {}) const;

  const std::vector<std::unique_ptr<SequenceViewDef>>& views() const {
    return views_;
  }

  /// Maintenance counters of `view_name` (all-zero when the view has
  /// seen no maintenance or is unknown).
  ViewMaintenanceCounters MaintenanceCounters(
      const std::string& view_name) const;

  /// Counter hooks, called by the refresh paths above and by the DML
  /// propagation in view/maintenance.cc.
  void NoteFullRefresh(const std::string& view_name, int64_t rows_written);
  void NoteIncrementalUpdate(const std::string& view_name,
                             int64_t rows_written);

  Catalog* catalog() const { return catalog_; }

 private:
  /// A partition's complete sequence, as written to the content table.
  struct ContentPartition {
    std::vector<Value> key;
    Sequence sequence;
  };

  /// kAlreadyExists when a view or table is named `view_name`.
  Status CheckNewName(const std::string& view_name) const;

  /// Reads def's base table (grouped, dense, non-NULL) and computes one
  /// complete sequence per partition; `key_types`, when given, receives
  /// the base types of the partition columns.
  Result<std::vector<ContentPartition>> ComputeFromBase(
      const SequenceViewDef& def, std::vector<DataType>* key_types) const;

  /// Replaces the content of `content` by `parts` as one committed
  /// statement and analyzes it. Returns the largest n.
  static Result<int64_t> WriteContent(
      Table* content, const std::vector<ContentPartition>& parts);

  /// Creates, fills and indexes the content table of `def` and
  /// registers the view; drops the table again on any error.
  Result<const SequenceViewDef*> Store(
      SequenceViewDef def, const std::vector<DataType>& key_types,
      const std::vector<ContentPartition>& parts);

  Catalog* catalog_;
  std::vector<std::unique_ptr<SequenceViewDef>> views_;
  /// Lowered view name → maintenance counters. Guarded by
  /// maintenance_mu_: the counters are bumped by maintenance running
  /// under the engine write lock but read by concurrent SELECTs over
  /// rfv_system.views.
  mutable std::mutex maintenance_mu_;
  std::map<std::string, ViewMaintenanceCounters> maintenance_;
};

}  // namespace rfv

#endif  // RFVIEW_VIEW_VIEW_MANAGER_H_
