#include "view/view_manager.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

#include "common/str_util.h"
#include "sequence/compute.h"

namespace rfv {

namespace {

/// Content-table column names; view_def.h fixes their order.
constexpr char kPosColumn[] = "pos";
constexpr char kValColumn[] = "val";

/// Groups a positional table's rows by the `key_cols` values, in
/// ascending key order, and checks each group's positions are dense
/// integers and its values non-NULL.
Result<std::vector<PositionalGroup>> GroupPositionalRows(
    const Table& table, const std::vector<size_t>& key_cols, size_t pos_col,
    size_t val_col) {
  std::map<std::vector<Value>, std::vector<std::pair<int64_t, SeqValue>>>
      grouped;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const Row& row = table.row(r);
    const Value& pos = row[pos_col];
    const Value& val = row[val_col];
    if (pos.is_null() || pos.type() != DataType::kInt64) {
      return Status::InvalidArgument(
          "sequence view order column must hold non-NULL integers");
    }
    if (val.is_null()) {
      return Status::InvalidArgument(
          "sequence view value column must hold non-NULL values; position " +
          std::to_string(pos.AsInt()) + " holds NULL");
    }
    std::vector<Value> key;
    key.reserve(key_cols.size());
    for (size_t c : key_cols) key.push_back(row[c]);
    grouped[std::move(key)].emplace_back(pos.AsInt(), val.ToDouble());
  }
  std::vector<PositionalGroup> out;
  out.reserve(grouped.size());
  for (auto& [key, entries] : grouped) {
    std::sort(entries.begin(), entries.end());
    PositionalGroup part;
    part.key = key;
    part.first = entries.front().first;
    part.values.reserve(entries.size());
    for (const auto& [p, v] : entries) {
      const int64_t expected =
          part.first + static_cast<int64_t>(part.values.size());
      if (p != expected) {
        return Status::InvalidArgument(
            p < expected ? "duplicate position " + std::to_string(p) +
                               " in sequence view data"
                         : "sequence view positions must be dense; missing "
                           "position " + std::to_string(expected));
      }
      part.values.push_back(v);
    }
    out.push_back(std::move(part));
  }
  return out;
}

}  // namespace

Row ContentRow(const std::vector<Value>& key, int64_t pos, SeqValue val) {
  std::vector<Value> values;
  values.reserve(key.size() + 2);
  values.insert(values.end(), key.begin(), key.end());
  values.push_back(Value::Int(pos));
  values.push_back(Value::Double(val));
  return Row(std::move(values));
}

Status ViewManager::CheckNewName(const std::string& view_name) const {
  if (FindView(view_name) != nullptr || catalog_->HasTable(view_name)) {
    return Status::AlreadyExists("view " + view_name + " already exists");
  }
  return Status::OK();
}

Result<std::vector<ViewManager::ContentPartition>>
ViewManager::ComputeFromBase(const SequenceViewDef& def,
                             std::vector<DataType>* key_types) const {
  Table* base = nullptr;
  RFV_ASSIGN_OR_RETURN(base, catalog_->GetTable(def.base_table));
  const Schema& schema = base->schema();
  size_t order_col = 0;
  size_t value_col = 0;
  RFV_ASSIGN_OR_RETURN(order_col, schema.FindColumn("", def.order_column));
  RFV_ASSIGN_OR_RETURN(value_col, schema.FindColumn("", def.value_column));
  std::vector<size_t> key_cols;
  for (const std::string& name : def.partition_columns) {
    size_t c = 0;
    RFV_ASSIGN_OR_RETURN(c, schema.FindColumn("", name));
    key_cols.push_back(c);
    if (key_types != nullptr) key_types->push_back(schema.column(c).type);
  }
  std::vector<PositionalGroup> groups;
  RFV_ASSIGN_OR_RETURN(groups, GroupPositionalRows(*base, key_cols,
                                                   order_col, value_col));
  std::vector<ContentPartition> parts;
  parts.reserve(groups.size());
  for (PositionalGroup& group : groups) {
    if (group.first != 1) {
      return Status::InvalidArgument(
          "sequence view positions must be dense 1..n; missing position 1");
    }
    Sequence seq = BuildCompleteSequence(group.values, def.window, def.fn);
    parts.push_back(ContentPartition{std::move(group.key), std::move(seq)});
  }
  return parts;
}

Result<int64_t> ViewManager::WriteContent(
    Table* content, const std::vector<ContentPartition>& parts) {
  std::vector<Row> rows;
  int64_t max_n = 0;
  for (const ContentPartition& part : parts) {
    const Sequence& seq = part.sequence;
    max_n = std::max(max_n, seq.n());
    for (int64_t k = seq.first_pos(); k <= seq.last_pos(); ++k) {
      rows.push_back(ContentRow(part.key, k, seq.at(k)));
    }
  }
  // Bracket the truncate-and-refill as one committed statement:
  // concurrent readers keep scanning the previous content snapshot and
  // never observe the empty or half-filled intermediate states.
  Table::WriteGuard guard(content);
  content->Truncate();
  RFV_RETURN_IF_ERROR(content->InsertBatch(std::move(rows)));
  // Fresh content is the cost model's main input; make its statistics
  // exact (distinct partition keys, tight pos/val ranges) instead of
  // waiting for an explicit ANALYZE.
  content->Analyze();
  return max_n;
}

Result<const SequenceViewDef*> ViewManager::Store(
    SequenceViewDef def, const std::vector<DataType>& key_types,
    const std::vector<ContentPartition>& parts) {
  Schema schema;
  for (size_t i = 0; i < key_types.size(); ++i) {
    schema.AddColumn(ColumnDef(def.partition_columns[i], key_types[i]));
  }
  schema.AddColumn(ColumnDef(kPosColumn, DataType::kInt64));
  schema.AddColumn(ColumnDef(kValColumn, DataType::kDouble));
  Table* content = nullptr;
  RFV_ASSIGN_OR_RETURN(content,
                       catalog_->CreateTable(def.view_name, std::move(schema)));
  const Result<int64_t> n = WriteContent(content, parts);
  Status status = n.status();
  if (status.ok() && def.indexed) {
    status = content->CreateIndex(def.view_name + "_pk", kPosColumn);
  }
  if (!status.ok()) {
    (void)catalog_->DropTable(def.view_name);
    return status;
  }
  def.n = *n;
  if (!def.derived) {
    NoteFullRefresh(def.view_name, static_cast<int64_t>(content->NumRows()));
  }
  views_.push_back(std::make_unique<SequenceViewDef>(std::move(def)));
  return views_.back().get();
}

Result<const SequenceViewDef*> ViewManager::CreateSequenceView(
    SequenceViewDef def) {
  def.view_name = ToLower(def.view_name);
  RFV_RETURN_IF_ERROR(CheckNewName(def.view_name));
  std::vector<DataType> key_types;
  std::vector<ContentPartition> parts;
  RFV_ASSIGN_OR_RETURN(parts, ComputeFromBase(def, &key_types));
  return Store(std::move(def), key_types, parts);
}

Result<const SequenceViewDef*> ViewManager::StoreDerivedView(
    SequenceViewDef def, const PartitionedSequence& sequence) {
  def.view_name = ToLower(def.view_name);
  def.derived = true;
  RFV_RETURN_IF_ERROR(CheckNewName(def.view_name));
  std::vector<ContentPartition> parts;
  parts.reserve(sequence.num_partitions());
  for (size_t p = 0; p < sequence.num_partitions(); ++p) {
    const PartitionedSequence::Partition& part = sequence.partition(p);
    std::vector<Value> key;
    for (int64_t kv : part.key) key.push_back(Value::Int(kv));
    parts.push_back(ContentPartition{std::move(key), part.sequence});
  }
  const std::vector<DataType> key_types(def.partition_columns.size(),
                                        DataType::kInt64);
  return Store(std::move(def), key_types, parts);
}

Result<std::vector<PositionalGroup>> ViewManager::ReadContent(
    const SequenceViewDef& def) const {
  Table* content = nullptr;
  RFV_ASSIGN_OR_RETURN(content, catalog_->GetTable(def.view_name));
  std::vector<size_t> key_cols(def.partition_columns.size());
  std::iota(key_cols.begin(), key_cols.end(), size_t{0});
  return GroupPositionalRows(*content, key_cols, def.pos_column(),
                             def.val_column());
}

Status ViewManager::RefreshView(const std::string& view_name) {
  SequenceViewDef* def = nullptr;
  for (auto& v : views_) {
    if (v->view_name == ToLower(view_name)) {
      def = v.get();
      break;
    }
  }
  if (def == nullptr) {
    return Status::NotFound("view " + view_name + " is not registered");
  }
  if (def->derived) {
    return Status::NotSupported(
        "derived views (paper §6 reductions) cannot be refreshed from the "
        "base table; re-derive from the source view instead");
  }
  Table* content = nullptr;
  RFV_ASSIGN_OR_RETURN(content, catalog_->GetTable(def->view_name));
  std::vector<ContentPartition> parts;
  RFV_ASSIGN_OR_RETURN(parts, ComputeFromBase(*def, nullptr));
  // Fill a local, then publish through the atomic cell: concurrent
  // SELECTs read def->n lock-free while this refresh runs.
  int64_t n = 0;
  RFV_ASSIGN_OR_RETURN(n, WriteContent(content, parts));
  def->n = n;
  NoteFullRefresh(def->view_name, static_cast<int64_t>(content->NumRows()));
  return Status::OK();
}

Status ViewManager::DropView(const std::string& view_name) {
  const std::string key = ToLower(view_name);
  for (auto it = views_.begin(); it != views_.end(); ++it) {
    if ((*it)->view_name == key) {
      views_.erase(it);
      {
        std::lock_guard<std::mutex> lock(maintenance_mu_);
        maintenance_.erase(key);
      }
      return catalog_->DropTable(key);
    }
  }
  return Status::NotFound("view " + view_name + " is not registered");
}

ViewMaintenanceCounters ViewManager::MaintenanceCounters(
    const std::string& view_name) const {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  const auto it = maintenance_.find(ToLower(view_name));
  return it == maintenance_.end() ? ViewMaintenanceCounters{} : it->second;
}

void ViewManager::NoteFullRefresh(const std::string& view_name,
                                  int64_t rows_written) {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  ViewMaintenanceCounters& c = maintenance_[ToLower(view_name)];
  ++c.full_refreshes;
  c.rows_written += rows_written;
}

void ViewManager::NoteIncrementalUpdate(const std::string& view_name,
                                        int64_t rows_written) {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  ViewMaintenanceCounters& c = maintenance_[ToLower(view_name)];
  ++c.incremental_updates;
  c.rows_written += rows_written;
}

const SequenceViewDef* ViewManager::FindView(
    const std::string& view_name) const {
  const std::string key = ToLower(view_name);
  for (const auto& v : views_) {
    if (v->view_name == key) return v.get();
  }
  return nullptr;
}

std::vector<const SequenceViewDef*> ViewManager::FindCandidates(
    const std::string& base_table, const std::string& value_column,
    const std::string& order_column, SeqAggFn fn,
    const std::vector<std::string>& partition_columns) const {
  const auto same_partitioning = [&](const SequenceViewDef& v) {
    if (v.partition_columns.size() != partition_columns.size()) return false;
    for (size_t i = 0; i < partition_columns.size(); ++i) {
      if (!EqualsIgnoreCase(v.partition_columns[i], partition_columns[i])) {
        return false;
      }
    }
    return true;
  };
  std::vector<const SequenceViewDef*> out;
  for (const auto& v : views_) {
    if (EqualsIgnoreCase(v->base_table, base_table) &&
        EqualsIgnoreCase(v->value_column, value_column) &&
        EqualsIgnoreCase(v->order_column, order_column) && v->fn == fn &&
        same_partitioning(*v) && !v->derived) {
      out.push_back(v.get());
    }
  }
  return out;
}

}  // namespace rfv
