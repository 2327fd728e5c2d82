#include "storage/table.h"

#include <algorithm>
#include <utility>

#include "common/epoch.h"

namespace rfv {

Status Table::ValidateAndCoerce(Row* row) const {
  if (row->size() != schema_.NumColumns()) {
    return Status::TypeError(
        "row arity " + std::to_string(row->size()) + " does not match table " +
        name_ + " with " + std::to_string(schema_.NumColumns()) + " columns");
  }
  for (size_t i = 0; i < row->size(); ++i) {
    Value& v = row->at(i);
    if (v.is_null()) continue;
    const DataType want = schema_.column(i).type;
    const DataType have = v.type();
    if (have == want) continue;
    if (want == DataType::kDouble && have == DataType::kInt64) {
      v = Value::Double(static_cast<double>(v.AsInt()));
      continue;
    }
    if (want == DataType::kInt64 && have == DataType::kDouble) {
      // Accept doubles that are exact integers (parser produces int
      // literals, but expressions may compute doubles).
      const double d = v.AsDouble();
      const int64_t as_int = static_cast<int64_t>(d);
      if (static_cast<double>(as_int) == d) {
        v = Value::Int(as_int);
        continue;
      }
    }
    return Status::TypeError("column " + schema_.column(i).name +
                             " expects " + DataTypeName(want) + ", got " +
                             DataTypeName(have));
  }
  return Status::OK();
}

Status Table::Insert(Row row) {
  RFV_RETURN_IF_ERROR(ValidateAndCoerce(&row));
  std::lock_guard<std::mutex> lock(snap_mu_);
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  const size_t row_id = rows_.size();
  MarkDirtyFromLocked(row_id);
  rows_.push_back(std::move(row));
  live_rows_.store(rows_.size(), std::memory_order_release);
  stats_.InsertRow(schema_, rows_.back());
  for (auto& index : indexes_) {
    if (!index->dirty()) {
      index->Insert(rows_.back()[index->column()], row_id);
    }
  }
  return Status::OK();
}

Status Table::InsertBatch(std::vector<Row> rows) {
  for (Row& row : rows) {
    RFV_RETURN_IF_ERROR(ValidateAndCoerce(&row));
  }
  std::lock_guard<std::mutex> lock(snap_mu_);
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  MarkDirtyFromLocked(rows_.size());
  rows_.reserve(rows_.size() + rows.size());
  for (Row& row : rows) {
    rows_.push_back(std::move(row));
    stats_.InsertRow(schema_, rows_.back());
  }
  live_rows_.store(rows_.size(), std::memory_order_release);
  MarkIndexesDirty();
  return Status::OK();
}

Status Table::UpdateRow(size_t row_id, Row row) {
  if (row_id >= rows_.size()) {
    return Status::InvalidArgument("row id out of range");
  }
  RFV_RETURN_IF_ERROR(ValidateAndCoerce(&row));
  std::lock_guard<std::mutex> lock(snap_mu_);
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  MarkRowDirtyLocked(row_id);
  stats_.ReplaceRow(schema_, rows_[row_id], row);
  rows_[row_id] = std::move(row);
  MarkIndexesDirty();
  return Status::OK();
}

Status Table::UpdateCell(size_t row_id, size_t column, Value value) {
  if (row_id >= rows_.size()) {
    return Status::InvalidArgument("row id out of range");
  }
  if (column >= schema_.NumColumns()) {
    return Status::InvalidArgument("column out of range");
  }
  Row updated = rows_[row_id];
  updated[column] = std::move(value);
  RFV_RETURN_IF_ERROR(ValidateAndCoerce(&updated));
  std::lock_guard<std::mutex> lock(snap_mu_);
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  MarkRowDirtyLocked(row_id);
  stats_.ReplaceRow(schema_, rows_[row_id], updated);
  rows_[row_id] = std::move(updated);
  // Only indexes keyed on the changed column go stale — the paper's
  // incremental view maintenance updates `val` cells through `pos`
  // indexes, which must stay warm.
  for (auto& index : indexes_) {
    if (index->column() == column) index->MarkDirty();
  }
  return Status::OK();
}

Status Table::DeleteRow(size_t row_id) {
  if (row_id >= rows_.size()) {
    return Status::InvalidArgument("row id out of range");
  }
  std::lock_guard<std::mutex> lock(snap_mu_);
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  MarkDirtyFromLocked(row_id);
  stats_.RemoveRow(schema_, rows_[row_id]);
  rows_.erase(rows_.begin() + static_cast<ptrdiff_t>(row_id));
  live_rows_.store(rows_.size(), std::memory_order_release);
  MarkIndexesDirty();
  return Status::OK();
}

void Table::Truncate() {
  std::lock_guard<std::mutex> lock(snap_mu_);
  mutation_epoch_.fetch_add(1, std::memory_order_acq_rel);
  MarkDirtyFromLocked(0);
  rows_.clear();
  live_rows_.store(0, std::memory_order_release);
  stats_.Clear();
  MarkIndexesDirty();
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::string& column_name) {
  for (const auto& index : indexes_) {
    if (index->name() == index_name) {
      return Status::AlreadyExists("index " + index_name + " already exists");
    }
  }
  Result<size_t> column = schema_.FindColumn("", column_name);
  if (!column.ok()) return column.status();
  auto index = std::make_unique<OrderedIndex>(index_name, column.value());
  index->RebuildFrom(*this);
  indexes_.push_back(std::move(index));
  return Status::OK();
}

OrderedIndex* Table::GetIndexOnColumn(size_t column) {
  // Serialize rebuilds so two concurrent SELECTs racing to warm the same
  // index don't build it twice over each other's state. The returned
  // pointer itself is only isolated against DML by the engine-level
  // write mutex, not by snapshots (documented limitation, DESIGN §14).
  std::lock_guard<std::mutex> lock(snap_mu_);
  for (auto& index : indexes_) {
    if (index->column() != column) continue;
    if (index->dirty()) {
      index->RebuildFrom(*this);
    } else {
      index->EnsureSorted();
    }
    return index.get();
  }
  return nullptr;
}

bool Table::HasIndexOnColumn(size_t column) const {
  for (const auto& index : indexes_) {
    if (index->column() == column) return true;
  }
  return false;
}

void Table::MarkIndexesDirty() {
  for (auto& index : indexes_) index->MarkDirty();
}

TableStats Table::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return stats_;
}

void Table::Analyze() {
  std::lock_guard<std::mutex> lock(snap_mu_);
  stats_.Analyze(schema_, rows_);
}

TableSnapshotPtr Table::PinSnapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (writer_depth_ == 0) RefreshSnapshotLocked();
  if (snapshot_ == nullptr) {
    // A write bracket opened before any reader ever pinned; the
    // committed pre-statement image is empty only if the table never
    // held committed rows, which BeginWrite guarantees by refreshing.
    snapshot_ = std::make_shared<const TableSnapshot>();
  }
  return snapshot_;
}

void Table::BeginWrite() {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (writer_depth_ == 0) {
    // Capture the committed image before the statement mutates anything,
    // so concurrent PinSnapshot() calls during the bracket see it.
    RefreshSnapshotLocked();
  }
  ++writer_depth_;
}

void Table::EndWrite() {
  std::lock_guard<std::mutex> lock(snap_mu_);
  if (--writer_depth_ == 0) {
    // Publish the statement's effects as one atomic snapshot flip.
    RefreshSnapshotLocked();
  }
}

void Table::MarkDirtyFromLocked(size_t row_id) {
  dirty_from_ = std::min(dirty_from_, row_id);
}

void Table::MarkRowDirtyLocked(size_t row_id) {
  dirty_chunks_.insert(row_id / TableSnapshot::kChunkRows);
}

void Table::RefreshSnapshotLocked() const {
  const uint64_t epoch = mutation_epoch_.load(std::memory_order_acquire);
  if (snapshot_ != nullptr && snapshot_->epoch() == epoch) return;

  constexpr size_t kChunkRows = TableSnapshot::kChunkRows;
  // Rows below dirty_from_ are byte-identical to the published snapshot
  // except in the chunks of rows updated in place (dirty_chunks_), so
  // every other *full* chunk entirely below it can be shared — and the
  // partial tail chunk too when no row was added or removed. The rest is
  // copied fresh.
  size_t shared_chunks = 0;
  if (snapshot_ != nullptr) {
    const size_t unchanged = std::min(dirty_from_, rows_.size());
    shared_chunks = unchanged == rows_.size() &&
                            unchanged == snapshot_->num_rows()
                        ? snapshot_->num_chunks()
                        : std::min(unchanged / kChunkRows,
                                   snapshot_->num_rows() / kChunkRows);
    shared_chunks = std::min(shared_chunks, snapshot_->num_chunks());
  }

  std::vector<std::shared_ptr<const RowChunk>> chunks;
  chunks.reserve((rows_.size() + kChunkRows - 1) / kChunkRows);
  for (size_t pos = 0, c = 0; pos < rows_.size(); pos += kChunkRows, ++c) {
    if (c < shared_chunks && dirty_chunks_.count(c) == 0) {
      chunks.push_back(snapshot_->chunk(c));
      continue;
    }
    auto chunk = std::make_shared<RowChunk>();
    const size_t end = std::min(pos + kChunkRows, rows_.size());
    chunk->rows.assign(rows_.begin() + static_cast<ptrdiff_t>(pos),
                       rows_.begin() + static_cast<ptrdiff_t>(end));
    chunks.push_back(std::move(chunk));
  }

  TableSnapshotPtr retired = std::move(snapshot_);
  snapshot_ = std::make_shared<const TableSnapshot>(std::move(chunks),
                                                    rows_.size(), epoch);
  dirty_from_ = static_cast<size_t>(-1);
  dirty_chunks_.clear();
  if (retired != nullptr) {
    EpochManager& manager = EpochManager::Global();
    manager.Retire(std::static_pointer_cast<const void>(std::move(retired)));
    manager.Reclaim();
  }
}

}  // namespace rfv
