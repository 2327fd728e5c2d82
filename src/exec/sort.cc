#include "exec/operators.h"

#include <algorithm>

#include "expr/eval.h"

namespace rfv {

Status SortOp::OpenImpl() {
  rows_.clear();
  pos_ = 0;
  RFV_RETURN_IF_ERROR(child_->Open());

  std::vector<Row> rows;
  RFV_RETURN_IF_ERROR(child_->DrainTo(&rows));
  std::vector<std::vector<Value>> keys;
  keys.reserve(rows.size());
  for (const Row& row : rows) {
    std::vector<Value> key;
    key.reserve(keys_.size());
    for (const SortKey& k : keys_) {
      Value v;
      RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(*k.expr, row));
      key.push_back(std::move(v));
    }
    keys.push_back(std::move(key));
  }

  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      const int c = keys[a][k].Compare(keys[b][k]);
      if (c != 0) return keys_[k].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  rows_.reserve(rows.size());
  for (size_t i : order) rows_.push_back(std::move(rows[i]));
  NoteBufferedRows(rows_.size());
  return Status::OK();
}

Status SortOp::NextImpl(Row* row, bool* eof) {
  if (pos_ >= rows_.size()) {
    *eof = true;
    return Status::OK();
  }
  *row = std::move(rows_[pos_++]);
  *eof = false;
  return Status::OK();
}

}  // namespace rfv
