#include "exec/vector.h"

namespace rfv {

Value Vector::GetValue(size_t i) const {
  switch (tag(i)) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kInt64:
      return Value::Int(i64_[i]);
    case DataType::kDouble:
      return Value::Double(f64_[i]);
    case DataType::kBool:
      return Value::Bool(i64_[i] != 0);
    case DataType::kString:
      return Value::String(str_[i]);
  }
  return Value::Null();
}

void Vector::SetValue(size_t i, const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      SetNull(i);
      break;
    case DataType::kInt64:
      SetInt(i, v.AsInt());
      break;
    case DataType::kDouble:
      SetDouble(i, v.AsDouble());
      break;
    case DataType::kBool:
      SetBool(i, v.AsBool());
      break;
    case DataType::kString:
      SetString(i, v.AsString());
      break;
  }
}

void VectorProjection::FromRows(size_t num_columns, const Row* rows,
                                size_t count) {
  Reset(num_columns, count);
  for (size_t i = 0; i < count; ++i) {
    const Row& row = rows[i];
    RFV_CHECK_MSG(row.size() == num_columns,
                  "row width " << row.size() << " != projection width "
                               << num_columns);
    for (size_t c = 0; c < num_columns; ++c) {
      columns_[c].SetValue(i, row[c]);
    }
  }
}

void VectorProjection::MaterializeRow(size_t pos, Row* out) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (const Vector& col : columns_) values.push_back(col.GetValue(pos));
  *out = Row(std::move(values));
}

void VectorProjection::AppendSelectedTo(std::vector<Row>* out) const {
  out->reserve(out->size() + sel_.size());
  for (size_t k = 0; k < sel_.size(); ++k) {
    std::vector<Value> values;
    values.reserve(columns_.size());
    const uint32_t pos = sel_[k];
    for (const Vector& col : columns_) values.push_back(col.GetValue(pos));
    out->emplace_back(std::move(values));
  }
}

void HashVectorColumns(const std::vector<const Vector*>& keys,
                       const SelectionVector& sel, size_t num_rows,
                       std::vector<uint64_t>* out) {
  if (out->size() < num_rows) out->resize(num_rows);
  constexpr uint64_t kSeed = 0xcbf29ce484222325ull;  // RowColumnsHash seed
  for (size_t k = 0; k < sel.size(); ++k) (*out)[sel[k]] = kSeed;
  // Column-at-a-time: the tag branch inside VectorCellHash predicts
  // perfectly on homogeneous columns, and each pass streams one lane.
  for (const Vector* col : keys) {
    for (size_t k = 0; k < sel.size(); ++k) {
      const uint32_t p = sel[k];
      uint64_t& h = (*out)[p];
      h ^= VectorCellHash(*col, p) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
    }
  }
}

}  // namespace rfv
