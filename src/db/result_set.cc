#include "db/result_set.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/str_util.h"

namespace rfv {

std::string ResultSet::PhasesToString() const {
  if (phase_ns_.empty()) return "";
  std::string out = "phases:";
  for (const auto& [phase, ns] : phase_ns_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.3fms", phase.c_str(),
                  static_cast<double>(ns) / 1e6);
    out += buf;
  }
  return out;
}

void ResultSet::RenameColumns(const std::vector<std::string>& names) {
  Schema renamed;
  for (size_t i = 0; i < schema_.NumColumns(); ++i) {
    renamed.AddColumn(ColumnDef(names[i], schema_.column(i).type));
  }
  schema_ = std::move(renamed);
}

int ResultSet::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < schema_.NumColumns(); ++i) {
    if (EqualsIgnoreCase(schema_.column(i).name, name)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::string ResultSet::ToString(size_t max_rows) const {
  if (!is_query_) {
    return "(" + std::to_string(affected_) + " rows affected)";
  }
  std::ostringstream os;
  std::vector<size_t> widths(schema_.NumColumns());
  std::vector<std::vector<std::string>> cells;
  const size_t shown = std::min(max_rows, rows_.size());
  for (size_t c = 0; c < schema_.NumColumns(); ++c) {
    widths[c] = schema_.column(c).name.size();
  }
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row_cells;
    for (size_t c = 0; c < schema_.NumColumns(); ++c) {
      // Strings render raw (Value::ToString quotes them for debugging).
      const Value& v = rows_[r][c];
      std::string cell = v.type() == DataType::kString ? v.AsString()
                                                       : v.ToString();
      widths[c] = std::max(widths[c], cell.size());
      row_cells.push_back(std::move(cell));
    }
    cells.push_back(std::move(row_cells));
  }
  for (size_t c = 0; c < schema_.NumColumns(); ++c) {
    os << (c == 0 ? "" : " | ");
    std::string name = schema_.column(c).name;
    name.resize(widths[c], ' ');
    os << name;
  }
  os << "\n";
  for (size_t c = 0; c < schema_.NumColumns(); ++c) {
    os << (c == 0 ? "" : "-+-") << std::string(widths[c], '-');
  }
  os << "\n";
  for (const auto& row_cells : cells) {
    for (size_t c = 0; c < row_cells.size(); ++c) {
      std::string cell = row_cells[c];
      if (c + 1 < row_cells.size()) cell.resize(widths[c], ' ');
      os << (c == 0 ? "" : " | ") << cell;
    }
    os << "\n";
  }
  if (rows_.size() > shown) {
    os << "... (" << rows_.size() << " rows total)\n";
  }
  return os.str();
}

}  // namespace rfv
