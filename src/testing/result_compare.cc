#include "testing/result_compare.h"

#include <algorithm>

namespace rfv {
namespace fuzzing {

namespace {

bool RowLess(const Row& a, const Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

std::string RenderRow(const Row& row) {
  std::string out;
  for (size_t c = 0; c < row.size(); ++c) {
    out += (c != 0 ? ", " : "") + row[c].ToString();
  }
  return out;
}

std::optional<std::string> DiffRowVectors(const std::vector<Row>& a,
                                          const std::vector<Row>& b,
                                          size_t columns_a,
                                          size_t columns_b) {
  if (columns_a != columns_b) {
    return "column counts differ: " + std::to_string(columns_a) + " vs " +
           std::to_string(columns_b);
  }
  std::string diff;
  if (a.size() != b.size()) {
    diff = "row counts differ: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  const size_t n = std::min(a.size(), b.size());
  int reported = 0;
  for (size_t i = 0; i < n && reported < 5; ++i) {
    bool equal = a[i].size() == b[i].size();
    for (size_t c = 0; equal && c < a[i].size(); ++c) {
      equal = a[i][c].Compare(b[i][c]) == 0;
    }
    if (!equal) {
      if (!diff.empty()) diff += "\n";
      diff += "row " + std::to_string(i) + ": (" + RenderRow(a[i]) +
              ") vs (" + RenderRow(b[i]) + ")";
      ++reported;
    }
  }
  if (diff.empty()) return std::nullopt;
  return diff;
}

}  // namespace

void CanonicalSort(std::vector<Row>* rows) {
  std::sort(rows->begin(), rows->end(), RowLess);
}

bool SameRows(const ResultSet& a, const ResultSet& b) {
  return !DiffRows(a, b).has_value();
}

std::optional<std::string> DiffRows(const ResultSet& a, const ResultSet& b) {
  return DiffRowVectors(a.rows(), b.rows(), a.schema().NumColumns(),
                        b.schema().NumColumns());
}

std::optional<std::string> DiffRowsCanonical(const ResultSet& a,
                                             const ResultSet& b) {
  std::vector<Row> ra = a.rows();
  std::vector<Row> rb = b.rows();
  CanonicalSort(&ra);
  CanonicalSort(&rb);
  return DiffRowVectors(ra, rb, a.schema().NumColumns(),
                        b.schema().NumColumns());
}

std::optional<std::string> DiffRowVectorsCanonical(std::vector<Row> a,
                                                   std::vector<Row> b) {
  CanonicalSort(&a);
  CanonicalSort(&b);
  // Column counts come from the data itself; with an empty side only
  // the row-count difference is meaningful.
  const size_t cols_a = a.empty() ? 0 : a[0].size();
  const size_t cols_b = b.empty() ? cols_a : b[0].size();
  return DiffRowVectors(a, b, a.empty() ? cols_b : cols_a, cols_b);
}

std::optional<std::string> DiffColumnNames(const ResultSet& a,
                                           const ResultSet& b) {
  const auto render = [](const Schema& schema) {
    std::string out;
    for (size_t c = 0; c < schema.NumColumns(); ++c) {
      out += (c != 0 ? ", " : "") + schema.column(c).name;
    }
    return out;
  };
  const std::string names_a = render(a.schema());
  const std::string names_b = render(b.schema());
  if (names_a == names_b) return std::nullopt;
  return "column names differ: (" + names_a + ") vs (" + names_b + ")";
}

}  // namespace fuzzing
}  // namespace rfv
