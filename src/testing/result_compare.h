#ifndef RFVIEW_TESTING_RESULT_COMPARE_H_
#define RFVIEW_TESTING_RESULT_COMPARE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/row.h"
#include "db/result_set.h"

namespace rfv {
namespace fuzzing {

/// Result comparison shared by the fuzz oracles and the gtest helpers in
/// tests/test_util.h (the single implementation of canonical row
/// ordering + value equality; keep them from diverging).

/// Sorts rows lexicographically by every column under Value::Compare's
/// total order (NULL first, numerics compared across int64/double).
void CanonicalSort(std::vector<Row>* rows);

/// True when both results have identical values row by row (Value
/// equality: NULL == NULL, Int(2) == Double(2.0)).
bool SameRows(const ResultSet& a, const ResultSet& b);

/// Row-by-row diff in the results' own row order. Returns nullopt on
/// equality, else a short human-readable description (row/column counts
/// or the first few differing rows).
std::optional<std::string> DiffRows(const ResultSet& a, const ResultSet& b);

/// DiffRows under canonical row ordering — the oracle comparison: both
/// results are sorted by all columns first, so differences in output
/// order (parallel execution, rewrite plans without a final sort) do
/// not count as mismatches.
std::optional<std::string> DiffRowsCanonical(const ResultSet& a,
                                             const ResultSet& b);

/// Nullopt when both results name their columns alike, in order; else
/// both name lists.
std::optional<std::string> DiffColumnNames(const ResultSet& a,
                                           const ResultSet& b);

/// DiffRowsCanonical over bare row vectors (view-content snapshots and
/// other comparisons that never pass through a ResultSet). Takes copies
/// because both sides are sorted in place.
std::optional<std::string> DiffRowVectorsCanonical(std::vector<Row> a,
                                                   std::vector<Row> b);

}  // namespace fuzzing
}  // namespace rfv

#endif  // RFVIEW_TESTING_RESULT_COMPARE_H_
