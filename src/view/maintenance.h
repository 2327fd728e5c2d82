#ifndef RFVIEW_VIEW_MAINTENANCE_H_
#define RFVIEW_VIEW_MAINTENANCE_H_

#include <string>

#include "common/status.h"
#include "view/view_manager.h"

namespace rfv {

/// Incremental maintenance of materialized sequence views (paper §2.3)
/// at the storage level: a positional change of the base table is
/// propagated to every dependent view's content table. Dependent views
/// are the non-partitioned views over the base; views derived by the §6
/// reductions are snapshots and are skipped (view/reduction.h).
///
/// Each call reads the raw slice around the changed position through
/// the base's pos index, and each view's affected slice through its
/// own, applies the sequence/maintain.h rule and writes the returned
/// values back — w = l+h+1 rows for a sliding view, also for INSERT and
/// DELETE, which shift the positions past the slice and add or remove
/// one row at its edge. A cumulative SUM view takes the delta on
/// positions >= k for UPDATE; cumulative views without a rule
/// (insert/delete, and MIN/MAX on update) are refreshed in full.
///
/// Every argument and every dependent view is checked before the first
/// write, so an error leaves the base table and all views unchanged.
/// Each table a call writes stays under one Table::WriteGuard. Returns
/// the view rows written, added or removed.

/// Sets the value at `position` of `base_table`.
/// Errors: kNotFound (no dependent views, no row at `position`),
/// kInvalidArgument (value not storable in the value column),
/// kNotSupported (dependent views disagree on order/value columns).
Result<size_t> PropagateBaseUpdate(ViewManager* views,
                                   const std::string& base_table,
                                   int64_t position, double new_value);

/// Inserts a value at `position` in [1, n+1]; old positions >=
/// `position` move up by one. The base table must consist of exactly
/// the order and value columns (other columns would need values).
/// Errors as above, plus kInvalidArgument for `position` outside
/// [1, n+1] and kNotSupported for other base shapes.
Result<size_t> PropagateBaseInsert(ViewManager* views,
                                   const std::string& base_table,
                                   int64_t position, double value);

/// Deletes the row at `position`; higher positions move down by one.
Result<size_t> PropagateBaseDelete(ViewManager* views,
                                   const std::string& base_table,
                                   int64_t position);

}  // namespace rfv

#endif  // RFVIEW_VIEW_MAINTENANCE_H_
