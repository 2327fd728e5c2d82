#ifndef RFVIEW_VIEW_REDUCTION_H_
#define RFVIEW_VIEW_REDUCTION_H_

#include <string>

#include "common/status.h"
#include "view/view_manager.h"

namespace rfv {

/// Storage-level reporting-sequence reductions (paper §6): derive a new
/// materialized sequence view *from an existing view's content* — never
/// from base data — exercising the §6.1/§6.2 lemmas end to end.
///
/// A derived view is a snapshot of its source at derivation time: base
/// changes through PropagateBase* (view/maintenance.h) skip it, and
/// RefreshView refuses it. To bring it up to date, drop it and derive it
/// again from the (maintained) source view.

/// Partitioning reduction (paper §6.2): `source_view` must be a
/// partitioned SUM view (a *complete reporting function* — every
/// partition carries header/trailer). Drops the right-most `drop`
/// partition columns: partitions sharing the remaining prefix are merged
/// by reconstructing their raw data from the stored sequences,
/// concatenating in partition order, and re-sequencing under the same
/// window. The result is registered as `target_view` (same base-table
/// metadata, reduced partition columns).
///
/// Errors: kNotFound (unknown view), kNotDerivable (not complete / not
/// SUM / not partitioned), kInvalidArgument (drop count),
/// kAlreadyExists (target name).
Result<const SequenceViewDef*> ReduceViewPartitioning(
    ViewManager* views, const std::string& source_view,
    const std::string& target_view, size_t drop);

/// Ordering reduction (paper §6.1): `source_view` must be a
/// *cumulative* SUM view over a dense multi-column ordering that was
/// linearized into positions via pos() with `block` fine positions per
/// coarse position (the product of the dropped ordering columns'
/// cardinalities). Produces the coarse cumulative view: one position per
/// block, value = fine cumulative at the block's last fine position
/// (the lemma's w'_H bound). Registered as `target_view`.
///
/// Errors: kNotFound, kNotDerivable (not cumulative SUM / not
/// divisible), kInvalidArgument (block < 2), kAlreadyExists.
Result<const SequenceViewDef*> ReduceViewOrdering(
    ViewManager* views, const std::string& source_view,
    const std::string& target_view, int64_t block);

}  // namespace rfv

#endif  // RFVIEW_VIEW_REDUCTION_H_
