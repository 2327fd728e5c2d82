#ifndef RFVIEW_SEQUENCE_MAINTAIN_H_
#define RFVIEW_SEQUENCE_MAINTAIN_H_

#include <vector>

#include "sequence/sequence.h"

namespace rfv {

/// Incremental maintenance of materialized sequences (paper §2.3): under
/// UPDATE/INSERT/DELETE of the raw value at position k only the
/// sequence positions whose window holds k change — w = l+h+1 positions
/// of a sliding sequence — so a change reads and rewrites an O(w) slice
/// instead of the whole sequence. These are the rules only; the storage
/// layer (view/maintenance.h) reads the slices, calls MaintainSlice and
/// writes the result back.
///
/// Rules for a sliding (l, h) window, with x the raw data and x̃ the
/// sequence *before* the change:
///
///   UPDATE x_k → x'_k, positions k-h <= i <= k+l:
///     SUM      x̃'_i = x̃_i + (x'_k − x_k)
///     MIN/MAX  x̃'_i = min(x̃_i, x'_k) / max(x̃_i, x'_k) when the update
///              improves the extreme (the paper's footnote); otherwise
///              the windows are recomputed with one SlidingMinMax
///              sweep (compute.h), the deque that also materializes them.
///   INSERT v at k (old positions >= k move up), k-h <= i <= k+l:
///     SUM      x̃'_i = v + x̃_i − x_{i+h}
///   DELETE k (old positions > k move down), k-h <= i <= k+l-1:
///     SUM      x̃'_i = x̃_i − x_k + x_{i+h+1}
///   MIN/MAX insert/delete recompute the affected windows over the
///   changed raw slice with the same deque sweep.
///
/// Positions below the slice keep their value; positions above it keep
/// theirs too and only move: x̃'_i = x̃_{i-1} past an insert, x̃'_i =
/// x̃_{i+1} past a delete. (The scanned paper's insert/delete formulas
/// are OCR-damaged; these were derived from first principles and are
/// checked against full recomputation by the maintenance tests.)
///
/// A cumulative SUM sequence has one rule, for UPDATE: x̃'_i = x̃_i +
/// (x'_k − x_k) for every i >= k (O(n-k) positions). Cumulative
/// insert/delete and cumulative MIN/MAX have no local rule.

enum class SeqChange { kUpdate, kInsert, kDelete };

/// One change of the raw data: the kind, the position k and, for update
/// and insert, the new value x'_k.
struct SliceChange {
  SeqChange kind = SeqChange::kUpdate;
  int64_t k = 1;
  SeqValue value = 0;
};

/// Raw values read around k *before* the change: x_p for p in
/// [first, first + values.size() - 1]. The slice must cover
/// [k - RawReach, k + RawReach] ∩ [1, n]; positions outside [1, n] read
/// as 0 (the paper's padding).
struct RawSlice {
  int64_t n = 0;  ///< raw cardinality before the change
  int64_t first = 1;
  std::vector<SeqValue> values;

  SeqValue at(int64_t p) const;
};

/// Sequence positions [first, last] a change rewrites, numbered after
/// the change: [k-h, k+l] for update/insert, [k-h, k+l-1] for delete,
/// [k, n] for a cumulative update.
struct SeqRange {
  int64_t first = 0;
  int64_t last = -1;
  int64_t size() const { return last - first + 1; }
};
SeqRange AffectedRange(const WindowSpec& spec, const SliceChange& change,
                       int64_t n);

/// How far around k the rule reads raw values: l+h for a sliding window,
/// 0 for a cumulative one.
int64_t RawReach(const WindowSpec& spec);

/// True when (spec, fn) has a local rule for `kind` (see above).
bool HasSliceRule(const WindowSpec& spec, SeqAggFn fn, SeqChange kind);

/// Applies the rule. `old_seq` holds x̃ on AffectedRange (old numbering,
/// 0 where nothing is stored); the result holds x̃' on the same range
/// (new numbering). Requires HasSliceRule and, for MIN/MAX, at least one
/// raw value after the change.
std::vector<SeqValue> MaintainSlice(const WindowSpec& spec, SeqAggFn fn,
                                    const SliceChange& change,
                                    const RawSlice& raw,
                                    const std::vector<SeqValue>& old_seq);

}  // namespace rfv

#endif  // RFVIEW_SEQUENCE_MAINTAIN_H_
