#ifndef RFVIEW_SEQUENCE_SEQUENCE_H_
#define RFVIEW_SEQUENCE_SEQUENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sequence/window_spec.h"

namespace rfv {

/// Value type of the sequence algebra. Sums of integer raw data stay
/// exact (doubles represent integers up to 2^53 exactly and the
/// algorithms only add/subtract), and AVG/derived statistics need
/// fractional values.
using SeqValue = double;

/// A materialized *complete* simple sequence (paper §2.1/§3.2): the
/// values x̃_k of window aggregates over raw data x_1..x_n, including the
/// header positions -h+1..0 and trailer positions n+1..n+l whose windows
/// still overlap [1, n]. Raw values outside [1, n] are zero, so every
/// x̃_k outside the stored range is zero for SUM (and "no value" for
/// MIN/MAX).
///
/// Completeness is exactly what the derivation algorithms (§4 MaxOA,
/// §5 MinOA) require: without header and trailer the boundary values of
/// a derived sequence are unrecoverable.
class Sequence {
 public:
  /// Builds a sequence from values stored for positions
  /// [first_pos, first_pos + values.size() - 1]. `n` is the raw-data
  /// cardinality. Use compute.h factories instead of calling this
  /// directly.
  Sequence(WindowSpec spec, SeqAggFn fn, int64_t n, int64_t first_pos,
           std::vector<SeqValue> values)
      : spec_(spec),
        fn_(fn),
        n_(n),
        first_pos_(first_pos),
        values_(std::move(values)) {}

  const WindowSpec& spec() const { return spec_; }
  SeqAggFn fn() const { return fn_; }
  /// Raw-data cardinality n.
  int64_t n() const { return n_; }

  /// Lowest / highest stored position (header start / trailer end).
  int64_t first_pos() const { return first_pos_; }
  int64_t last_pos() const {
    return first_pos_ + static_cast<int64_t>(values_.size()) - 1;
  }

  /// Sequence value at position k; 0 outside the stored range (the SUM
  /// of an empty window — callers working with MIN/MAX must stay inside
  /// the stored range, which derivations for MIN/MAX do by construction).
  SeqValue at(int64_t k) const {
    if (k < first_pos() || k > last_pos()) return 0;
    return values_[static_cast<size_t>(k - first_pos_)];
  }

  /// True when [first_pos, last_pos] covers the full header/trailer
  /// extent of the window spec (paper Definition "Complete Simple
  /// Sequence").
  bool IsComplete() const;

  /// Values on the query range [1, n] only (test convenience).
  std::vector<SeqValue> BodyValues() const;

  std::string ToString() const;

 private:
  WindowSpec spec_;
  SeqAggFn fn_;
  int64_t n_;
  int64_t first_pos_;
  std::vector<SeqValue> values_;
};

}  // namespace rfv

#endif  // RFVIEW_SEQUENCE_SEQUENCE_H_
