#ifndef RFVIEW_SEQUENCE_COMPUTE_H_
#define RFVIEW_SEQUENCE_COMPUTE_H_

#include <vector>

#include "common/status.h"
#include "sequence/sequence.h"

namespace rfv {

/// Sequence computation (paper §2.2).
///
/// Raw data is x[0..n-1] = x_1..x_n (0-based storage of 1-based paper
/// positions); values outside are zero.

/// Naive explicit form: x̃_k = F{x_{k-l}, ..., x_{k+h}} — O(n·w)
/// operations, the cost profile of the paper's relational self-join
/// mapping (Fig. 2). The reference the tests check the fast paths
/// against.
std::vector<SeqValue> ComputeSlidingNaive(const std::vector<SeqValue>& x,
                                          const WindowSpec& spec);

/// Sliding MIN/MAX x̃_k for k in [from, to], one monotone-deque sweep
/// (O(to - from + w)). Each window [k-l, k+h] is clipped to [1, n] (SQL
/// frame semantics: unlike SUM, zero padding would corrupt the extreme)
/// and must hold at least one position. `x` holds x_p at index
/// p - x_first and must cover every clipped window; it is read in
/// place, never copied. Shared by BuildCompleteSequence and the §2.3
/// slice rules (maintain.h).
std::vector<SeqValue> SlidingMinMax(const std::vector<SeqValue>& x,
                                    int64_t x_first, int64_t n,
                                    const WindowSpec& spec, bool is_min,
                                    int64_t from, int64_t to);

/// Builds a *complete* sequence (header -h+1..0 and trailer n+1..n+l
/// included, paper §3.2) over raw data x_1..x_n — the one producer of
/// materialized sequences. Sliding SUM runs the §2.2 pipelined recursion
/// x̃_k = x̃_{k-1} + x_{k+h} - x_{k-l-1} (3 operations per position,
/// independent of w) across [-h+1, n+l]; sliding MIN/MAX runs
/// SlidingMinMax over the same range. Cumulative sequences are one
/// running fold (SUM, or running MIN/MAX) and store [1, n] (header is
/// identically 0, trailer saturates at x̃_n).
Sequence BuildCompleteSequence(const std::vector<SeqValue>& x,
                               const WindowSpec& spec, SeqAggFn fn);

}  // namespace rfv

#endif  // RFVIEW_SEQUENCE_COMPUTE_H_
