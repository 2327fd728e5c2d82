#include "sequence/compute.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"

namespace rfv {

namespace {

/// Raw value accessor with the paper's convention x_i = 0 outside [1, n].
inline SeqValue RawAt(const std::vector<SeqValue>& x, int64_t i) {
  if (i < 1 || i > static_cast<int64_t>(x.size())) return 0;
  return x[static_cast<size_t>(i - 1)];
}

}  // namespace

std::vector<SeqValue> ComputeSlidingNaive(const std::vector<SeqValue>& x,
                                          const WindowSpec& spec) {
  RFV_CHECK(spec.is_sliding());
  const int64_t n = static_cast<int64_t>(x.size());
  std::vector<SeqValue> out(static_cast<size_t>(n), 0);
  for (int64_t k = 1; k <= n; ++k) {
    SeqValue sum = 0;
    for (int64_t i = k - spec.l(); i <= k + spec.h(); ++i) {
      sum += RawAt(x, i);
    }
    out[static_cast<size_t>(k - 1)] = sum;
  }
  return out;
}

std::vector<SeqValue> SlidingMinMax(const std::vector<SeqValue>& x,
                                    int64_t x_first, int64_t n,
                                    const WindowSpec& spec, bool is_min,
                                    int64_t from, int64_t to) {
  RFV_CHECK(spec.is_sliding());
  std::vector<SeqValue> out;
  out.reserve(static_cast<size_t>(std::max<int64_t>(to - from + 1, 0)));
  int64_t next = std::max<int64_t>(from - spec.l(), 1);  // next to admit
  const int64_t last_read = std::min(to + spec.h(), n);
  RFV_CHECK(next > last_read ||
            (next >= x_first &&
             last_read - x_first < static_cast<int64_t>(x.size())));
  // Monotone deque of (position, value); the front is the window extreme.
  std::deque<std::pair<int64_t, SeqValue>> mono;
  for (int64_t k = from; k <= to; ++k) {
    for (const int64_t hi = std::min(k + spec.h(), n); next <= hi; ++next) {
      const SeqValue v = x[static_cast<size_t>(next - x_first)];
      while (!mono.empty() &&
             (is_min ? mono.back().second >= v : mono.back().second <= v)) {
        mono.pop_back();
      }
      mono.emplace_back(next, v);
    }
    while (!mono.empty() && mono.front().first < k - spec.l()) {
      mono.pop_front();
    }
    RFV_CHECK(!mono.empty());
    out.push_back(mono.front().second);
  }
  return out;
}

Sequence BuildCompleteSequence(const std::vector<SeqValue>& x,
                               const WindowSpec& spec, SeqAggFn fn) {
  const int64_t n = static_cast<int64_t>(x.size());
  if (spec.is_cumulative()) {
    // One running fold: x̃_1 = x_1, x̃_k = x̃_{k-1} ⊕ x_k.
    std::vector<SeqValue> values(x);
    for (size_t i = 1; i < values.size(); ++i) {
      const SeqValue prev = values[i - 1];
      SeqValue& v = values[i];
      v = fn == SeqAggFn::kSum   ? prev + v
          : fn == SeqAggFn::kMin ? std::min(prev, v)
                                 : std::max(prev, v);
    }
    return Sequence(spec, fn, n, 1, std::move(values));
  }

  // Sliding: the extended range [-h+1, n+l]. Every header and trailer
  // position has a window that overlaps [1, n] — that is precisely the
  // definition of the header/trailer extent.
  if (n == 0) {
    return Sequence(spec, fn, 0, 1, {});
  }
  const int64_t first = -spec.h() + 1;
  const int64_t last = n + spec.l();
  if (fn != SeqAggFn::kSum) {
    return Sequence(spec, fn, n, first,
                    SlidingMinMax(x, 1, n, spec, fn == SeqAggFn::kMin, first,
                                  last));
  }
  // Pipelined sweep: seed x̃_first explicitly, then apply the recursion.
  std::vector<SeqValue> values(static_cast<size_t>(last - first + 1), 0);
  SeqValue running = 0;
  for (int64_t i = first - spec.l(); i <= first + spec.h(); ++i) {
    running += RawAt(x, i);
  }
  values[0] = running;
  for (int64_t k = first + 1; k <= last; ++k) {
    running += RawAt(x, k + spec.h()) - RawAt(x, k - spec.l() - 1);
    values[static_cast<size_t>(k - first)] = running;
  }
  return Sequence(spec, fn, n, first, std::move(values));
}

}  // namespace rfv
