#include "sequence/maintain.h"

#include <algorithm>

#include "common/logging.h"
#include "sequence/compute.h"

namespace rfv {

namespace {

/// The raw slice after `change`: x_k replaced, inserted or removed.
RawSlice ApplyChange(const RawSlice& raw, const SliceChange& change) {
  RawSlice out = raw;
  const auto at = out.values.begin() + (change.k - raw.first);
  switch (change.kind) {
    case SeqChange::kUpdate:
      *at = change.value;
      break;
    case SeqChange::kInsert:
      out.values.insert(at, change.value);
      ++out.n;
      break;
    case SeqChange::kDelete:
      out.values.erase(at);
      --out.n;
      break;
  }
  return out;
}

}  // namespace

SeqValue RawSlice::at(int64_t p) const {
  if (p < 1 || p > n) return 0;
  RFV_CHECK(p >= first && p - first < static_cast<int64_t>(values.size()));
  return values[static_cast<size_t>(p - first)];
}

SeqRange AffectedRange(const WindowSpec& spec, const SliceChange& change,
                       int64_t n) {
  if (spec.is_cumulative()) return {change.k, n};
  const int64_t last = change.k + spec.l();
  return {change.k - spec.h(),
          change.kind == SeqChange::kDelete ? last - 1 : last};
}

int64_t RawReach(const WindowSpec& spec) {
  return spec.is_sliding() ? spec.l() + spec.h() : 0;
}

bool HasSliceRule(const WindowSpec& spec, SeqAggFn fn, SeqChange kind) {
  return spec.is_sliding() ||
         (fn == SeqAggFn::kSum && kind == SeqChange::kUpdate);
}

std::vector<SeqValue> MaintainSlice(const WindowSpec& spec, SeqAggFn fn,
                                    const SliceChange& change,
                                    const RawSlice& raw,
                                    const std::vector<SeqValue>& old_seq) {
  RFV_CHECK(HasSliceRule(spec, fn, change.kind));
  const SeqRange range = AffectedRange(spec, change, raw.n);
  RFV_CHECK(static_cast<int64_t>(old_seq.size()) == range.size());
  const int64_t k = change.k;
  std::vector<SeqValue> out = old_seq;
  if (fn == SeqAggFn::kSum) {
    const SeqValue delta = change.value - raw.at(k);
    for (int64_t i = range.first; i <= range.last; ++i) {
      SeqValue& v = out[static_cast<size_t>(i - range.first)];
      switch (change.kind) {
        case SeqChange::kUpdate:
          v += delta;
          break;
        case SeqChange::kInsert:
          v = change.value + v - raw.at(i + spec.h());
          break;
        case SeqChange::kDelete:
          v = v - raw.at(k) + raw.at(i + spec.h() + 1);
          break;
      }
    }
    return out;
  }
  const bool is_min = fn == SeqAggFn::kMin;
  if (change.kind == SeqChange::kUpdate &&
      (is_min ? change.value <= raw.at(k) : change.value >= raw.at(k))) {
    // Paper §2.3 footnote: an update that improves the extreme enters
    // every affected window as min(x̃_i, x'_k) / max(x̃_i, x'_k).
    for (SeqValue& v : out) {
      v = is_min ? std::min(v, change.value) : std::max(v, change.value);
    }
    return out;
  }
  // The change may retire the current extreme: rescan the windows.
  const RawSlice changed = ApplyChange(raw, change);
  return SlidingMinMax(changed.values, changed.first, changed.n, spec, is_min,
                       range.first, range.last);
}

}  // namespace rfv
