// Merge band join: extraction of BandJoinSpec from join conditions and
// the MergeBandJoinOp runtime. See the class comment in exec/operators.h
// for the execution strategy; the extraction mirrors the recognizer
// vocabulary of TryExtractIndexProbe (exec/join.cc) but targets the
// sorted-right-side merge instead of an ordered index, so it also works
// when no index exists and turns the paper's disjunctive stride
// predicates (Figures 10/13) into congruence-class enumeration instead
// of hull scans.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "common/metrics_registry.h"
#include "exec/operators.h"
#include "exec/vector_eval.h"
#include "expr/builder.h"
#include "expr/eval.h"
#include "plan/planner.h"

namespace rfv {

namespace {

Counter* BandJoinRowsCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter(
      "rfv_band_join_rows_total", {},
      "Rows emitted by merge band join operators");
  return c;
}

/// Floored (mathematical) modulo, matching the evaluator's MOD: the
/// result takes the divisor's sign, so a == b (mod w) exactly when
/// FlooredMod(a, w) == FlooredMod(b, w).
int64_t FlooredMod(int64_t a, int64_t w) {
  int64_t m = a % w;
  if (m != 0 && ((m < 0) != (w < 0))) m += w;
  return m;
}

/// If `expr` is `colref(column)` or `colref(column) ± <int literal>`,
/// returns the offset d with expr = col + d (Fig. 2/4 IN-candidates).
std::optional<int64_t> AffineOffset(const Expr& expr, size_t column) {
  if (expr.kind == ExprKind::kColumnRef) {
    return expr.column_index == column ? std::optional<int64_t>(0)
                                       : std::nullopt;
  }
  if (expr.kind == ExprKind::kBinary &&
      (expr.binary_op == BinaryOp::kAdd || expr.binary_op == BinaryOp::kSub)) {
    const Expr& lhs = *expr.children[0];
    const Expr& rhs = *expr.children[1];
    if (lhs.kind == ExprKind::kColumnRef && lhs.column_index == column &&
        rhs.kind == ExprKind::kLiteral &&
        rhs.literal.type() == DataType::kInt64) {
      const int64_t d = rhs.literal.AsInt();
      return expr.binary_op == BinaryOp::kAdd ? d : -d;
    }
    if (expr.binary_op == BinaryOp::kAdd && rhs.kind == ExprKind::kColumnRef &&
        rhs.column_index == column && lhs.kind == ExprKind::kLiteral &&
        lhs.literal.type() == DataType::kInt64) {
      return lhs.literal.AsInt();
    }
  }
  return std::nullopt;
}

/// `MOD(e, w)` with a positive int literal w: returns (e, w).
std::optional<std::pair<const Expr*, int64_t>> AsModCall(const Expr& expr) {
  if (expr.kind != ExprKind::kFunction || expr.function != ScalarFn::kMod ||
      expr.children.size() != 2) {
    return std::nullopt;
  }
  const Expr& divisor = *expr.children[1];
  if (divisor.kind != ExprKind::kLiteral ||
      divisor.literal.type() != DataType::kInt64) {
    return std::nullopt;
  }
  const int64_t w = divisor.literal.AsInt();
  if (w <= 0) return std::nullopt;  // MOD-by-zero stays an interpreter error
  return std::make_pair(expr.children[0].get(), w);
}

/// Folds one conjunct into the band under construction. Returns false
/// when the conjunct is not representable (or would conflict with what
/// the band already holds); the caller leaves it for the residual.
bool FoldConjunct(const Expr& conjunct, size_t left_width, size_t abs_col,
                  BandSpec* band) {
  const auto is_left_only = [&](const Expr& e) {
    return RefsOnlyRange(e, 0, left_width);
  };
  const auto is_key_col = [&](const Expr& e) {
    return e.kind == ExprKind::kColumnRef && e.column_index == abs_col;
  };

  switch (conjunct.kind) {
    case ExprKind::kBinary: {
      const Expr& lhs = *conjunct.children[0];
      const Expr& rhs = *conjunct.children[1];
      BinaryOp op = conjunct.binary_op;

      // Congruence: MOD(left expr, w) = MOD(key, w), either orientation.
      if (op == BinaryOp::kEq) {
        const auto lmod = AsModCall(lhs);
        const auto rmod = AsModCall(rhs);
        if (lmod.has_value() && rmod.has_value() &&
            lmod->second == rmod->second) {
          const Expr* key_side = nullptr;
          const Expr* anchor_side = nullptr;
          if (is_key_col(*lmod->first) && is_left_only(*rmod->first)) {
            key_side = lmod->first;
            anchor_side = rmod->first;
          } else if (is_key_col(*rmod->first) && is_left_only(*lmod->first)) {
            key_side = rmod->first;
            anchor_side = lmod->first;
          }
          if (key_side != nullptr) {
            if (band->modulus != 0) return false;  // one congruence per band
            band->anchor = anchor_side->Clone();
            band->modulus = lmod->second;
            return true;
          }
          return false;
        }
      }

      const Expr* other = nullptr;
      if (is_key_col(lhs) && is_left_only(rhs)) {
        other = &rhs;
      } else if (is_key_col(rhs) && is_left_only(lhs)) {
        other = &lhs;
        switch (op) {  // mirror: e <op> key  ⇔  key <mirror(op)> e
          case BinaryOp::kLt: op = BinaryOp::kGt; break;
          case BinaryOp::kLe: op = BinaryOp::kGe; break;
          case BinaryOp::kGt: op = BinaryOp::kLt; break;
          case BinaryOp::kGe: op = BinaryOp::kLe; break;
          default: break;
        }
      } else {
        return false;
      }

      switch (op) {
        case BinaryOp::kEq:
          if (band->lo != nullptr || band->hi != nullptr) return false;
          band->lo = other->Clone();
          band->hi = other->Clone();
          band->is_point = true;
          return true;
        case BinaryOp::kLe:
        case BinaryOp::kLt:
          if (band->hi != nullptr) return false;
          band->hi = other->Clone();
          band->hi_strict = (op == BinaryOp::kLt);
          return true;
        case BinaryOp::kGe:
        case BinaryOp::kGt:
          if (band->lo != nullptr) return false;
          band->lo = other->Clone();
          band->lo_strict = (op == BinaryOp::kGt);
          return true;
        default:
          return false;
      }
    }
    case ExprKind::kBetween: {
      if (!is_key_col(*conjunct.children[0])) return false;
      if (!is_left_only(*conjunct.children[1]) ||
          !is_left_only(*conjunct.children[2])) {
        return false;
      }
      if (band->lo != nullptr || band->hi != nullptr) return false;
      band->lo = conjunct.children[1]->Clone();
      band->hi = conjunct.children[2]->Clone();
      return true;
    }
    default:
      return false;
  }
}

/// Expands `key IN (left exprs)` / `left expr IN (key ± c, ...)` into
/// one point band per candidate. Returns false when the conjunct is not
/// a recognizable IN on the key column.
bool ExpandInConjunct(const Expr& conjunct, size_t left_width, size_t abs_col,
                      std::vector<BandSpec>* out) {
  if (conjunct.kind != ExprKind::kIn) return false;
  const auto is_left_only = [&](const Expr& e) {
    return RefsOnlyRange(e, 0, left_width);
  };
  const Expr& needle = *conjunct.children[0];
  std::vector<BandSpec> bands;
  if (needle.kind == ExprKind::kColumnRef && needle.column_index == abs_col) {
    for (size_t i = 1; i < conjunct.children.size(); ++i) {
      if (!is_left_only(*conjunct.children[i])) return false;
      BandSpec b;
      b.lo = conjunct.children[i]->Clone();
      b.hi = conjunct.children[i]->Clone();
      b.is_point = true;
      bands.push_back(std::move(b));
    }
  } else if (is_left_only(needle)) {
    for (size_t i = 1; i < conjunct.children.size(); ++i) {
      const std::optional<int64_t> d =
          AffineOffset(*conjunct.children[i], abs_col);
      if (!d.has_value()) return false;
      BandSpec b;
      b.lo = eb::Sub(needle.Clone(), eb::Int(*d));
      b.hi = b.lo->Clone();
      b.is_point = true;
      bands.push_back(std::move(b));
    }
  } else {
    return false;
  }
  if (bands.empty()) return false;
  *out = std::move(bands);
  return true;
}

bool BandHasShape(const BandSpec& band) {
  return band.lo != nullptr || band.hi != nullptr || band.modulus != 0;
}

/// Extraction for one candidate key column. `approximate` is set when
/// an OR branch carried conjuncts that could not be folded (the bands
/// then over-approximate and the caller must re-check the condition).
std::optional<BandJoinSpec> ExtractForKeyColumn(const Expr& condition,
                                                size_t left_width,
                                                size_t abs_col,
                                                size_t table_col) {
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(condition.Clone(), &conjuncts);

  BandSpec base;
  bool base_used = false;
  std::vector<BandSpec> in_bands;
  std::vector<BandSpec> or_bands;
  bool or_approx = false;

  for (ExprPtr& conjunct : conjuncts) {
    if (FoldConjunct(*conjunct, left_width, abs_col, &base)) {
      base_used = true;
      conjunct.reset();
      continue;
    }
    if (in_bands.empty() &&
        ExpandInConjunct(*conjunct, left_width, abs_col, &in_bands)) {
      conjunct.reset();
      continue;
    }
    if (or_bands.empty() && conjunct->kind == ExprKind::kBinary &&
        conjunct->binary_op == BinaryOp::kOr) {
      // Each OR branch must yield a band of its own; a branch with
      // unfoldable extras widens (superset) and forces a recheck.
      std::vector<const Expr*> leaves;
      std::vector<const Expr*> stack = {conjunct.get()};
      while (!stack.empty()) {
        const Expr* e = stack.back();
        stack.pop_back();
        if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kOr) {
          stack.push_back(e->children[0].get());
          stack.push_back(e->children[1].get());
        } else {
          leaves.push_back(e);
        }
      }
      std::vector<BandSpec> branches;
      bool branches_ok = true;
      bool leftovers = false;
      for (const Expr* leaf : leaves) {
        std::vector<ExprPtr> branch_conjuncts;
        SplitConjuncts(leaf->Clone(), &branch_conjuncts);
        BandSpec branch;
        for (const ExprPtr& bc : branch_conjuncts) {
          if (!FoldConjunct(*bc, left_width, abs_col, &branch)) {
            leftovers = true;
          }
        }
        if (!BandHasShape(branch)) {
          branches_ok = false;  // this branch admits arbitrary keys
          break;
        }
        branches.push_back(std::move(branch));
      }
      if (branches_ok) {
        or_bands = std::move(branches);
        or_approx = leftovers;
        conjunct.reset();
        continue;
      }
    }
    // Unrecognized conjunct: stays in the residual.
  }

  // Exactly one band source keeps the semantics obvious; the paper's
  // patterns never mix them.
  int sources = (base_used ? 1 : 0) + (in_bands.empty() ? 0 : 1) +
                (or_bands.empty() ? 0 : 1);
  if (sources != 1) return std::nullopt;

  BandJoinSpec spec;
  spec.right_column = table_col;
  if (base_used) {
    spec.bands.push_back(std::move(base));
  } else if (!in_bands.empty()) {
    spec.bands = std::move(in_bands);
  } else {
    spec.bands = std::move(or_bands);
    spec.approximate = or_approx;
  }

  // Decline shapes other strategies already handle better: a single
  // unconstrained point is the hash/index equi join, and a band with no
  // shape at all is the cross product.
  if (spec.bands.size() == 1) {
    const BandSpec& only = spec.bands[0];
    if (!BandHasShape(only)) return std::nullopt;
    if (only.is_point && only.modulus == 0) return std::nullopt;
    if (only.lo == nullptr && only.hi == nullptr && only.modulus == 0) {
      return std::nullopt;
    }
  }

  std::vector<ExprPtr> residual_conjuncts;
  for (ExprPtr& c : conjuncts) {
    if (c != nullptr) residual_conjuncts.push_back(std::move(c));
  }
  spec.residual = CombineConjuncts(std::move(residual_conjuncts));
  return spec;
}

}  // namespace

std::optional<BandJoinSpec> TryExtractBandJoin(const Expr& condition,
                                               size_t left_width,
                                               Table* right_table) {
  std::optional<BandJoinSpec> best;
  int best_rank = -1;
  for (size_t table_col = 0; table_col < right_table->schema().NumColumns();
       ++table_col) {
    if (right_table->schema().column(table_col).type != DataType::kInt64) {
      continue;
    }
    std::optional<BandJoinSpec> spec = ExtractForKeyColumn(
        condition, left_width, left_width + table_col, table_col);
    if (!spec.has_value()) continue;
    // Prefer stride bands (congruence prunes hardest), then multi-band,
    // then two-sided intervals, then exactness.
    int rank = 0;
    bool any_modulus = false;
    bool two_sided = true;
    for (const BandSpec& b : spec->bands) {
      any_modulus = any_modulus || b.modulus != 0;
      two_sided = two_sided && b.lo != nullptr && b.hi != nullptr;
    }
    if (any_modulus) rank += 8;
    if (spec->bands.size() > 1) rank += 4;
    if (two_sided) rank += 2;
    if (!spec->approximate) rank += 1;
    if (rank > best_rank) {
      best_rank = rank;
      best = std::move(spec);
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// MergeBandJoinOp
// ---------------------------------------------------------------------------

Status MergeBandJoinOp::OpenImpl() {
  left_valid_ = false;
  left_matched_ = false;
  candidates_.clear();
  candidate_pos_ = 0;
  right_rows_.clear();
  keys_.clear();
  dense_.clear();
  dense_valid_ = false;
  left_vp_ = nullptr;
  left_lane_pos_ = 0;
  left_input_eof_ = false;

  RFV_RETURN_IF_ERROR(left_->Open());
  RFV_RETURN_IF_ERROR(right_->Open());
  right_width_ = right_->schema().NumColumns();

  RFV_RETURN_IF_ERROR(right_->DrainTo(&right_rows_));
  NoteBufferedRows(right_rows_.size());

  keys_.reserve(right_rows_.size());
  for (size_t id = 0; id < right_rows_.size(); ++id) {
    const Value& v = right_rows_[id][spec_.right_column];
    if (v.is_null()) continue;  // NULL keys never satisfy a band
    keys_.emplace_back(v.AsInt(), id);
  }
  // Base tables in sequence order (the common case for the paper's pos
  // column) arrive already sorted — detect in O(m) and skip the sort.
  // The check runs on right_rows_, which DrainTo filled from the
  // right scan's PINNED snapshot, so the ordered-skip decision and the
  // rows it indexes are the same frozen version even when live storage
  // mutates (or compacts out of order) mid-query.
  if (!std::is_sorted(keys_.begin(), keys_.end())) {
    std::sort(keys_.begin(), keys_.end());
  }
  // Dense direct-address table when the keys are unique and contiguous
  // (a sequence's 1..n positions): point and stride probes become O(1).
  if (!keys_.empty()) {
    bool contiguous = true;
    for (size_t i = 1; i < keys_.size() && contiguous; ++i) {
      contiguous = keys_[i].first == keys_[i - 1].first + 1;
    }
    if (contiguous) {
      dense_base_ = keys_.front().first;
      dense_.resize(keys_.size());
      for (const auto& [key, id] : keys_) {
        dense_[static_cast<size_t>(key - dense_base_)] = id;
      }
      dense_valid_ = true;
    }
  }
  cursors_.assign(spec_.bands.size(), 0);
  prev_lo_.assign(spec_.bands.size(), std::numeric_limits<int64_t>::min());

  // Vector-native output: transpose the (snapshot-stable) right side
  // once into columnar gather-source lanes. The row array stays alive
  // for the row pull style.
  if (vectorized()) {
    right_vp_.Reset(right_width_, right_rows_.size());
    for (size_t id = 0; id < right_rows_.size(); ++id) {
      const Row& row = right_rows_[id];
      for (size_t c = 0; c < right_width_; ++c) {
        right_vp_.column(c).SetValue(id, row[c]);
      }
    }
  }
  return Status::OK();
}

Status MergeBandJoinOp::ResolveBand(const BandSpec& band, const Row& left_row,
                                    ResolvedBand* out) const {
  out->empty = false;
  out->lo = std::numeric_limits<int64_t>::min();
  out->hi = std::numeric_limits<int64_t>::max();
  out->modulus = 0;

  const auto resolve_bound = [&](const Expr& expr, bool strict, bool is_lo,
                                 int64_t* bound) -> Status {
    Value v;
    RFV_ASSIGN_OR_RETURN(v, Evaluator::Eval(expr, left_row));
    if (v.is_null()) {
      out->empty = true;  // comparison with NULL is never true
      return Status::OK();
    }
    if (v.type() == DataType::kInt64) {
      int64_t b = v.AsInt();
      if (strict) {
        if (is_lo) {
          if (b == std::numeric_limits<int64_t>::max()) {
            out->empty = true;
            return Status::OK();
          }
          ++b;
        } else {
          if (b == std::numeric_limits<int64_t>::min()) {
            out->empty = true;
            return Status::OK();
          }
          --b;
        }
      }
      *bound = b;
      return Status::OK();
    }
    if (v.type() == DataType::kDouble) {
      // Integer keys against a fractional bound: round inward; a strict
      // integral bound tightens by one.
      const double d = v.AsDouble();
      double rounded = is_lo ? std::ceil(d) : std::floor(d);
      if (strict && rounded == d) rounded += is_lo ? 1.0 : -1.0;
      if (is_lo && rounded < -9.2e18) rounded = -9.2e18;
      if (!is_lo && rounded > 9.2e18) rounded = 9.2e18;
      *bound = static_cast<int64_t>(rounded);
      return Status::OK();
    }
    return Status::TypeError("band join bound must be numeric");
  };

  if (band.lo != nullptr) {
    RFV_RETURN_IF_ERROR(
        resolve_bound(*band.lo, band.lo_strict, /*is_lo=*/true, &out->lo));
    if (out->empty) return Status::OK();
  }
  if (band.hi != nullptr) {
    RFV_RETURN_IF_ERROR(
        resolve_bound(*band.hi, band.hi_strict, /*is_lo=*/false, &out->hi));
    if (out->empty) return Status::OK();
  }
  if (band.modulus > 1) {
    Value a;
    RFV_ASSIGN_OR_RETURN(a, Evaluator::Eval(*band.anchor, left_row));
    if (a.is_null() || a.type() != DataType::kInt64) {
      out->empty = true;  // MOD(NULL, w) = anything is never true
      return Status::OK();
    }
    out->modulus = band.modulus;
    out->residue = FlooredMod(a.AsInt(), band.modulus);
  }
  if (out->lo > out->hi) out->empty = true;
  return Status::OK();
}

void MergeBandJoinOp::CollectBand(const ResolvedBand& band,
                                  size_t band_index) {
  if (band.empty || keys_.empty()) return;
  const int64_t lo = std::max(band.lo, keys_.front().first);
  const int64_t hi = std::min(band.hi, keys_.back().first);
  if (lo > hi) return;

  if (band.modulus > 1) {
    // Enumerate the congruence class k ≡ residue (mod w) inside
    // [lo, hi]: the paper's stride chains. Dense tables answer each
    // stride point in O(1); otherwise compare the chain length against
    // the interval population and pick the cheaper side.
    const int64_t w = band.modulus;
    const int64_t k0 = lo + FlooredMod(band.residue - lo, w);
    if (k0 > hi) return;
    if (dense_valid_) {
      for (int64_t k = k0; k <= hi; k += w) {
        candidates_.push_back(dense_[static_cast<size_t>(k - dense_base_)]);
      }
      return;
    }
    const auto range_begin = std::lower_bound(
        keys_.begin(), keys_.end(),
        std::make_pair(lo, std::numeric_limits<size_t>::min()));
    const auto range_end = std::upper_bound(
        keys_.begin(), keys_.end(),
        std::make_pair(hi, std::numeric_limits<size_t>::max()));
    const int64_t chain = (hi - k0) / w + 1;
    if (chain < range_end - range_begin) {
      auto it = range_begin;
      for (int64_t k = k0; k <= hi; k += w) {
        it = std::lower_bound(
            it, range_end,
            std::make_pair(k, std::numeric_limits<size_t>::min()));
        while (it != range_end && it->first == k) {
          candidates_.push_back(it->second);
          ++it;
        }
      }
    } else {
      for (auto it = range_begin; it != range_end; ++it) {
        if (FlooredMod(it->first, w) == band.residue) {
          candidates_.push_back(it->second);
        }
      }
    }
    return;
  }

  // Plain interval: monotone start cursor. The paper's frames move
  // forward with the left row's position, so the cursor only ever
  // advances and the whole join is one O(n + matches) merge pass; a
  // backward-moving bound falls back to binary search.
  size_t start;
  if (lo >= prev_lo_[band_index]) {
    start = cursors_[band_index];
    while (start < keys_.size() && keys_[start].first < lo) ++start;
  } else {
    start = static_cast<size_t>(
        std::lower_bound(
            keys_.begin(), keys_.end(),
            std::make_pair(lo, std::numeric_limits<size_t>::min())) -
        keys_.begin());
  }
  cursors_[band_index] = start;
  prev_lo_[band_index] = lo;
  for (size_t i = start; i < keys_.size() && keys_[i].first <= hi; ++i) {
    candidates_.push_back(keys_[i].second);
  }
}

Status MergeBandJoinOp::ResolveCandidates() {
  candidates_.clear();
  candidate_pos_ = 0;
  for (size_t i = 0; i < spec_.bands.size(); ++i) {
    ResolvedBand resolved;
    RFV_RETURN_IF_ERROR(ResolveBand(spec_.bands[i], current_left_, &resolved));
    CollectBand(resolved, i);
  }
  if (spec_.bands.size() > 1) {
    // Overlapping bands (OR semantics) must not emit a pair twice.
    std::sort(candidates_.begin(), candidates_.end());
    candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                      candidates_.end());
  }
  return Status::OK();
}

Status MergeBandJoinOp::AdvanceLeft(bool* eof) {
  RFV_RETURN_IF_ERROR(left_->Next(&current_left_, eof));
  left_valid_ = !*eof;
  left_matched_ = false;
  candidates_.clear();
  candidate_pos_ = 0;
  if (*eof) return Status::OK();
  return ResolveCandidates();
}

Status MergeBandJoinOp::NextImpl(Row* row, bool* eof) {
  while (true) {
    if (!left_valid_) {
      bool left_eof = false;
      RFV_RETURN_IF_ERROR(AdvanceLeft(&left_eof));
      if (left_eof) {
        *eof = true;
        return Status::OK();
      }
    }
    while (candidate_pos_ < candidates_.size()) {
      const size_t right_id = candidates_[candidate_pos_++];
      Row joined = Row::Concat(current_left_, right_rows_[right_id]);
      bool match = true;
      if (spec_.residual != nullptr) {
        RFV_ASSIGN_OR_RETURN(
            match, Evaluator::EvalPredicate(*spec_.residual, joined));
      }
      if (match) {
        left_matched_ = true;
        BandJoinRowsCounter()->Increment();
        *row = std::move(joined);
        *eof = false;
        return Status::OK();
      }
    }
    if (join_type_ == JoinType::kLeftOuter && !left_matched_) {
      Row joined = current_left_;
      for (size_t i = 0; i < right_width_; ++i) joined.Append(Value::Null());
      left_valid_ = false;
      *row = std::move(joined);
      *eof = false;
      return Status::OK();
    }
    left_valid_ = false;
  }
}

Status MergeBandJoinOp::NextVectorImpl(VectorProjection** out, bool* eof) {
  // The native path is only wired up when the planner stamped this
  // operator vectorized (right_vp_ exists then); a direct NextVector on
  // an unstamped instance keeps the transpose-fallback behavior.
  if (!vectorized()) return PhysicalOperator::NextVectorImpl(out, eof);

  const size_t left_width = left_->schema().NumColumns();
  out_vp_.Reset(left_width + right_width_, vector_capacity_);
  size_t filled = 0;
  int64_t matched = 0;

  while (filled < vector_capacity_) {
    if (!left_valid_) {
      // Advance to the next left lane, pulling fresh left input as
      // needed. Drain-first: the final child vector may be non-empty
      // with eof already set.
      while (left_vp_ == nullptr ||
             left_lane_pos_ >= left_vp_->NumSelected()) {
        if (left_input_eof_) goto drained;
        bool child_eof = false;
        RFV_RETURN_IF_ERROR(left_->NextVector(&left_vp_, &child_eof));
        left_input_eof_ = child_eof;
        left_lane_pos_ = 0;
        if (left_vp_ != nullptr && left_vp_->NumSelected() == 0) {
          left_vp_ = nullptr;
        }
      }
      current_lane_ = left_vp_->sel()[left_lane_pos_++];
      // The band bounds are per-left-row scalars: resolve them on the
      // materialized row (O(left rows), not O(matches) — the match
      // emission below never boxes).
      left_vp_->MaterializeRow(current_lane_, &current_left_);
      left_valid_ = true;
      left_matched_ = false;
      RFV_RETURN_IF_ERROR(ResolveCandidates());
      if (spec_.residual != nullptr && !candidates_.empty()) {
        RFV_RETURN_IF_ERROR(FilterJoinCandidates(*spec_.residual, *left_vp_,
                                                 current_lane_, right_vp_,
                                                 &residual_scratch_,
                                                 &candidates_));
      }
      left_matched_ = !candidates_.empty();
    }
    if (candidate_pos_ < candidates_.size()) {
      const size_t run = std::min(vector_capacity_ - filled,
                                  candidates_.size() - candidate_pos_);
      GatherJoinRun(*left_vp_, current_lane_, right_vp_, candidates_,
                    candidate_pos_, run, filled, &out_vp_);
      candidate_pos_ += run;
      filled += run;
      matched += static_cast<int64_t>(run);
      if (candidate_pos_ >= candidates_.size()) left_valid_ = false;
      continue;
    }
    if (join_type_ == JoinType::kLeftOuter && !left_matched_) {
      GatherNullPaddedRow(*left_vp_, current_lane_, right_width_, filled,
                          &out_vp_);
      ++filled;
    }
    left_valid_ = false;
  }

drained:
  out_vp_.sel().Truncate(filled);
  if (matched > 0) BandJoinRowsCounter()->Increment(matched);
  *out = &out_vp_;
  *eof = left_input_eof_ && !left_valid_ &&
         (left_vp_ == nullptr || left_lane_pos_ >= left_vp_->NumSelected());
  return Status::OK();
}

}  // namespace rfv
