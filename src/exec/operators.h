#ifndef RFVIEW_EXEC_OPERATORS_H_
#define RFVIEW_EXEC_OPERATORS_H_

// Internal header: physical operator classes. Users of the library go
// through exec/executor.h (BuildPhysicalPlan / ExecutePlan); these
// classes are exposed for white-box tests.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/epoch.h"
#include "exec/executor.h"
#include "expr/expr.h"
#include "storage/table.h"
#include "storage/table_snapshot.h"

namespace rfv {

/// Full scan over a base table. Open pins the table's committed
/// snapshot (chunked copy-on-write image) plus a reader epoch, so the
/// scan reads a stable statement-granular image of the table in both
/// pull styles while concurrent DML mutates the live row store.
/// Close releases the pin, letting the EpochManager reclaim superseded
/// snapshots.
class TableScanOp : public PhysicalOperator {
 public:
  TableScanOp(Schema schema, Table* table)
      : PhysicalOperator(std::move(schema)), table_(table) {}
  const char* name() const override { return "scan"; }
  bool VectorNative() const override { return true; }

  Table* table() const { return table_; }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  Table* table_;
  size_t pos_ = 0;
  /// The stable image this scan reads; pinned in OpenImpl.
  TableSnapshotPtr snap_;
  /// Reader epoch pin held for the scan's lifetime.
  EpochGuard epoch_guard_{nullptr};
  /// Vector path: the projection handed to NextVector callers.
  VectorProjection vp_;
};

class FilterOp : public PhysicalOperator {
 public:
  FilterOp(Schema schema, PhysicalOperatorPtr child, ExprPtr predicate)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        predicate_(std::move(predicate)) {}
  const char* name() const override { return "filter"; }
  bool VectorNative() const override { return true; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
  /// Zero-copy: narrows the child projection's selection vector in place
  /// and passes the projection through.
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  PhysicalOperatorPtr child_;
  ExprPtr predicate_;
};

class ProjectOp : public PhysicalOperator {
 public:
  ProjectOp(Schema schema, PhysicalOperatorPtr child,
            std::vector<ExprPtr> projections)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        projections_(std::move(projections)) {}
  const char* name() const override { return "project"; }
  bool VectorNative() const override { return true; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  PhysicalOperatorPtr child_;
  std::vector<ExprPtr> projections_;
  /// Vector path: output columns evaluated from the child projection;
  /// shares the child's row positions and selection.
  VectorProjection out_vp_;
};

/// Nested-loop join: materializes the right input once, then scans it
/// per left row. Supports inner, cross and left outer joins with an
/// arbitrary residual condition — the fallback the paper's "self join
/// method **without** index" rows in Table 1 exercise.
class NestedLoopJoinOp : public PhysicalOperator {
 public:
  NestedLoopJoinOp(Schema schema, PhysicalOperatorPtr left,
                   PhysicalOperatorPtr right, ExprPtr condition,
                   JoinType join_type)
      : PhysicalOperator(std::move(schema)),
        left_(std::move(left)),
        right_(std::move(right)),
        condition_(std::move(condition)),
        join_type_(join_type) {}
  const char* name() const override { return "nested_loop_join"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(left_.get());
    out->push_back(right_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;

 private:
  Status AdvanceLeft(bool* eof);

  PhysicalOperatorPtr left_;
  PhysicalOperatorPtr right_;
  ExprPtr condition_;
  JoinType join_type_;

  std::vector<Row> right_rows_;
  Row current_left_;
  bool left_valid_ = false;
  bool left_matched_ = false;
  size_t right_pos_ = 0;
  size_t right_width_ = 0;
};

/// Probe specification for an index nested-loop join: how to derive,
/// from each left row, the key set to look up in the right table's
/// ordered index. Produced by TryExtractIndexProbe (exec/join.cc).
struct IndexProbeSpec {
  /// Right-table column (table-local index) the probes address.
  size_t right_column = 0;

  /// Point probes: each expression (bound over the LEFT schema) yields
  /// one key; a right row qualifies when its key equals any of them.
  std::vector<ExprPtr> point_exprs;

  /// Range probe (used when point_exprs is empty): optional bounds,
  /// inclusive. Bound expressions are bound over the LEFT schema.
  ExprPtr range_lo;
  ExprPtr range_hi;

  /// True when the probe is a superset of the join condition and the
  /// full condition must be re-checked on each candidate (e.g. strict
  /// `<` relaxed to `<=`, or a disjunctive condition widened to its
  /// column hull). When false the probe is exact and the condition
  /// conjuncts it covers were already removed from `residual`.
  bool approximate = true;

  /// Condition to evaluate on each joined candidate row; null = accept.
  ExprPtr residual;
};

/// Attempts to turn `condition` (bound over the joined schema, left
/// width `left_width`) into an index probe on an indexed column of
/// `right_table`. Returns nullopt when no usable pattern is found.
///
/// Recognized per-conjunct patterns on an indexed right column rc:
///   rc = <left expr>                      → exact point
///   rc IN (<left exprs>)                  → exact points
///   <left expr> IN (rc ± const, ...)      → exact points (inverted form,
///                                           paper Fig. 2/4 predicates)
///   rc BETWEEN <left lo> AND <left hi>    → exact range
///   rc < / <= / > / >= <left expr>        → approximate one-sided range
///   OR of branches each yielding a probe on rc
///                                         → approximate union/hull probe
std::optional<IndexProbeSpec> TryExtractIndexProbe(const Expr& condition,
                                                   size_t left_width,
                                                   Table* right_table);

/// Index nested-loop join: per left row, probes an ordered index on the
/// right base table — the paper's "with primary key index" execution
/// paths in Tables 1 and 2.
class IndexNestedLoopJoinOp : public PhysicalOperator {
 public:
  IndexNestedLoopJoinOp(Schema schema, PhysicalOperatorPtr left,
                        Table* right_table, Schema right_schema,
                        IndexProbeSpec spec, JoinType join_type)
      : PhysicalOperator(std::move(schema)),
        left_(std::move(left)),
        right_table_(right_table),
        right_schema_(std::move(right_schema)),
        spec_(std::move(spec)),
        join_type_(join_type) {}
  const char* name() const override { return "index_nested_loop_join"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(left_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;

 private:
  Status AdvanceLeft(bool* eof);

  PhysicalOperatorPtr left_;
  Table* right_table_;
  Schema right_schema_;
  IndexProbeSpec spec_;
  JoinType join_type_;

  OrderedIndex* index_ = nullptr;
  Row current_left_;
  bool left_valid_ = false;
  bool left_matched_ = false;
  std::vector<size_t> candidates_;
  size_t candidate_pos_ = 0;
};

/// One band of a merge band join: the set of right-side keys a left row
/// joins with, described as an inclusive integer interval plus an
/// optional congruence (stride) constraint. All expressions are bound
/// over the LEFT schema.
struct BandSpec {
  /// Interval bounds; null = unbounded on that side. A NULL bound value
  /// at runtime makes the band empty (SQL comparison semantics).
  ExprPtr lo;
  ExprPtr hi;
  /// True when the source conjunct was strict (`<` / `>`): the evaluated
  /// integer bound is tightened by one at runtime.
  bool lo_strict = false;
  bool hi_strict = false;
  /// Congruence constraint `MOD(anchor, modulus) = MOD(key, modulus)`:
  /// only keys congruent to the anchor survive. modulus == 0 = none.
  /// MOD is the engine's floored modulo, so congruence-class enumeration
  /// is exact for negative keys too.
  ExprPtr anchor;
  int64_t modulus = 0;
  /// lo and hi are the same single point (`rc = e` / IN candidates).
  bool is_point = false;
};

/// Merge band join plan: each left row matches right rows whose key
/// column falls in ANY of the bands (the bands are the branches of the
/// paper's disjunctive MaxOA/MinOA join predicates). Produced by
/// TryExtractBandJoin (exec/band_join.cc).
struct BandJoinSpec {
  /// Right-table column (table-local index) holding the band key; gated
  /// to DataType::kInt64.
  size_t right_column = 0;
  std::vector<BandSpec> bands;
  /// True when the bands over-approximate the condition (an OR branch
  /// carried conjuncts the extractor could not fold into the band); the
  /// full original condition is then re-checked per candidate.
  bool approximate = false;
  /// Condition to evaluate on each joined candidate row; null = accept.
  /// When `approximate`, this is the full original join condition.
  ExprPtr residual;
};

/// Attempts to turn `condition` into a band join on an INTEGER column of
/// `right_table`. Returns nullopt when no band shape is found, or when
/// the shape is one the hash/index joins already handle better (a single
/// equality point and nothing else).
///
/// Recognized per-conjunct shapes on an int64 right column rc:
///   rc BETWEEN lo AND hi / rc <op> e       → interval band
///   rc = e / rc IN (...) / e IN (rc ± c)   → point bands
///   MOD(e, w) = MOD(rc, w)                 → congruence on the band
///   OR of branches, each an AND of the above → one band per branch
std::optional<BandJoinSpec> TryExtractBandJoin(const Expr& condition,
                                               size_t left_width,
                                               Table* right_table);

/// Merge band join: materializes the right input once into a sorted
/// (key, row) array — skipping the sort when the input is already in key
/// order — then resolves each left row's bands against it with monotone
/// start cursors (O(n + matches) for the paper's forward-moving frames),
/// binary-search fallback for non-monotone bounds, and congruence-class
/// stride enumeration for the MaxOA/MinOA partitioned patterns. This is
/// the linear-time execution strategy for the Fig. 2/10/13 self-join
/// patterns; selected ahead of the index nested-loop probe when the
/// condition has band shape.
class MergeBandJoinOp : public PhysicalOperator {
 public:
  MergeBandJoinOp(Schema schema, PhysicalOperatorPtr left,
                  PhysicalOperatorPtr right, BandJoinSpec spec,
                  JoinType join_type)
      : PhysicalOperator(std::move(schema)),
        left_(std::move(left)),
        right_(std::move(right)),
        spec_(std::move(spec)),
        join_type_(join_type) {}
  const char* name() const override { return "merge_band_join"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(left_.get());
    out->push_back(right_.get());
  }
  /// Native columnar output: candidate runs from the monotone band
  /// cursors are gathered column-wise into pooled output lanes
  /// (band_join.cc NextVectorImpl) instead of transposing per-row
  /// concatenations.
  bool VectorNative() const override { return true; }
  /// Test hook: shrinks the native vector path's output capacity so
  /// tests can force candidate runs to split across output vectors.
  void SetVectorOutputCapacityForTest(size_t cap) {
    vector_capacity_ = cap == 0 ? 1 : cap;
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  /// Evaluated, integer-resolved bounds of one band for one left row.
  struct ResolvedBand {
    int64_t lo = 0;
    int64_t hi = 0;
    int64_t residue = 0;  ///< anchor's congruence class (modulus > 0)
    int64_t modulus = 0;
    bool empty = false;
  };

  Status AdvanceLeft(bool* eof);
  /// Resolves all bands for current_left_ into candidates_ (cross-band
  /// deduplicated); shared by the row and vector paths.
  Status ResolveCandidates();
  Status ResolveBand(const BandSpec& band, const Row& left_row,
                     ResolvedBand* out) const;
  /// Appends row ids of keys_ positions matching `band` to candidates_,
  /// using the per-band monotone start cursor `cursor`.
  void CollectBand(const ResolvedBand& band, size_t band_index);

  PhysicalOperatorPtr left_;
  PhysicalOperatorPtr right_;
  BandJoinSpec spec_;
  JoinType join_type_;

  std::vector<Row> right_rows_;
  /// (key, row id) for non-NULL keys, sorted by key then row id.
  std::vector<std::pair<int64_t, size_t>> keys_;
  /// Dense direct-address table: keys are unique and contiguous, so
  /// dense_[key - dense_base_] is the row id (point/stride lookups
  /// become O(1)).
  std::vector<size_t> dense_;
  int64_t dense_base_ = 0;
  bool dense_valid_ = false;
  /// Per-band monotone start cursors into keys_ with the previous lower
  /// bound; reused across left rows while bounds move forward.
  std::vector<size_t> cursors_;
  std::vector<int64_t> prev_lo_;

  Row current_left_;
  bool left_valid_ = false;
  bool left_matched_ = false;
  std::vector<size_t> candidates_;
  size_t candidate_pos_ = 0;
  size_t right_width_ = 0;

  // --- Vector-native path (NextVectorImpl, used when vectorized()) ---
  /// Columnar copy of right_rows_ — the gather source for output runs.
  VectorProjection right_vp_;
  /// Pooled output lanes and residual-filter scratch, reused across
  /// NextVector calls.
  VectorProjection out_vp_;
  VectorProjection residual_scratch_;
  /// The current left projection (owned by the left child).
  VectorProjection* left_vp_ = nullptr;
  size_t left_lane_pos_ = 0;    ///< next selection slot in left_vp_
  uint32_t current_lane_ = 0;   ///< current left row position in left_vp_
  bool left_input_eof_ = false;
  size_t vector_capacity_ = kVectorCapacity;
};

/// Hash join on equi-key conjuncts (inner / left outer) with optional
/// residual condition.
class HashJoinOp : public PhysicalOperator {
 public:
  HashJoinOp(Schema schema, PhysicalOperatorPtr left,
             PhysicalOperatorPtr right, std::vector<ExprPtr> left_keys,
             std::vector<ExprPtr> right_keys, ExprPtr residual,
             JoinType join_type)
      : PhysicalOperator(std::move(schema)),
        left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_(std::move(residual)),
        join_type_(join_type) {}
  const char* name() const override { return "hash_join"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(left_.get());
    out->push_back(right_.get());
  }
  /// Native columnar execution: vectorized build (bulk-hash whole key
  /// vectors into a contiguous bucket-chain table, one allocation pass)
  /// and vectorized probe (bulk-hash the probe vector, chase chains
  /// per-lane, gather matches column-wise). See join.cc.
  bool VectorNative() const override { return true; }
  /// Test hook: shrinks the native vector path's output capacity so
  /// tests can force match runs to split across output vectors.
  void SetVectorOutputCapacityForTest(size_t cap) {
    vector_capacity_ = cap == 0 ? 1 : cap;
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  Status AdvanceLeft(bool* eof);
  /// Vectorized build: drains the build side, transposes it once into
  /// build_vp_, bulk-hashes the key vectors, and links the bucket-chain
  /// table (heads_/chain_next_) in one pass.
  Status OpenVectorized();

  PhysicalOperatorPtr left_;
  PhysicalOperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;
  JoinType join_type_;

  std::unordered_map<std::vector<Value>, std::vector<Row>, RowColumnsHash>
      hash_table_;
  size_t right_width_ = 0;
  Row current_left_;
  bool left_valid_ = false;
  bool left_matched_ = false;
  const std::vector<Row>* bucket_ = nullptr;
  size_t bucket_pos_ = 0;

  // --- Vector-native path (OpenVectorized + NextVectorImpl) ---
  /// Chain terminator / empty bucket sentinel.
  static constexpr uint32_t kChainEnd = 0xffffffffu;
  /// Columnar build side: all build rows (gather source), their
  /// evaluated key vectors, and per-row full hashes. Entries are linked
  /// head-first in REVERSE row order so every chain walks in ascending
  /// build-row order — exactly the row path's bucket arrival order.
  VectorProjection build_vp_;
  std::vector<Vector> build_key_vecs_;
  std::vector<uint64_t> build_hashes_;
  std::vector<uint32_t> heads_;       ///< bucket -> first entry (row id)
  std::vector<uint32_t> chain_next_;  ///< entry -> next entry in chain
  uint64_t bucket_mask_ = 0;          ///< heads_.size() - 1 (power of two)
  /// Probe-side staging, pooled output lanes, and per-lane match state.
  VectorProjection out_vp_;
  VectorProjection residual_scratch_;
  VectorProjection* probe_vp_ = nullptr;
  std::vector<Vector> probe_key_vecs_;
  std::vector<uint64_t> probe_hashes_;
  size_t probe_lane_pos_ = 0;   ///< next selection slot in probe_vp_
  uint32_t current_lane_ = 0;   ///< current probe row position
  bool probe_input_eof_ = false;
  std::vector<size_t> vec_candidates_;
  size_t vec_candidate_pos_ = 0;
  size_t vector_capacity_ = kVectorCapacity;
};

/// Full-materialization stable sort.
class SortOp : public PhysicalOperator {
 public:
  SortOp(Schema schema, PhysicalOperatorPtr child, std::vector<SortKey> keys)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        keys_(std::move(keys)) {}
  const char* name() const override { return "sort"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;

 private:
  PhysicalOperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Hash aggregation (grouped or global).
class HashAggregateOp : public PhysicalOperator {
 public:
  HashAggregateOp(Schema schema, PhysicalOperatorPtr child,
                  std::vector<ExprPtr> group_by,
                  std::vector<AggregateCall> aggregates)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggregates_(std::move(aggregates)) {}
  const char* name() const override { return "hash_aggregate"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;

 private:
  PhysicalOperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggregateCall> aggregates_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

/// Reporting-function (window) operator: materializes its input,
/// evaluates every WindowCall with an O(1)-amortized-per-row frame
/// engine (see exec/window_frame.h), appends one column per call, and
/// re-emits rows in their original input order.
///
/// Partition-parallel: after the sort, the per-partition sweeps are
/// independent, so partitions are chunked across the shared ThreadPool
/// when the input is large enough and `workers` allows it. Partitions
/// are never split and each task writes disjoint output slots, so the
/// result is byte-identical to the single-threaded path.
class WindowOp : public PhysicalOperator {
 public:
  /// `workers`: 1 = single-threaded, n > 1 = up to n parallel tasks,
  /// 0 = auto (hardware concurrency). `parallel_min_rows` gates the
  /// parallel path by input size.
  WindowOp(Schema schema, PhysicalOperatorPtr child,
           std::vector<WindowCall> calls, int workers = 1,
           int64_t parallel_min_rows = 4096)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        calls_(std::move(calls)),
        workers_(workers),
        parallel_min_rows_(parallel_min_rows) {}
  const char* name() const override { return "window"; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;

 private:
  /// Shared read-only inputs of one call's per-partition sweeps.
  struct CallContext {
    const WindowCall* call = nullptr;
    /// Per row: evaluated aggregate argument (empty unless kAggregate
    /// with an argument).
    std::vector<Value> args;
    /// Per row: partition keys followed by order keys.
    std::vector<std::vector<Value>> keys;
    /// Row indices sorted by (partition keys, order keys).
    std::vector<size_t> order;
  };

  Status ComputeCall(const WindowCall& call, std::vector<Value>* out) const;

  /// Evaluates one partition (the sorted index range [begin, end) of
  /// ctx.order) into the matching slots of *out. Safe to run
  /// concurrently for disjoint ranges.
  Status ProcessPartition(const CallContext& ctx, size_t begin, size_t end,
                          std::vector<Value>* out) const;

  /// Resolved worker count for an input of `rows` rows split into
  /// `partitions` partitions; 1 means run single-threaded.
  int EffectiveWorkers(size_t rows, size_t partitions) const;

  PhysicalOperatorPtr child_;
  std::vector<WindowCall> calls_;
  int workers_;
  int64_t parallel_min_rows_;
  std::vector<Row> rows_;
  std::vector<std::vector<Value>> extra_columns_;
  size_t pos_ = 0;
};

class UnionAllOp : public PhysicalOperator {
 public:
  UnionAllOp(Schema schema, std::vector<PhysicalOperatorPtr> children)
      : PhysicalOperator(std::move(schema)), children_(std::move(children)) {}
  const char* name() const override { return "union_all"; }
  bool VectorNative() const override { return true; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    for (const PhysicalOperatorPtr& c : children_) out->push_back(c.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  std::vector<PhysicalOperatorPtr> children_;
  size_t current_ = 0;
};

class LimitOp : public PhysicalOperator {
 public:
  LimitOp(Schema schema, PhysicalOperatorPtr child, int64_t limit)
      : PhysicalOperator(std::move(schema)),
        child_(std::move(child)),
        limit_(limit) {}
  const char* name() const override { return "limit"; }
  bool VectorNative() const override { return true; }
  void AppendChildren(
      std::vector<const PhysicalOperator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* row, bool* eof) override;
  /// Truncates the child projection's selection to the rows remaining
  /// under the limit and passes the projection through.
  Status NextVectorImpl(VectorProjection** out, bool* eof) override;

 private:
  PhysicalOperatorPtr child_;
  int64_t limit_;
  int64_t produced_ = 0;
};

}  // namespace rfv

#endif  // RFVIEW_EXEC_OPERATORS_H_
