#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <sstream>
#include <thread>

#include "db/database.h"
#include "db/session.h"
#include "parser/parser.h"
#include "replay.h"
#include "rewrite/rewriter.h"
#include "sequence/compute.h"
#include "testing/reference_window.h"
#include "testing/result_compare.h"
#include "view/maintenance.h"

namespace rfbench {

namespace {

using rfv::Database;
using rfv::Result;
using rfv::ResultSet;
using rfv::Row;
using rfv::Session;
using rfv::Status;
using rfv::Value;

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// Notes kept per run; further failures are only counted.
constexpr size_t kMaxNotes = 8;

/// Share of maintain_mix operations followed by a checkpoint that
/// compares every view's content with a recompute.
constexpr double kCheckpointRate = 1.0 / 400.0;

/// Timed repetitions per alternative in the choice-regret measurement.
constexpr int kRegretRepeats = 5;

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

struct SetupTimes {
  double load_ms = 0;
  double analyze_ms = 0;
};

Status Exec(Database* db, const std::string& sql) {
  return db->Execute(sql).status();
}

/// Creates `name` from `ddl`, bulk-loads `rows` (Table::InsertBatch),
/// builds its indexes and runs ANALYZE.
Status LoadTable(Database* db, const std::string& name,
                 const std::string& ddl, std::vector<Row> rows,
                 SetupTimes* times) {
  RFV_RETURN_IF_ERROR(Exec(db, ddl));
  Result<rfv::Table*> table = db->catalog()->GetTable(name);
  if (!table.ok()) return table.status();
  int64_t start = NowNs();
  RFV_RETURN_IF_ERROR((*table)->InsertBatch(std::move(rows)));
  times->load_ms += MsSince(start);
  // InsertBatch leaves indexes dirty; rebuild them here, not in the
  // first timed query.
  for (size_t c = 0; c < (*table)->schema().NumColumns(); ++c) {
    (*table)->GetIndexOnColumn(c);
  }
  start = NowNs();
  RFV_RETURN_IF_ERROR(Exec(db, "ANALYZE " + name));
  times->analyze_ms += MsSince(start);
  return Status::OK();
}

std::vector<Row> SeqRows(const std::vector<double>& values) {
  std::vector<Row> rows;
  rows.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    rows.push_back(Row({Value::Int(static_cast<int64_t>(i) + 1),
                        Value::Double(values[i])}));
  }
  return rows;
}

std::vector<Row> PseqRows(const WorkloadInputs& in) {
  std::vector<Row> rows;
  for (size_t g = 0; g < in.pseq_values.size(); ++g) {
    for (size_t i = 0; i < in.pseq_values[g].size(); ++i) {
      rows.push_back(Row({Value::Int(static_cast<int64_t>(g) + 1),
                          Value::Int(static_cast<int64_t>(i) + 1),
                          Value::Double(in.pseq_values[g][i])}));
    }
  }
  return rows;
}

/// Builds the workload's database: tables, indexes, ANALYZE and the
/// materialized views (all of them, or only view `only_view`).
Result<std::unique_ptr<Database>> BuildDatabase(const WorkloadInputs& in,
                                                SetupTimes* times,
                                                int only_view = -1) {
  auto db = std::make_unique<Database>();
  RFV_RETURN_IF_ERROR(LoadTable(
      db.get(), in.base_table,
      "CREATE TABLE " + in.base_table + " (pos INTEGER PRIMARY KEY, val DOUBLE)",
      SeqRows(in.seq_values), times));
  if (!in.pseq_values.empty()) {
    RFV_RETURN_IF_ERROR(LoadTable(
        db.get(), "pseq", "CREATE TABLE pseq (grp INTEGER, pos INTEGER, val DOUBLE)",
        PseqRows(in), times));
  }
  for (size_t v = 0; v < in.views.size(); ++v) {
    if (only_view >= 0 && static_cast<int>(v) != only_view) continue;
    RFV_RETURN_IF_ERROR(Exec(db.get(), in.views[v].Sql(in.base_table)));
  }
  if (in.workload == Workload::kServeMix) {
    db->admission()->set_max_concurrent(kServeReaders + kServeWriters);
  }
  return db;
}

/// Sets the database up kSetupRepeats times, keeping the last; records
/// setup_s (median) and the load/ANALYZE times of the kept one.
Result<std::unique_ptr<Database>> TimedSetup(const WorkloadInputs& in,
                                             std::map<std::string, double>* m) {
  std::vector<double> seconds;
  std::unique_ptr<Database> db;
  SetupTimes times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    db.reset();
    times = SetupTimes();
    const int64_t start = NowNs();
    RFV_ASSIGN_OR_RETURN(db, BuildDatabase(in, &times));
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  (*m)["setup_s"] = Median(seconds);
  (*m)["storage.load_ms"] = times.load_ms;
  (*m)["stats.analyze_ms"] = times.analyze_ms;
  return db;
}

// ---------------------------------------------------------------------
// Expected answers
// ---------------------------------------------------------------------

/// ReferenceWindow over the generated rows, shaped like the query's
/// output: (pos, value) for seq, (grp, pos, value) for pseq.
std::vector<Row> ReferenceRows(const std::vector<Row>& input,
                               const rfv::fuzzing::RefWindowCall& call) {
  const std::vector<Value> out = rfv::fuzzing::ReferenceWindow(input, call);
  std::vector<Row> rows;
  rows.reserve(input.size());
  for (size_t i = 0; i < input.size(); ++i) {
    Row row;
    for (size_t c = 0; c + 1 < input[i].size(); ++c) row.Append(input[i][c]);
    row.Append(out[i]);
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Row comparison: in result order first (queries carry ORDER BY), then
/// canonically ordered (ties in the ORDER BY key may come either way).
std::optional<std::string> CompareRows(const std::vector<Row>& got,
                                       const std::vector<Row>& want) {
  if (got.size() == want.size()) {
    bool same = true;
    for (size_t r = 0; same && r < got.size(); ++r) {
      same = got[r].size() == want[r].size();
      for (size_t c = 0; same && c < got[r].size(); ++c) {
        same = ValuesClose(got[r][c], want[r][c]);
      }
    }
    if (same) return std::nullopt;
  }
  return DiffRowsTolerant(got, want);
}

/// Block length of the chained cumulative check.
constexpr size_t kCumulativeBlock = 512;

/// Checks a cumulative aggregate over all of seq against ReferenceWindow
/// block by block: within a block of kCumulativeBlock rows the reference
/// gives the block-local running aggregate, and the answer at each row
/// must equal it combined with the answer's own value at the end of the
/// previous block (itself checked one block earlier). Every row is
/// checked at O(n * block) reference cost instead of O(n^2).
std::optional<std::string> CheckCumulative(const std::vector<Row>& input,
                                           rfv::fuzzing::RefWindowCall call,
                                           const std::vector<Row>& got) {
  using rfv::fuzzing::FuzzFn;
  const FuzzFn fn = call.fn;
  if (fn == FuzzFn::kAvg) call.fn = FuzzFn::kSum;
  for (size_t start = 0; start < input.size(); start += kCumulativeBlock) {
    const size_t end = std::min(input.size(), start + kCumulativeBlock);
    const std::vector<Row> block(input.begin() + static_cast<std::ptrdiff_t>(start),
                                 input.begin() + static_cast<std::ptrdiff_t>(end));
    const std::vector<Value> local = rfv::fuzzing::ReferenceWindow(block, call);
    for (size_t i = start; i < end; ++i) {
      const Value& part = local[i - start];
      Value want = part;
      if (fn == FuzzFn::kAvg) {
        const double before = start == 0 ? 0 : got[start - 1][1].ToDouble() * start;
        want = Value::Double((before + part.ToDouble()) / static_cast<double>(i + 1));
      } else if (start > 0) {
        const Value& prev = got[start - 1][1];
        switch (fn) {
          case FuzzFn::kSum:
            want = Value::Double(prev.ToDouble() + part.ToDouble());
            break;
          case FuzzFn::kCount:
            want = Value::Int(prev.AsInt() + part.AsInt());
            break;
          case FuzzFn::kMin:
            want = prev.Compare(part) <= 0 ? prev : part;
            break;
          default:
            want = prev.Compare(part) >= 0 ? prev : part;
            break;
        }
      }
      if (!ValuesClose(got[i][1], want)) {
        return "cumulative row " + got[i].ToString() + " vs reference " +
               want.ToString();
      }
    }
  }
  return std::nullopt;
}

/// RANK over all of seq from the reference's ROW_NUMBER (O(n log n)):
/// a row's rank is the smallest row number among rows with its key.
std::optional<std::string> CheckRank(const std::vector<Row>& input,
                                     rfv::fuzzing::RefWindowCall call,
                                     const std::vector<Row>& got) {
  call.fn = rfv::fuzzing::FuzzFn::kRowNumber;
  const std::vector<Value> row_number = rfv::fuzzing::ReferenceWindow(input, call);
  std::map<Value, int64_t> first;
  for (size_t i = 0; i < input.size(); ++i) {
    const Value& key = input[i][static_cast<size_t>(call.order_col)];
    auto [it, fresh] = first.emplace(key, row_number[i].AsInt());
    if (!fresh) it->second = std::min(it->second, row_number[i].AsInt());
  }
  std::vector<Row> want;
  for (size_t i = 0; i < input.size(); ++i) {
    want.push_back(Row({input[i][0],
                        Value::Int(first[input[i][static_cast<size_t>(call.order_col)]])}));
  }
  return CompareRows(got, want);
}

/// Checks a kReference answer. Partitioned queries and sliding frames
/// compare with ReferenceWindow over the whole input directly; the
/// quadratic-cost shapes over the 15000-row seq go through
/// CheckCumulative / CheckRank.
std::optional<std::string> CheckReference(const WorkloadInputs& in,
                                          const QuerySpec& q,
                                          const std::vector<Row>& got) {
  using rfv::fuzzing::FuzzFn;
  const std::vector<Row> input = q.partitioned ? PseqRows(in) : SeqRows(in.seq_values);
  if (got.size() != input.size()) {
    return "row count " + std::to_string(got.size()) + " vs " +
           std::to_string(input.size());
  }
  if (!q.partitioned) {
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].size() != 2 || got[i][0].ToDouble() != static_cast<double>(i + 1)) {
        return "row " + std::to_string(i) + " is " + got[i].ToString();
      }
    }
    if (q.ref.fn == FuzzFn::kRank) return CheckRank(input, q.ref, got);
    const bool aggregate = q.ref.fn != FuzzFn::kRowNumber;
    if (aggregate && q.ref.frame.cumulative) {
      return CheckCumulative(input, q.ref, got);
    }
  }
  return CompareRows(got, ReferenceRows(input, q.ref));
}

/// The write model of maintain_mix / serve_mix: the base values by
/// position, with prefix sums for the expected SUM answers.
class SeqModel {
 public:
  explicit SeqModel(std::vector<double> values) : values_(std::move(values)) {}

  int64_t size() const { return static_cast<int64_t>(values_.size()); }
  void Set(int64_t pos, double v) {
    values_[static_cast<size_t>(pos - 1)] = v;
    dirty_ = true;
  }
  void Insert(int64_t pos, double v) {
    values_.insert(values_.begin() + (pos - 1), v);
    dirty_ = true;
  }
  void Delete(int64_t pos) {
    values_.erase(values_.begin() + (pos - 1));
    dirty_ = true;
  }
  void Add(int64_t lo, int64_t hi, double delta) {
    for (int64_t p = lo; p <= hi; ++p) values_[static_cast<size_t>(p - 1)] += delta;
    dirty_ = true;
  }
  void Append(double v) {
    values_.push_back(v);
    dirty_ = true;
  }

  /// The view's value at position p in [1, n] (window clipped to the
  /// data, as in the complete sequence's body).
  double Expected(const ViewSpec& view, int64_t p) {
    const int64_t n = size();
    if (view.fn == "SUM") {
      if (view.cumulative) return Prefix(p);
      return Prefix(std::min(n, p + view.h)) - Prefix(std::max<int64_t>(0, p - view.l - 1));
    }
    const int64_t lo = std::max<int64_t>(1, p - view.l);
    const int64_t hi = std::min(n, p + view.h);
    double best = values_[static_cast<size_t>(lo - 1)];
    for (int64_t q = lo + 1; q <= hi; ++q) {
      const double v = values_[static_cast<size_t>(q - 1)];
      best = view.fn == "MIN" ? std::min(best, v) : std::max(best, v);
    }
    return best;
  }

  /// Full content of the view per the paper's complete sequence,
  /// recomputed from the model (sequence/compute.h).
  std::vector<Row> ViewContent(const ViewSpec& view) const {
    const rfv::WindowSpec spec =
        view.cumulative ? rfv::WindowSpec::Cumulative()
                        : rfv::WindowSpec::SlidingUnchecked(view.l, view.h);
    const rfv::SeqAggFn fn = view.fn == "SUM"   ? rfv::SeqAggFn::kSum
                             : view.fn == "MIN" ? rfv::SeqAggFn::kMin
                                                : rfv::SeqAggFn::kMax;
    const rfv::Sequence seq = rfv::BuildCompleteSequence(values_, spec, fn);
    std::vector<Row> rows;
    for (int64_t k = seq.first_pos(); k <= seq.last_pos(); ++k) {
      rows.push_back(Row({Value::Int(k), Value::Double(seq.at(k))}));
    }
    return rows;
  }

  std::vector<Row> Base() const { return SeqRows(values_); }

 private:
  double Prefix(int64_t p) {
    if (dirty_) {
      prefix_.assign(values_.size() + 1, 0.0);
      for (size_t i = 0; i < values_.size(); ++i) {
        prefix_[i + 1] = prefix_[i] + values_[i];
      }
      dirty_ = false;
    }
    return prefix_[static_cast<size_t>(p)];
  }

  std::vector<double> values_;
  std::vector<double> prefix_;
  bool dirty_ = true;
};

std::vector<Row> ExpectedViewRows(SeqModel* model, const ViewSpec& view,
                                  int64_t lo, int64_t hi) {
  std::vector<Row> rows;
  for (int64_t p = lo; p <= hi; ++p) {
    rows.push_back(Row({Value::Int(p), Value::Double(model->Expected(view, p))}));
  }
  return rows;
}

// ---------------------------------------------------------------------
// Metric helpers
// ---------------------------------------------------------------------

/// Latency segments per serial run: the p50 and tail are taken within
/// each stretch of consecutive blocks and reported as their medians, so
/// a burst of host noise that slows one stretch does not move them.
constexpr int kLatencySegments = 5;

/// Splits latency samples into kLatencySegments stretches by the block
/// each was taken in.
std::vector<std::vector<double>> SegmentByBlock(const std::vector<double>& ms,
                                                const std::vector<int64_t>& block,
                                                int64_t blocks) {
  std::vector<std::vector<double>> segments(kLatencySegments);
  for (size_t i = 0; i < ms.size(); ++i) {
    const int64_t s = std::min<int64_t>(
        kLatencySegments - 1, block[i] * kLatencySegments / std::max<int64_t>(1, blocks));
    segments[static_cast<size_t>(s)].push_back(ms[i]);
  }
  return segments;
}

/// <prefix>_p50_ms and <prefix>_tail_ms (PickTail) as medians over the
/// segments' own values, with the sample count and chosen percentile.
void AddLatencyMetrics(const std::string& prefix,
                       const std::vector<std::vector<double>>& segments,
                       std::map<std::string, double>* m,
                       std::vector<std::string>* notes) {
  std::vector<double> p50;
  std::vector<double> tail;
  double percentile = 100;
  size_t samples = 0;
  for (const std::vector<double>& segment : segments) {
    if (segment.empty()) continue;
    samples += segment.size();
    p50.push_back(Median(segment));
    if (std::optional<TailPick> t = PickTail(segment)) {
      tail.push_back(t->value);
      percentile = std::min(percentile, t->percentile);
    }
  }
  if (p50.empty()) return;
  (*m)[prefix + "_p50_ms"] = Median(p50);
  (*m)[prefix + "_samples"] = static_cast<double>(samples);
  if (tail.empty()) return;
  (*m)[prefix + "_tail_ms"] = Median(tail);
  (*m)[prefix + "_tail_pct"] = percentile;
  std::ostringstream note;
  note << prefix << "_tail_ms is the median of " << tail.size()
       << " segments' p" << percentile << " (" << samples << " samples in all)";
  notes->push_back(note.str());
}

double MeanUs(const SpanLog::NameTotals& t) {
  return t.count == 0 ? 0 : static_cast<double>(t.total_ns) / t.count / 1e3;
}

/// Per-layer metrics from the traced run's spans and counters.
void AddLayerMetrics(const std::map<std::string, SpanLog::NameTotals>& totals,
                     const LayerCounters& c, std::map<std::string, double>* m) {
  auto mean_us = [&](const std::string& span) {
    auto it = totals.find(span);
    return it == totals.end() ? 0.0 : MeanUs(it->second);
  };
  (*m)["parser.parse_us"] = mean_us("parser.parse");
  (*m)["parser.reparse_us"] = mean_us("parser.reparse");
  (*m)["rewrite.try_us"] = mean_us("rewrite.try");
  (*m)["plan.bind_us"] = mean_us("plan.bind");
  (*m)["plan.optimize_us"] = mean_us("plan.optimize");
  (*m)["exec.build_us"] = mean_us("exec.build");
  (*m)["exec.run_us"] = mean_us("exec.run");
  (*m)["storage.pin_us"] = mean_us("storage.pin");
  (*m)["view.update_us"] = mean_us("view.update");
  (*m)["view.insert_us"] = mean_us("view.insert");
  (*m)["view.delete_us"] = mean_us("view.delete");
  (*m)["view.refresh_ms"] = mean_us("view.refresh") / 1e3;
  (*m)["db.dml_us"] = mean_us("db.dml");

  const double tried = static_cast<double>(c.rewrite_tried);
  (*m)["rewrite.hit_frac"] = tried == 0 ? 0 : c.rewrite_taken / tried;
  (*m)["rewrite.candidates"] = tried == 0 ? 0 : c.verdicts / tried;
  (*m)["rewrite.sql_bytes"] =
      c.rewrite_taken == 0
          ? 0
          : static_cast<double>(c.rewrite_sql_bytes) / c.rewrite_taken;

  const double reads = std::max<double>(1, static_cast<double>(c.reads));
  for (const char* op :
       {"window", "sort", "scan", "filter", "project", "merge_band_join",
        "hash_join", "index_nested_loop_join", "hash_aggregate", "union_all"}) {
    auto it = c.self_ns.find(op);
    const double ns = it == c.self_ns.end() ? 0 : static_cast<double>(it->second);
    (*m)[std::string("exec.self_ms.") + op] = ns / reads / 1e6;
  }
  (*m)["exec.rows_examined_per_row_out"] =
      c.root_rows_out == 0 ? 0
                           : static_cast<double>(c.rows_in) / c.root_rows_out;
  (*m)["exec.next_calls"] = c.next_calls / reads;
  (*m)["exec.vectors"] = c.vectors / reads;
  (*m)["exec.batches"] = c.batches / reads;
  (*m)["exec.peak_buffered_rows"] = static_cast<double>(c.peak_buffered_rows);
  if (!c.qerrors.empty()) {
    (*m)["plan.qerror_max"] = *std::max_element(c.qerrors.begin(), c.qerrors.end());
    (*m)["plan.qerror_p50"] = Median(c.qerrors);
  } else {
    (*m)["plan.qerror_max"] = 1;
    (*m)["plan.qerror_p50"] = 1;
  }
  (*m)["db.glue_us"] =
      c.glue_samples == 0 ? 0 : static_cast<double>(c.glue_ns) / c.glue_samples / 1e3;
}

void MergeCounters(const LayerCounters& from, LayerCounters* into) {
  into->reads += from.reads;
  into->rewrite_tried += from.rewrite_tried;
  into->rewrite_taken += from.rewrite_taken;
  into->verdicts += from.verdicts;
  into->rewrite_sql_bytes += from.rewrite_sql_bytes;
  for (const auto& [op, ns] : from.self_ns) into->self_ns[op] += ns;
  into->rows_in += from.rows_in;
  into->root_rows_out += from.root_rows_out;
  into->next_calls += from.next_calls;
  into->vectors += from.vectors;
  into->batches += from.batches;
  into->peak_buffered_rows =
      std::max(into->peak_buffered_rows, from.peak_buffered_rows);
  into->qerrors.insert(into->qerrors.end(), from.qerrors.begin(),
                       from.qerrors.end());
  into->glue_ns += from.glue_ns;
  into->glue_samples += from.glue_samples;
}

/// db.glue: one Session::Execute call's wall time minus the phases
/// (parse, rewrite, bind, plan, execute) it timed itself.
void AddGlue(int64_t execute_ns, const ResultSet& rs, LayerCounters* c) {
  int64_t phases = 0;
  for (const auto& phase : rs.phase_ns()) phases += phase.second;
  c->glue_ns += execute_ns - phases;
  ++c->glue_samples;
}

/// Outcome bookkeeping shared by the runners.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (notes.size() < kMaxNotes) notes.push_back("FAILED " + what);
  }
};

/// Sum of the admission-wait histogram (seconds) in MetricsText.
double AdmissionWaitSeconds() {
  std::istringstream text(Database::MetricsText());
  std::string line;
  const std::string key = "rfv_admission_wait_seconds_sum";
  while (std::getline(text, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(line.find_last_of(' ') + 1));
    }
  }
  return 0;
}

// ---------------------------------------------------------------------
// Single-client runs: table1_compute, table2_derive, maintain_mix
// ---------------------------------------------------------------------

class SerialRun {
 public:
  SerialRun(const WorkloadInputs& in, std::unique_ptr<Database> db,
            Tally* tally)
      : in_(in),
        db_(std::move(db)),
        session_(db_.get()),
        reference_(db_.get()),
        tally_(tally) {
    reference_.options().enable_view_rewrite = false;
    if (in.workload == Workload::kMaintainMix) model_.emplace(in.seq_values);
  }

  /// Runs every distinct read once, fixing and checking its expected
  /// answer (untimed).
  void Warmup();

  /// Closed loop over the op stream until the timed operations add up
  /// to `seconds`. Traced: reads go through the layer replay.
  void Loop(uint64_t seed, double seconds, bool traced);

  Database* db() { return db_.get(); }

  std::vector<double> read_ms;
  std::vector<double> write_ms;
  /// The block each latency sample was taken in.
  std::vector<int64_t> read_block;
  std::vector<int64_t> write_block;
  /// Operations per second of each completed block of the op stream.
  std::vector<double> block_rates;
  int64_t ops = 0;
  int64_t rows_written = 0;
  int64_t writes = 0;
  int64_t refreshes_by_benchmark = 0;
  SpanLog log;
  LayerCounters counters;

 private:
  std::optional<std::string> VerifyRead(const Op& op,
                                        const std::vector<Row>& rows);
  /// Runs and checks one operation; returns its timed nanoseconds.
  int64_t RunOp(const Op& op, int64_t op_id, bool traced);
  Result<size_t> ApplyWrite(const Op& op);
  void Checkpoint(bool traced);

  const WorkloadInputs& in_;
  std::unique_ptr<Database> db_;
  Session session_;
  Session reference_;
  std::map<int, std::vector<Row>> expected_;
  std::optional<SeqModel> model_;
  Tally* tally_;
};

void SerialRun::Warmup() {
  const std::vector<QuerySpec>& queries = in_.queries;
  // Self joins last: they are checked against their native query's
  // verified answer.
  std::vector<size_t> order;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].check != CheckKind::kSelfJoin) order.push_back(i);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].check == CheckKind::kSelfJoin) order.push_back(i);
  }
  for (size_t i : order) {
    const QuerySpec& q = queries[i];
    const int index = static_cast<int>(i);
    Op op;
    op.query = index;
    op.sql = q.sql;
    if (q.check == CheckKind::kViewRange) {
      op.lo = 1;
      op.hi = 64;
      op.sql += " WHERE pos BETWEEN 1 AND 64 ORDER BY pos";
    }
    Result<ResultSet> rs = session_.Execute(op.sql);
    tally_->Check(rs.ok(), op.sql + ": " + rs.status().ToString());
    if (!rs.ok()) continue;
    std::optional<std::string> diff;
    switch (q.check) {
      case CheckKind::kReference:
        diff = CheckReference(in_, q, rs->rows());
        if (!diff.has_value()) expected_[index] = rs->rows();
        break;
      case CheckKind::kRewriteOff: {
        Result<ResultSet> off = reference_.Execute(q.sql);
        if (!off.ok()) {
          diff = off.status().ToString();
          break;
        }
        if (rfv::fuzzing::DiffRowsCanonical(*rs, *off).has_value()) {
          diff = DiffRowsTolerant(rs->rows(), off->rows());
        }
        expected_[index] = off->rows();
        break;
      }
      case CheckKind::kSelfJoin: {
        auto native = expected_.find(q.native_query);
        if (native == expected_.end()) {
          diff = "native answer unverified";
          break;
        }
        expected_[index] = native->second;
        diff = CompareRows(rs->rows(), native->second);
        break;
      }
      default:
        diff = VerifyRead(op, rs->rows());
        break;
    }
    tally_->Check(!diff.has_value(), op.sql + ": " + diff.value_or(""));
  }
}

std::optional<std::string> SerialRun::VerifyRead(const Op& op,
                                                 const std::vector<Row>& rows) {
  const QuerySpec& q = in_.queries[static_cast<size_t>(op.query)];
  switch (q.check) {
    case CheckKind::kViewRange:
      return CompareRows(rows, ExpectedViewRows(&*model_, in_.views[q.view],
                                                op.lo, op.hi));
    case CheckKind::kModelWindow:
      return CompareRows(rows, ExpectedViewRows(&*model_, in_.views[q.view], 1,
                                                model_->size()));
    default: {
      auto it = expected_.find(op.query);
      if (it == expected_.end()) return "no expected answer";
      return CompareRows(rows, it->second);
    }
  }
}

Result<size_t> SerialRun::ApplyWrite(const Op& op) {
  rfv::ViewManager* views = db_->view_manager();
  Result<size_t> written = Status::Internal("unknown write");
  switch (op.kind) {
    case OpKind::kUpdate:
      written = rfv::PropagateBaseUpdate(views, in_.base_table, op.lo, op.value);
      if (written.ok()) model_->Set(op.lo, op.value);
      break;
    case OpKind::kInsert:
      written = rfv::PropagateBaseInsert(views, in_.base_table, op.lo, op.value);
      if (written.ok()) model_->Insert(op.lo, op.value);
      break;
    case OpKind::kDelete:
      written = rfv::PropagateBaseDelete(views, in_.base_table, op.lo);
      if (written.ok()) model_->Delete(op.lo);
      break;
    default:
      break;
  }
  return written;
}

void SerialRun::Checkpoint(bool traced) {
  Result<ResultSet> base = reference_.Execute(
      "SELECT pos, val FROM " + in_.base_table + " ORDER BY pos");
  tally_->Check(base.ok() && !CompareRows(base->rows(), model_->Base()),
                "checkpoint: base table differs from the write model");
  for (const ViewSpec& view : in_.views) {
    Result<ResultSet> content =
        reference_.Execute("SELECT pos, val FROM " + view.name + " ORDER BY pos");
    std::optional<std::string> diff =
        content.ok() ? CompareRows(content->rows(), model_->ViewContent(view))
                     : content.status().ToString();
    tally_->Check(!diff.has_value(),
                  "checkpoint: view " + view.name + " " + diff.value_or(""));
    if (traced) {
      ScopedSpan span(&log, "view.refresh", -1);
      tally_->Check(db_->view_manager()->RefreshView(view.name).ok(),
                    "RefreshView " + view.name);
      ++refreshes_by_benchmark;
    }
  }
}

int64_t SerialRun::RunOp(const Op& op, int64_t op_id, bool traced) {
  std::optional<ScopedSpan> root;
  if (traced) root.emplace(&log, std::string("op.") + OpKindName(op.kind), op_id);
  if (op.kind != OpKind::kRead) {
    const std::string name = op.kind == OpKind::kUpdate   ? "view.update"
                             : op.kind == OpKind::kInsert ? "view.insert"
                                                          : "view.delete";
    const int64_t start = NowNs();
    Result<size_t> written = Status::Internal("not run");
    {
      std::optional<ScopedSpan> span;
      if (traced) span.emplace(&log, name, op_id);
      written = ApplyWrite(op);
    }
    const int64_t elapsed = NowNs() - start;
    if (!traced) {
      write_ms.push_back(static_cast<double>(elapsed) / 1e6);
      write_block.push_back(static_cast<int64_t>(block_rates.size()));
    }
    ++writes;
    tally_->Check(written.ok() && *written > 0,
                  std::string(OpKindName(op.kind)) + " at " +
                      std::to_string(op.lo) + ": " +
                      (written.ok() ? "no view rows written"
                                    : written.status().ToString()));
    if (written.ok()) rows_written += static_cast<int64_t>(*written);
    return elapsed;
  }
  int64_t elapsed = 0;
  Result<ResultSet> rs = Status::Internal("not run");
  if (traced) {
    const int64_t start = NowNs();
    Result<std::vector<Row>> replay = ReplaySelect(
        db_.get(), session_.options(), op.sql, op_id, &log, &counters);
    elapsed = NowNs() - start;
    const int64_t exec_start = NowNs();
    {
      ScopedSpan span(&log, "db.execute", op_id);
      rs = session_.Execute(op.sql);
    }
    if (rs.ok()) AddGlue(NowNs() - exec_start, *rs, &counters);
    tally_->Check(replay.ok(), op.sql + " (replay): " + replay.status().ToString());
    if (replay.ok() && rs.ok()) {
      const auto diff = CompareRows(*replay, rs->rows());
      tally_->Check(!diff.has_value(),
                    op.sql + ": replay differs from Session::Execute: " +
                        diff.value_or(""));
    }
  } else {
    const int64_t start = NowNs();
    rs = session_.Execute(op.sql);
    elapsed = NowNs() - start;
    read_ms.push_back(static_cast<double>(elapsed) / 1e6);
    read_block.push_back(static_cast<int64_t>(block_rates.size()));
  }
  tally_->Check(rs.ok(), op.sql + ": " + rs.status().ToString());
  if (rs.ok()) {
    const auto diff = VerifyRead(op, rs->rows());
    tally_->Check(!diff.has_value(), op.sql + ": " + diff.value_or(""));
  }
  return elapsed;
}

void SerialRun::Loop(uint64_t seed, double seconds, bool traced) {
  OpStream stream(in_, seed);
  Rng checkpoints(seed ^ 0xc4ec4ec4ec4ec4eull);
  const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
  int64_t spent = 0;
  int64_t block_ns = 0;
  int64_t block_ops = 0;
  int64_t op_id = 0;
  while (true) {
    const int64_t elapsed = RunOp(stream.Next(), ++op_id, traced);
    spent += elapsed;
    block_ns += elapsed;
    ++block_ops;
    ++ops;
    if (model_.has_value() && checkpoints.Chance(kCheckpointRate)) {
      Checkpoint(traced);
    }
    if (!stream.AtBlockEnd()) continue;
    block_rates.push_back(static_cast<double>(block_ops) /
                          (static_cast<double>(block_ns) / 1e9));
    block_ns = 0;
    block_ops = 0;
    if (spent >= budget_ns) break;
  }
  if (model_.has_value()) Checkpoint(traced);
}

/// One way to answer a query in the choice-regret measurement.
struct Alternative {
  Database* db = nullptr;
  Database::Options options;
  /// Set for forced methods: the rewrite must report this method.
  std::string want_method;
  std::vector<double> ms;
  bool valid = true;
};

/// Runs `sql` under every alternative in round-robin (one untimed warm-up
/// round, then kRegretRepeats timed rounds) so drift in machine speed
/// hits all of them alike; checks each answer against `expected`.
void TimeAlternatives(const std::string& sql, const std::vector<Row>& expected,
                      std::vector<Alternative>* alternatives, Tally* tally) {
  for (int round = 0; round <= kRegretRepeats; ++round) {
    for (Alternative& alt : *alternatives) {
      if (!alt.valid) continue;
      const int64_t start = NowNs();
      Result<ResultSet> rs = alt.db->Execute(sql, alt.options);
      const double ms = MsSince(start);
      tally->Check(rs.ok(), sql + ": " + rs.status().ToString());
      if (!rs.ok() ||
          (!alt.want_method.empty() && rs->rewrite_method() != alt.want_method)) {
        alt.valid = false;  // failed, or the method could not be forced
        continue;
      }
      const auto diff = CompareRows(rs->rows(), expected);
      tally->Check(!diff.has_value(), sql + " [" + alt.want_method + "]: " +
                                          diff.value_or(""));
      if (round > 0) alt.ms.push_back(ms);
    }
  }
}

/// stats.choice_regret: per distinct window query with derivable
/// alternatives, the default choice's execute time over the fastest of
/// {rewrite off} ∪ {each derivable view × method, forced on a database
/// holding only that view}. Geometric mean over those queries; 1 when a
/// workload has none.
void MeasureChoiceRegret(const WorkloadInputs& in, Tally* tally,
                         std::map<std::string, double>* m,
                         std::vector<std::string>* notes) {
  SetupTimes ignored;
  Result<std::unique_ptr<Database>> full = BuildDatabase(in, &ignored);
  if (!full.ok()) {
    tally->Check(false, "regret set-up: " + full.status().ToString());
    return;
  }
  std::map<std::string, std::unique_ptr<Database>> single;
  Database::Options off;
  off.enable_view_rewrite = false;
  double log_sum = 0;
  double worst = 1;
  int measured = 0;
  for (const QuerySpec& q : in.queries) {
    Result<rfv::Statement> stmt = rfv::Parser::ParseStatement(q.sql);
    if (!stmt.ok() || stmt->select == nullptr) continue;
    rfv::RewriteOptions ro;
    ro.vector_exec = Database::Options().exec.use_vectorized_execution;
    rfv::RewriteDecision decision;
    if (!(*full)->rewriter().TryRewrite(*stmt->select, ro, &decision).ok()) continue;
    // [0] the default choice, [1] rewrite off, then each forced method.
    std::vector<Alternative> alternatives(2);
    alternatives[0].db = full->get();
    alternatives[1].db = full->get();
    alternatives[1].options = off;
    for (const rfv::CandidateVerdict& v : decision.verdicts) {
      if (!v.derivable) continue;
      if (single.count(v.view_name) == 0) {
        int index = -1;
        for (size_t i = 0; i < in.views.size(); ++i) {
          if (in.views[i].name == v.view_name) index = static_cast<int>(i);
        }
        Result<std::unique_ptr<Database>> db = BuildDatabase(in, &ignored, index);
        if (!db.ok()) continue;
        single[v.view_name] = std::move(*db);
      }
      Alternative forced;
      forced.db = single[v.view_name].get();
      forced.options.force_method = v.method;
      forced.want_method = rfv::DerivationMethodName(v.method);
      alternatives.push_back(std::move(forced));
    }
    if (alternatives.size() == 2) continue;
    Result<ResultSet> expected = (*full)->Execute(q.sql, off);
    if (!expected.ok()) continue;
    TimeAlternatives(q.sql, expected->rows(), &alternatives, tally);
    if (!alternatives[0].valid) continue;
    double fastest = Median(alternatives[1].ms);
    for (size_t i = 2; i < alternatives.size(); ++i) {
      if (alternatives[i].valid) fastest = std::min(fastest, Median(alternatives[i].ms));
    }
    const double regret = Median(alternatives[0].ms) / fastest;
    log_sum += std::log(regret);
    worst = std::max(worst, regret);
    ++measured;
    std::ostringstream note;
    note << "regret " << regret << " for " << q.sql;
    notes->push_back(note.str());
  }
  (*m)["stats.choice_regret"] = measured == 0 ? 1.0 : std::exp(log_sum / measured);
  (*m)["stats.choice_regret_max"] = worst;
}

int64_t FullRefreshes(Database* db, const WorkloadInputs& in, int64_t* incremental) {
  int64_t full = 0;
  *incremental = 0;
  for (const ViewSpec& v : in.views) {
    const rfv::ViewMaintenanceCounters c =
        db->view_manager()->MaintenanceCounters(v.name);
    full += c.full_refreshes;
    *incremental += c.incremental_updates;
  }
  return full;
}

void WriteTrace(const std::string& path, const std::vector<const SpanLog*>& logs) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const SpanLog* log : logs) out << log->ToJson();
}

void RunSerial(const RunConfig& config, const WorkloadInputs& in,
               std::map<std::string, double>* m, Tally* tally,
               std::vector<std::string>* notes) {
  Result<std::unique_ptr<Database>> db = TimedSetup(in, m);
  if (!db.ok()) {
    tally->Check(false, "set-up: " + db.status().ToString());
    return;
  }
  const double timed = config.trace ? config.seconds / 2 : config.seconds;
  SerialRun run(in, std::move(*db), tally);
  run.Warmup();
  run.Loop(config.seed, timed, /*traced=*/false);
  const auto blocks = static_cast<int64_t>(run.block_rates.size());
  AddLatencyMetrics("read", SegmentByBlock(run.read_ms, run.read_block, blocks),
                    m, notes);
  AddLatencyMetrics("write", SegmentByBlock(run.write_ms, run.write_block, blocks),
                    m, notes);
  const double untraced_ops_per_s = Median(run.block_rates);
  (*m)["ops_per_s"] = untraced_ops_per_s;
  if (!config.trace) return;

  // Traced run: a fresh database, the same op stream, replayed.
  SetupTimes times;
  Result<std::unique_ptr<Database>> fresh = BuildDatabase(in, &times);
  if (!fresh.ok()) {
    tally->Check(false, "traced set-up: " + fresh.status().ToString());
    return;
  }
  SerialRun traced(in, std::move(*fresh), tally);
  traced.Warmup();
  int64_t incremental_before = 0;
  const int64_t full_before = FullRefreshes(traced.db(), in, &incremental_before);
  traced.Loop(config.seed, timed, /*traced=*/true);
  int64_t incremental_after = 0;
  const int64_t full_after = FullRefreshes(traced.db(), in, &incremental_after);
  AddLayerMetrics(traced.log.Totals(), traced.counters, m);
  const double full = static_cast<double>(full_after - full_before -
                                          traced.refreshes_by_benchmark);
  const double maint = full + static_cast<double>(incremental_after - incremental_before);
  (*m)["view.full_refresh_frac"] = maint == 0 ? 0 : full / maint;
  (*m)["view.rows_written_per_op"] =
      traced.writes == 0 ? 0 : static_cast<double>(traced.rows_written) / traced.writes;
  const double traced_ops_per_s = Median(traced.block_rates);
  (*m)["trace.ops_per_s_untraced"] = untraced_ops_per_s;
  (*m)["trace.ops_per_s_traced"] = traced_ops_per_s;
  (*m)["trace.overhead_frac"] =
      untraced_ops_per_s == 0 ? 0 : 1.0 - traced_ops_per_s / untraced_ops_per_s;
  (*m)["db.admission_wait_ms"] = 0;  // one client: admission never queues
  MeasureChoiceRegret(in, tally, m, notes);
  WriteTrace(config.trace_path, {&traced.log});
}

// ---------------------------------------------------------------------
// serve_mix: concurrent sessions on one database
// ---------------------------------------------------------------------

struct ClientResult {
  Tally tally;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  int64_t ops = 0;
  SpanLog log;
  LayerCounters counters;
};

struct ServeShared {
  Database* db = nullptr;
  const WorkloadInputs* in = nullptr;
  std::atomic<bool> stop{false};
  /// Rows committed by the writer / rows it has started to insert.
  std::atomic<int64_t> committed_rows{0};
  std::atomic<int64_t> started_rows{0};
  /// Traced runs only: a read's replay and its Session::Execute see the
  /// same data because the writer waits for the pair to finish.
  std::shared_mutex replay_gate;
  SeqModel* model = nullptr;
  bool traced = false;
  uint64_t seed = 1;
};

void ServeReader(ServeShared* shared, int client, ClientResult* out) {
  Session session(shared->db);
  OpStream stream(*shared->in, shared->seed, client);
  int64_t op_id = static_cast<int64_t>(client) << 40;
  while (!shared->stop.load(std::memory_order_relaxed)) {
    const Op op = stream.Next();
    ++op_id;
    const QuerySpec& q = shared->in->queries[static_cast<size_t>(op.query)];
    const int64_t rows_before = shared->committed_rows.load();
    Result<ResultSet> rs = Status::Internal("not run");
    if (shared->traced) {
      std::shared_lock<std::shared_mutex> gate(shared->replay_gate);
      ScopedSpan root(&out->log, "op.read", op_id);
      Result<std::vector<Row>> replay =
          ReplaySelect(shared->db, session.options(), op.sql, op_id, &out->log,
                       &out->counters);
      const int64_t exec_start = NowNs();
      {
        ScopedSpan span(&out->log, "db.execute", op_id);
        rs = session.Execute(op.sql);
      }
      if (rs.ok()) AddGlue(NowNs() - exec_start, *rs, &out->counters);
      if (replay.ok() && rs.ok()) {
        const auto diff = CompareRows(*replay, rs->rows());
        out->tally.Check(!diff.has_value(),
                         op.sql + ": replay differs from Session::Execute: " +
                             diff.value_or(""));
      }
    } else {
      const int64_t start = NowNs();
      rs = session.Execute(op.sql);
      out->read_ms.push_back(MsSince(start));
    }
    ++out->ops;
    const int64_t rows_after = shared->started_rows.load();
    out->tally.Check(rs.ok(), op.sql + ": " + rs.status().ToString());
    if (!rs.ok()) continue;
    // Values move under concurrent band updates; what each answer must
    // satisfy at any snapshot is checked here, values after the run.
    const std::vector<Row>& rows = rs->rows();
    bool ok = true;
    std::string what;
    switch (q.check) {
      case CheckKind::kCount: {
        const int64_t count = rows.size() == 1 ? rows[0][0].AsInt() : -1;
        ok = count >= rows_before && count <= rows_after;
        what = "COUNT(*) " + std::to_string(count) + " outside [" +
               std::to_string(rows_before) + ", " + std::to_string(rows_after) + "]";
        break;
      }
      case CheckKind::kBaseRange:
      case CheckKind::kViewRange: {
        ok = static_cast<int64_t>(rows.size()) == op.hi - op.lo + 1;
        for (size_t i = 0; ok && i < rows.size(); ++i) {
          ok = rows[i][0].AsInt() == op.lo + static_cast<int64_t>(i);
        }
        what = "range [" + std::to_string(op.lo) + ", " + std::to_string(op.hi) +
               "] returned " + std::to_string(rows.size()) + " rows";
        break;
      }
      default: {
        const int64_t n = static_cast<int64_t>(rows.size());
        ok = n >= rows_before && n <= rows_after;
        what = "window answer has " + std::to_string(n) + " rows; the table had [" +
               std::to_string(rows_before) + ", " + std::to_string(rows_after) + "]";
        break;
      }
    }
    out->tally.Check(ok, op.sql + ": " + what);
  }
}

void ServeWriter(ServeShared* shared, int client, ClientResult* out) {
  Session session(shared->db);
  OpStream stream(*shared->in, shared->seed, client);
  int64_t op_id = static_cast<int64_t>(client) << 40;
  while (!shared->stop.load(std::memory_order_relaxed)) {
    const Op op = stream.Next();
    ++op_id;
    if (op.kind == OpKind::kSqlInsert) shared->started_rows.store(op.lo);
    Result<ResultSet> rs = Status::Internal("not run");
    {
      std::unique_lock<std::shared_mutex> gate(shared->replay_gate,
                                               std::defer_lock);
      if (shared->traced) gate.lock();
      std::optional<ScopedSpan> span;
      if (shared->traced) span.emplace(&out->log, "db.dml", op_id);
      const int64_t start = NowNs();
      rs = session.Execute(op.sql);
      if (!shared->traced) out->write_ms.push_back(MsSince(start));
    }
    ++out->ops;
    const int64_t want = op.kind == OpKind::kSqlInsert ? 1 : op.hi - op.lo + 1;
    out->tally.Check(rs.ok() && rs->affected() == want,
                     op.sql + ": " + (rs.ok() ? "affected " + std::to_string(rs->affected())
                                              : rs.status().ToString()));
    if (!rs.ok()) continue;
    if (op.kind == OpKind::kSqlInsert) {
      shared->model->Append(op.value);
      shared->committed_rows.store(op.lo);
    } else {
      shared->model->Add(op.lo, op.hi, op.value);
    }
  }
}

/// After the clients stop: base table vs the write model, each read
/// class with rewrite on vs off, and the view vs a recompute.
void QuiescentChecks(Database* db, const WorkloadInputs& in, SeqModel* model,
                     Tally* tally) {
  Session on(db);
  Session off(db);
  off.options().enable_view_rewrite = false;
  Result<ResultSet> base = off.Execute("SELECT pos, val FROM seq ORDER BY pos");
  tally->Check(base.ok() && !CompareRows(base->rows(), model->Base()),
               "quiescent: seq differs from the write model");
  for (const QuerySpec& q : in.queries) {
    std::string sql = q.sql;
    if (q.check == CheckKind::kBaseRange || q.check == CheckKind::kViewRange) {
      sql += " WHERE pos BETWEEN 1 AND 100 ORDER BY pos";
    }
    Result<ResultSet> a = on.Execute(sql);
    Result<ResultSet> b = off.Execute(sql);
    std::optional<std::string> diff;
    if (!a.ok() || !b.ok()) {
      diff = (a.ok() ? b.status() : a.status()).ToString();
    } else if (rfv::fuzzing::DiffRowsCanonical(*a, *b).has_value()) {
      diff = DiffRowsTolerant(a->rows(), b->rows());
    }
    tally->Check(!diff.has_value(),
                 "quiescent: rewrite on vs off for " + sql + ": " + diff.value_or(""));
  }
  for (const ViewSpec& view : in.views) {
    Result<ResultSet> content =
        off.Execute("SELECT pos, val FROM " + view.name + " ORDER BY pos");
    std::optional<std::string> diff =
        content.ok() ? CompareRows(content->rows(), model->ViewContent(view))
                     : content.status().ToString();
    tally->Check(!diff.has_value(), "quiescent: view " + view.name +
                                        " vs recompute: " + diff.value_or(""));
  }
}

/// One concurrent phase; returns the per-client results.
std::vector<ClientResult> ServePhase(Database* db, const WorkloadInputs& in,
                                     uint64_t seed, double seconds, bool traced,
                                     double* elapsed_s, Tally* tally) {
  ServeShared shared;
  shared.db = db;
  shared.in = &in;
  shared.traced = traced;
  shared.seed = seed;
  SeqModel model(in.seq_values);
  shared.model = &model;
  shared.committed_rows = static_cast<int64_t>(in.seq_values.size());
  shared.started_rows = shared.committed_rows.load();
  const int clients = kServeReaders + kServeWriters;
  std::vector<ClientResult> results(static_cast<size_t>(clients));
  const int64_t start = NowNs();
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&shared, &results, c] {
        if (IsServeWriter(c)) {
          ServeWriter(&shared, c, &results[static_cast<size_t>(c)]);
        } else {
          ServeReader(&shared, c, &results[static_cast<size_t>(c)]);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    shared.stop = true;
  }
  *elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  QuiescentChecks(db, in, &model, tally);
  return results;
}

void RunServe(const RunConfig& config, const WorkloadInputs& in,
              std::map<std::string, double>* m, Tally* tally,
              std::vector<std::string>* notes) {
  Result<std::unique_ptr<Database>> db = TimedSetup(in, m);
  if (!db.ok()) {
    tally->Check(false, "set-up: " + db.status().ToString());
    return;
  }
  const double timed = config.trace ? config.seconds / 2 : config.seconds;
  double elapsed = 0;
  std::vector<ClientResult> results =
      ServePhase(db->get(), in, config.seed, timed, false, &elapsed, tally);
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  int64_t ops = 0;
  for (ClientResult& r : results) {
    read_ms.insert(read_ms.end(), r.read_ms.begin(), r.read_ms.end());
    write_ms.insert(write_ms.end(), r.write_ms.begin(), r.write_ms.end());
    ops += r.ops;
    tally->attempted += r.tally.attempted;
    tally->failed += r.tally.failed;
    for (const std::string& n : r.tally.notes) {
      if (tally->notes.size() < kMaxNotes) tally->notes.push_back(n);
    }
  }
  AddLatencyMetrics("read", {read_ms}, m, notes);
  AddLatencyMetrics("write", {write_ms}, m, notes);
  const double untraced_ops_per_s = ops / elapsed;
  (*m)["ops_per_s"] = untraced_ops_per_s;
  if (!config.trace) return;

  SetupTimes times;
  Result<std::unique_ptr<Database>> fresh = BuildDatabase(in, &times);
  if (!fresh.ok()) {
    tally->Check(false, "traced set-up: " + fresh.status().ToString());
    return;
  }
  const double wait_before = AdmissionWaitSeconds();
  std::vector<ClientResult> traced =
      ServePhase(fresh->get(), in, config.seed, timed, true, &elapsed, tally);
  const double wait_s = AdmissionWaitSeconds() - wait_before;
  LayerCounters counters;
  int64_t traced_ops = 0;
  std::vector<const SpanLog*> logs;
  std::map<std::string, SpanLog::NameTotals> totals;
  for (ClientResult& r : traced) {
    tally->attempted += r.tally.attempted;
    tally->failed += r.tally.failed;
    for (const std::string& n : r.tally.notes) {
      if (tally->notes.size() < kMaxNotes) tally->notes.push_back(n);
    }
    MergeCounters(r.counters, &counters);
    traced_ops += r.ops;
    logs.push_back(&r.log);
    for (const auto& [name, t] : r.log.Totals()) {
      SpanLog::NameTotals& sum = totals[name];
      sum.total_ns += t.total_ns;
      sum.self_ns += t.self_ns;
      sum.count += t.count;
    }
  }
  AddLayerMetrics(totals, counters, m);
  const double traced_ops_per_s = traced_ops / elapsed;
  (*m)["trace.ops_per_s_untraced"] = untraced_ops_per_s;
  (*m)["trace.ops_per_s_traced"] = traced_ops_per_s;
  (*m)["trace.overhead_frac"] = 1.0 - traced_ops_per_s / untraced_ops_per_s;
  (*m)["db.admission_wait_ms"] = traced_ops == 0 ? 0 : wait_s * 1e3 / traced_ops;
  (*m)["view.full_refresh_frac"] = 0;
  (*m)["view.rows_written_per_op"] = 0;
  MeasureChoiceRegret(in, tally, m, notes);
  WriteTrace(config.trace_path, logs);
}

}  // namespace

RunReport RunWorkload(const RunConfig& config) {
  const WorkloadInputs in = MakeInputs(config.workload, config.seed);
  std::map<std::string, double> m;
  Tally tally;
  std::vector<std::string> notes;
  if (config.workload == Workload::kServeMix) {
    RunServe(config, in, &m, &tally, &notes);
  } else {
    RunSerial(config, in, &m, &tally, &notes);
  }
  m["failed_frac"] = tally.attempted == 0
                         ? 1.0
                         : static_cast<double>(tally.failed) / tally.attempted;
  m["peak_rss_mb"] = PeakRssMb();
  RunReport report;
  report.attempted = tally.attempted;
  report.failed = tally.failed;
  report.notes = tally.notes;
  report.notes.insert(report.notes.end(), notes.begin(), notes.end());
  for (const auto& [name, value] : m) {
    std::string unit = "count";
    const auto ends = [&](const std::string& s) {
      return name.size() >= s.size() &&
             name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends("_ms") || name.find(".self_ms.") != std::string::npos) unit = "ms";
    else if (ends("_us")) unit = "us";
    else if (name.find("ops_per_s") != std::string::npos) unit = "1/s";
    else if (ends("_s")) unit = "s";
    else if (ends("_mb")) unit = "MiB";
    else if (ends("_frac")) unit = "frac";
    else if (ends("_pct")) unit = "%";
    else if (ends("_bytes")) unit = "bytes";
    else if (name.find("regret") != std::string::npos || name.find("qerror") != std::string::npos ||
             name.find("per_row_out") != std::string::npos) unit = "ratio";
    report.metrics.push_back(Metric{name, value, unit});
  }
  return report;
}

}  // namespace rfbench
