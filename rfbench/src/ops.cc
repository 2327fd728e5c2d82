#include "ops.h"

#include <algorithm>
#include <cmath>

namespace rfbench {

using rfv::fuzzing::FuzzFn;
using rfv::fuzzing::RefWindowCall;

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kTable1Compute, Workload::kTable2Derive,
                     Workload::kMaintainMix, Workload::kServeMix}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kTable1Compute: return "table1_compute";
    case Workload::kTable2Derive: return "table2_derive";
    case Workload::kMaintainMix: return "maintain_mix";
    case Workload::kServeMix: return "serve_mix";
  }
  return "?";
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kRead: return "read";
    case OpKind::kUpdate: return "update";
    case OpKind::kInsert: return "insert";
    case OpKind::kDelete: return "delete";
    case OpKind::kSqlInsert: return "sql_insert";
    case OpKind::kSqlUpdate: return "sql_update";
  }
  return "?";
}

double CentsValue(Rng* rng) {
  return static_cast<double>(rng->Range(-100000, 100000)) / 100.0;
}

std::string ViewSpec::Frame() const {
  if (cumulative) return "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW";
  return "ROWS BETWEEN " + std::to_string(l) + " PRECEDING AND " +
         std::to_string(h) + " FOLLOWING";
}

std::string ViewSpec::Sql(const std::string& base) const {
  return "CREATE MATERIALIZED VIEW " + name + " AS SELECT pos, " + fn +
         "(val) OVER (ORDER BY pos " + Frame() + ") FROM " + base;
}

namespace {

std::string RowsFrame(int64_t l, int64_t h) {
  return "ROWS BETWEEN " + std::to_string(l) + " PRECEDING AND " +
         std::to_string(h) + " FOLLOWING";
}

constexpr const char* kCumulativeFrame =
    "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW";

FuzzFn FnOf(const std::string& fn) {
  if (fn == "SUM") return FuzzFn::kSum;
  if (fn == "AVG") return FuzzFn::kAvg;
  if (fn == "MIN") return FuzzFn::kMin;
  if (fn == "MAX") return FuzzFn::kMax;
  if (fn == "COUNT") return FuzzFn::kCount;
  if (fn == "RANK") return FuzzFn::kRank;
  return FuzzFn::kRowNumber;
}

/// `SELECT pos, fn(val) OVER (ORDER BY pos <frame>) FROM <table> ORDER BY
/// pos` — the paper's simple reporting-function query.
std::string WindowSql(const std::string& table, const std::string& fn,
                      const std::string& frame) {
  return "SELECT pos, " + fn + "(val) OVER (ORDER BY pos " + frame +
         ") FROM " + table + " ORDER BY pos";
}

QuerySpec SeqReference(const std::string& label, const std::string& fn,
                       bool cumulative, int64_t l, int64_t h,
                       const std::string& frame_sql) {
  QuerySpec q;
  q.label = label;
  q.sql = WindowSql("seq", fn, frame_sql);
  q.check = CheckKind::kReference;
  q.ref.fn = FnOf(fn);
  q.ref.frame.cumulative = cumulative;
  q.ref.frame.l = l;
  q.ref.frame.h = h;
  q.ref.order_col = 0;
  q.ref.arg_col = 1;
  return q;
}

void AddTable1Queries(WorkloadInputs* in) {
  const char* fns[] = {"SUM", "AVG", "MIN", "MAX", "COUNT"};
  const std::pair<int64_t, int64_t> frames[] = {
      {1, 1}, {2, 1}, {5, 5}, {20, 10}, {100, 100}};
  std::vector<int> sum_rows_index(5, -1);
  for (const char* fn : fns) {
    for (size_t f = 0; f < 5; ++f) {
      const auto [l, h] = frames[f];
      if (std::string(fn) == "SUM") {
        sum_rows_index[f] = static_cast<int>(in->queries.size());
      }
      in->queries.push_back(
          SeqReference("rows", fn, false, l, h, RowsFrame(l, h)));
    }
    in->queries.push_back(
        SeqReference("cumulative", fn, true, 0, 0, kCumulativeFrame));
  }
  // RANGE frames over the dense, unique pos column select exactly the
  // rows the same ROWS frame does, so the ROWS reference checks them.
  for (const char* fn : {"SUM", "MAX"}) {
    for (const auto& [l, h] : {std::pair<int64_t, int64_t>{2, 1}, {10, 10}}) {
      in->queries.push_back(SeqReference(
          "range", fn, false, l, h,
          "RANGE BETWEEN " + std::to_string(l) + " PRECEDING AND " +
              std::to_string(h) + " FOLLOWING"));
    }
  }
  for (const auto& [fn, desc] :
       {std::pair<std::string, bool>{"ROW_NUMBER", false},
        {"RANK", false},
        {"RANK", true}}) {
    QuerySpec q;
    q.label = "ranking";
    q.sql = "SELECT pos, " + fn + "() OVER (ORDER BY val" +
            (desc ? " DESC" : "") + ") FROM seq ORDER BY pos";
    q.ref.fn = FnOf(fn);
    q.ref.order_col = 1;
    q.ref.order_desc = desc;
    in->queries.push_back(q);
  }
  struct Partitioned {
    std::string fn;
    std::string frame;
    bool cumulative;
    int64_t l, h;
  };
  for (const Partitioned& p :
       {Partitioned{"SUM", RowsFrame(3, 3), false, 3, 3},
        Partitioned{"AVG", kCumulativeFrame, true, 0, 0},
        Partitioned{"MAX", RowsFrame(10, 0), false, 10, 0},
        Partitioned{"RANK", "", false, 0, 0}}) {
    QuerySpec q;
    q.label = "partition";
    q.partitioned = true;
    const bool ranking = p.fn == "RANK";
    q.sql = "SELECT grp, pos, " + p.fn + (ranking ? "()" : "(val)") +
            " OVER (PARTITION BY grp ORDER BY " +
            (ranking ? std::string("val") : "pos " + p.frame) +
            ") FROM pseq ORDER BY grp, pos";
    q.ref.fn = FnOf(p.fn);
    q.ref.frame.cumulative = p.cumulative;
    q.ref.frame.l = p.l;
    q.ref.frame.h = p.h;
    q.ref.partition_col = 0;
    q.ref.order_col = ranking ? 2 : 1;
    q.ref.arg_col = ranking ? -1 : 2;
    in->queries.push_back(q);
  }
  // Fig. 2: the window as a self join, IN form for the paper's narrow
  // windows and BETWEEN for wider ones; answered with the pos index.
  for (size_t f = 0; f < 4; ++f) {
    const auto [l, h] = frames[f];
    QuerySpec q;
    q.label = "selfjoin";
    q.check = CheckKind::kSelfJoin;
    q.native_query = sum_rows_index[f];
    std::string predicate;
    if (l + h <= 3) {
      predicate = "s1.pos IN (";
      for (int64_t d = -h; d <= l; ++d) {
        predicate += (d == -h ? "" : ", ") + std::string("s2.pos");
        if (d != 0) {
          predicate += (d < 0 ? " - " : " + ") + std::to_string(std::abs(d));
        }
      }
      predicate += ")";
    } else {
      predicate = "s2.pos BETWEEN s1.pos - " + std::to_string(l) +
                  " AND s1.pos + " + std::to_string(h);
    }
    q.sql = "SELECT s1.pos AS pos, SUM(s2.val) AS val FROM seq s1, seq s2 "
            "WHERE " + predicate + " GROUP BY s1.pos ORDER BY s1.pos";
    in->queries.push_back(q);
  }
}

QuerySpec RewriteOff(const std::string& label, const std::string& table,
                     const std::string& fn, const std::string& frame) {
  QuerySpec q;
  q.label = label;
  q.sql = WindowSql(table, fn, frame);
  q.check = CheckKind::kRewriteOff;
  return q;
}

void AddTable2Queries(WorkloadInputs* in) {
  in->views = {{"v_s21", "SUM", false, 2, 1},
               {"v_cum", "SUM", true, 0, 0},
               {"v_s4040", "SUM", false, 40, 40},
               {"v_min", "MIN", false, 3, 3},
               {"v_max", "MAX", false, 3, 3}};
  for (const ViewSpec& v : in->views) {
    in->queries.push_back(RewriteOff("direct", "seq", v.fn, v.Frame()));
  }
  for (const auto& [l, h] : {std::pair<int64_t, int64_t>{7, 3},
                             {15, 15},
                             {0, 9},
                             {30, 0}}) {
    in->queries.push_back(RewriteOff("cumdiff", "seq", "SUM", RowsFrame(l, h)));
  }
  for (const auto& [l, h] : {std::pair<int64_t, int64_t>{3, 1},
                             {4, 2},
                             {44, 44},
                             {121, 41},
                             {40, 44}}) {
    in->queries.push_back(RewriteOff("oa", "seq", "SUM", RowsFrame(l, h)));
  }
  in->queries.push_back(RewriteOff("oa", "seq", "MIN", RowsFrame(5, 5)));
  in->queries.push_back(RewriteOff("oa", "seq", "MAX", RowsFrame(4, 6)));
  // Not derivable: narrower MIN/MAX windows than any view, a RANGE
  // frame, a ranking function and a filtered window input.
  in->queries.push_back(RewriteOff("native", "seq", "MIN", RowsFrame(1, 1)));
  in->queries.push_back(RewriteOff("native", "seq", "MAX", RowsFrame(2, 0)));
  in->queries.push_back(RewriteOff(
      "native", "seq", "SUM", "RANGE BETWEEN 2 PRECEDING AND 1 FOLLOWING"));
  QuerySpec rank;
  rank.label = "native";
  rank.check = CheckKind::kRewriteOff;
  rank.sql = "SELECT pos, RANK() OVER (ORDER BY val) FROM seq ORDER BY pos";
  in->queries.push_back(rank);
  QuerySpec filtered = rank;
  filtered.sql =
      "SELECT pos, SUM(val) OVER (ORDER BY pos " + RowsFrame(2, 1) +
      ") FROM seq WHERE pos > 100 ORDER BY pos";
  in->queries.push_back(filtered);
}

void AddMaintainQueries(WorkloadInputs* in) {
  in->views = {{"m_sum", "SUM", false, 3, 2},
               {"m_cum", "SUM", true, 0, 0},
               {"m_min", "MIN", false, 2, 2},
               {"m_max", "MAX", false, 2, 2}};
  for (size_t v = 0; v < in->views.size(); ++v) {
    QuerySpec q;
    q.label = "viewrange";
    q.check = CheckKind::kViewRange;
    q.view = static_cast<int>(v);
    q.sql = "SELECT pos, val FROM " + in->views[v].name;
    in->queries.push_back(q);
  }
  QuerySpec direct;
  direct.label = "direct";
  direct.check = CheckKind::kModelWindow;
  direct.view = 0;
  direct.sql = WindowSql("mseq", "SUM", in->views[0].Frame());
  in->queries.push_back(direct);
}

void AddServeQueries(WorkloadInputs* in) {
  in->views = {{"sv", "SUM", false, 2, 1}};
  QuerySpec scan;
  scan.label = "scan";
  scan.check = CheckKind::kBaseRange;
  scan.sql = "SELECT pos, val FROM seq";
  in->queries.push_back(scan);
  QuerySpec count;
  count.label = "count";
  count.check = CheckKind::kCount;
  count.sql = "SELECT COUNT(*) FROM seq";
  in->queries.push_back(count);
  QuerySpec view = scan;
  view.label = "viewscan";
  view.check = CheckKind::kViewRange;
  view.view = 0;
  view.sql = "SELECT pos, val FROM sv";
  in->queries.push_back(view);
  in->queries.push_back(
      RewriteOff("window", "seq", "SUM", in->views[0].Frame()));
}

/// Each client's op mix as one block: per query class (a catalog
/// label), how many times each of its queries appears; "write" is a
/// plain count of writes.
std::vector<std::pair<std::string, int>> BlockCopies(Workload w, int client) {
  switch (w) {
    case Workload::kTable1Compute:  // 25+5+4+3+8+8 = 53 reads
      return {{"rows", 1}, {"cumulative", 1}, {"range", 1},
              {"ranking", 1}, {"partition", 2}, {"selfjoin", 2}};
    case Workload::kTable2Derive:  // 5+8+14+5 = 32 reads
      // Derivations (cumdiff, oa) twice: they are what this workload
      // measures, and it keeps the p50 inside their latency cluster
      // rather than on its edge.
      return {{"direct", 1}, {"cumdiff", 2}, {"oa", 2}, {"native", 1}};
    case Workload::kMaintainMix:  // 50 writes, 4x11 range scans, 6 direct
      return {{"write", 50}, {"viewrange", 11}, {"direct", 6}};
    case Workload::kServeMix:
      if (IsServeWriter(client)) return {{"write", 100}};
      return {{"scan", 35}, {"count", 20}, {"viewscan", 25}, {"window", 20}};
  }
  return {};
}

/// maintain_mix: every kMaintainShiftEvery-th write inserts or deletes
/// (each forcing full view refreshes), the rest update.
constexpr int64_t kMaintainShiftEvery = 50;
constexpr int64_t kRangeWidth = 64;
constexpr int64_t kServeScanWidth = 100;
constexpr int64_t kServeBandWidth = 16;

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    const auto j = static_cast<size_t>(rng->Range(0, static_cast<int64_t>(i) - 1));
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

/// A position in [1, rows] skewed toward the most recent (highest)
/// positions: rows - floor(rows * u^3).
int64_t RecentPosition(Rng* rng, int64_t rows) {
  const double u = rng->Uniform();
  const int64_t back = static_cast<int64_t>(
      std::floor(static_cast<double>(rows) * u * u * u));
  return std::clamp<int64_t>(rows - back, 1, rows);
}

}  // namespace

WorkloadInputs MakeInputs(Workload w, uint64_t seed) {
  WorkloadInputs in;
  in.workload = w;
  Rng rng(seed ^ 0x5eedda7a5eedda7aull);
  int64_t rows = 0;
  switch (w) {
    case Workload::kTable1Compute:
      rows = kTable1Rows;
      in.base_table = "seq";
      AddTable1Queries(&in);
      in.pseq_values.resize(kTable1Groups);
      for (auto& group : in.pseq_values) {
        group.resize(kTable1GroupRows);
        for (double& v : group) v = CentsValue(&rng);
      }
      break;
    case Workload::kTable2Derive:
      rows = kTable2Rows;
      in.base_table = "seq";
      AddTable2Queries(&in);
      break;
    case Workload::kMaintainMix:
      rows = kMaintainRows;
      in.base_table = "mseq";
      AddMaintainQueries(&in);
      break;
    case Workload::kServeMix:
      rows = kServeRows;
      in.base_table = "seq";
      AddServeQueries(&in);
      break;
  }
  in.seq_values.resize(static_cast<size_t>(rows));
  for (double& v : in.seq_values) v = CentsValue(&rng);
  return in;
}

OpStream::OpStream(const WorkloadInputs& inputs, uint64_t seed, int client)
    : inputs_(&inputs),
      rng_(seed * 0x2545f4914f6cdd1dull + static_cast<uint64_t>(client) + 1),
      client_(client),
      rows_(static_cast<int64_t>(inputs.seq_values.size())),
      next_shift_insert_(true) {}

Op OpStream::Next() {
  // The mix is stratified: every block holds the same multiset of
  // queries and writes (BlockCopies) in a seeded order, so runs on
  // different seeds differ in order, data, ranges and positions but
  // not in what work they do.
  if (block_.empty()) {
    for (const auto& [label, copies] : BlockCopies(inputs_->workload, client_)) {
      if (label == "write") {
        block_.insert(block_.end(), static_cast<size_t>(copies), -1);
        continue;
      }
      for (size_t q = 0; q < inputs_->queries.size(); ++q) {
        if (inputs_->queries[q].label != label) continue;
        block_.insert(block_.end(), static_cast<size_t>(copies), static_cast<int>(q));
      }
    }
    Shuffle(&block_, &rng_);
  }
  const int slot = block_.back();
  block_.pop_back();
  return slot < 0 ? NextWrite() : NextRead(slot);
}

Op OpStream::NextRead(int query) {
  Op op;
  op.query = query;
  const QuerySpec& q = inputs_->queries[static_cast<size_t>(op.query)];
  op.sql = q.sql;
  if (q.check == CheckKind::kViewRange || q.check == CheckKind::kBaseRange) {
    // Ranges stay inside the initial rows, which every snapshot holds
    // (maintain_mix inserts before it deletes, serve_mix only appends).
    const int64_t width = inputs_->workload == Workload::kServeMix
                              ? kServeScanWidth
                              : kRangeWidth;
    const int64_t initial = static_cast<int64_t>(inputs_->seq_values.size());
    op.lo = rng_.Range(1, initial - width + 1);
    op.hi = op.lo + width - 1;
    op.sql += " WHERE pos BETWEEN " + std::to_string(op.lo) + " AND " +
              std::to_string(op.hi) + " ORDER BY pos";
  }
  return op;
}

Op OpStream::NextWrite() {
  Op op;
  if (inputs_->workload == Workload::kServeMix) {
    if (rng_.Chance(0.5)) {
      op.kind = OpKind::kSqlInsert;
      op.lo = ++rows_;
      op.value = CentsValue(&rng_);
      op.sql = "INSERT INTO seq VALUES (" + std::to_string(op.lo) + ", " +
               std::to_string(op.value) + ")";
    } else {
      op.kind = OpKind::kSqlUpdate;
      op.lo = rng_.Range(1, rows_ - kServeBandWidth + 1);
      op.hi = op.lo + kServeBandWidth - 1;
      op.value = static_cast<double>(rng_.Range(-500, 500)) / 100.0;
      op.sql = "UPDATE seq SET val = val + " + std::to_string(op.value) +
               " WHERE pos BETWEEN " + std::to_string(op.lo) + " AND " +
               std::to_string(op.hi);
    }
    return op;
  }
  // maintain_mix: recent-skewed updates; inserts and deletes alternate
  // so the row count stays within one of its initial value.
  if (++writes_ % kMaintainShiftEvery == 0) {
    op.kind = next_shift_insert_ ? OpKind::kInsert : OpKind::kDelete;
    if (next_shift_insert_) {
      op.lo = RecentPosition(&rng_, rows_ + 1);
      op.value = CentsValue(&rng_);
      ++rows_;
    } else {
      op.lo = RecentPosition(&rng_, rows_);
      --rows_;
    }
    next_shift_insert_ = !next_shift_insert_;
    return op;
  }
  op.kind = OpKind::kUpdate;
  op.lo = RecentPosition(&rng_, rows_);
  op.value = CentsValue(&rng_);
  return op;
}

}  // namespace rfbench
