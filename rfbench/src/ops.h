#ifndef RFBENCH_OPS_H_
#define RFBENCH_OPS_H_

// The workloads' seeded inputs: table contents, the catalog of distinct
// read queries each workload draws from, and the operation stream. All
// of it is a pure function of (workload, seed); the engine only ever
// sees the generated SQL text and PropagateBase* arguments.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core.h"
#include "testing/reference_window.h"

namespace rfbench {

enum class Workload { kTable1Compute, kTable2Derive, kMaintainMix, kServeMix };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload w);

// Sizes (see README.md for why each workload has its shape).
inline constexpr int64_t kTable1Rows = 15000;        // paper's largest n
inline constexpr int64_t kTable1Groups = 16;         // pseq partitions
inline constexpr int64_t kTable1GroupRows = 1024;    // 16384 rows > 4096
inline constexpr int64_t kTable2Rows = 2000;         // Table 2 / A7 size
inline constexpr int64_t kMaintainRows = 40000;      // > one core's L2
inline constexpr int64_t kServeRows = 5000;          // A9's size
inline constexpr int kServeReaders = 3;
inline constexpr int kServeWriters = 1;

/// How a read's answer is checked.
enum class CheckKind {
  kReference,   ///< ReferenceWindow over the generated data
  kSelfJoin,    ///< equals the native window query `native_query`
  kRewriteOff,  ///< equals the same SQL with enable_view_rewrite=false
  kViewRange,   ///< view content rows in [lo, hi] vs the write model
  kBaseRange,   ///< base rows in [lo, hi] (serve_mix)
  kCount,       ///< COUNT(*) of the base table (serve_mix)
  kModelWindow, ///< full window answer vs the write model
};

/// One distinct read query of a workload's catalog.
struct QuerySpec {
  std::string sql;
  std::string label;  ///< query class, e.g. "rows", "selfjoin", "maxoa"
  CheckKind check = CheckKind::kReference;
  /// kReference: the call over the generated rows, whose columns are
  /// (pos, val) for seq or (grp, pos, val) for pseq.
  rfv::fuzzing::RefWindowCall ref;
  bool partitioned = false;
  /// kSelfJoin: catalog index of the native query it must equal.
  int native_query = -1;
  /// kViewRange / kModelWindow: which view (index into the workload's
  /// view list) defines the expected values.
  int view = -1;
};

/// A materialized view of a workload (name and defining window).
struct ViewSpec {
  std::string name;
  std::string fn;  ///< SUM, MIN or MAX
  bool cumulative = false;
  int64_t l = 0;
  int64_t h = 0;
  std::string Sql(const std::string& base) const;
  /// The OVER clause's frame text (ROWS ...).
  std::string Frame() const;
};

enum class OpKind {
  kRead,
  kUpdate,     ///< PropagateBaseUpdate
  kInsert,     ///< PropagateBaseInsert
  kDelete,     ///< PropagateBaseDelete
  kSqlInsert,  ///< INSERT append through Session::Execute
  kSqlUpdate,  ///< band UPDATE through Session::Execute
};

const char* OpKindName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kRead;
  int query = -1;    ///< catalog index (reads)
  std::string sql;   ///< the statement (reads and SQL DML)
  int64_t lo = 0;    ///< range reads / PropagateBase* position / band lo
  int64_t hi = 0;    ///< range reads / band hi
  double value = 0;  ///< written value or UPDATE delta
  bool operator==(const Op& o) const {
    return kind == o.kind && query == o.query && sql == o.sql &&
           lo == o.lo && hi == o.hi && value == o.value;
  }
};

/// A value with two decimals (cents), like the paper's sales figures:
/// not exactly representable, so sums depend on evaluation order.
double CentsValue(Rng* rng);

/// Everything a workload needs, generated from the seed.
struct WorkloadInputs {
  Workload workload = Workload::kTable1Compute;
  /// seq-shaped base data: val at position i+1.
  std::vector<double> seq_values;
  /// pseq (table1_compute): values per group, positions 1..kTable1GroupRows.
  std::vector<std::vector<double>> pseq_values;
  std::vector<ViewSpec> views;
  std::vector<QuerySpec> queries;
  std::string base_table;  ///< table written / read by the op stream
};

WorkloadInputs MakeInputs(Workload w, uint64_t seed);

/// The operation stream of one client. Deterministic per (workload,
/// seed, client): maintain_mix tracks the row count its inserts and
/// deletes imply, serve_mix's writer the count its appends imply.
class OpStream {
 public:
  OpStream(const WorkloadInputs& inputs, uint64_t seed, int client = 0);
  Op Next();
  /// True between blocks: every block holds the same operations.
  bool AtBlockEnd() const { return block_.empty(); }

 private:
  Op NextRead(int query);
  Op NextWrite();

  const WorkloadInputs* inputs_;
  Rng rng_;
  int client_;
  int64_t rows_;            ///< current base row count (writers)
  bool next_shift_insert_;  ///< maintain_mix alternates insert/delete
  int64_t writes_ = 0;
  std::vector<int> block_;  ///< rest of the current block: query or -1 (write)
};

/// True for the client index that writes in serve_mix.
inline bool IsServeWriter(int client) { return client == kServeReaders; }

}  // namespace rfbench

#endif  // RFBENCH_OPS_H_
