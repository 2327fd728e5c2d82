#ifndef RFBENCH_REPLAY_H_
#define RFBENCH_REPLAY_H_

// The traced replay: one SELECT driven through the engine's layer entry
// points in the order Database::ExecuteSelect calls them, with a span
// around each call and the per-layer counters gathered alongside.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core.h"
#include "db/database.h"

namespace rfbench {

/// Per-layer counters accumulated over a traced run's reads.
struct LayerCounters {
  int64_t reads = 0;
  int64_t rewrite_tried = 0;
  int64_t rewrite_taken = 0;
  int64_t verdicts = 0;
  int64_t rewrite_sql_bytes = 0;
  /// Exclusive operator time by operator name, summed over reads.
  std::map<std::string, int64_t> self_ns;
  int64_t rows_in = 0;        ///< summed rows_in of every operator
  int64_t root_rows_out = 0;  ///< rows the plans returned
  int64_t next_calls = 0;
  int64_t vectors = 0;
  int64_t batches = 0;
  int64_t peak_buffered_rows = 0;
  std::vector<double> qerrors;
  /// Session::Execute wall time minus the layer phases it timed for the
  /// same statement (ResultSet::phase_ns).
  int64_t glue_ns = 0;
  int64_t glue_samples = 0;
};

/// Replays `sql` (a SELECT) under `options`. Spans (children of the
/// innermost open span of `log`): parser.parse, rewrite.try,
/// parser.reparse (when rewritten), plan.bind, storage.pin (each table
/// the final plan scans), plan.optimize, exec.build, exec.run.
rfv::Result<std::vector<rfv::Row>> ReplaySelect(
    rfv::Database* db, const rfv::Database::Options& options,
    const std::string& sql, int64_t op_id, SpanLog* log,
    LayerCounters* counters);

}  // namespace rfbench

#endif  // RFBENCH_REPLAY_H_
