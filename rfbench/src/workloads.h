#ifndef RFBENCH_WORKLOADS_H_
#define RFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core.h"
#include "ops.h"

namespace rfbench {

struct RunConfig {
  Workload workload = Workload::kTable1Compute;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end run (tracing off). true: the traced run, which
  /// replays the op stream through the layer entry points.
  bool trace = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_path;
};

struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Every metric the run measured, by name.
  std::vector<Metric> metrics;
  /// Human-readable notes: failure descriptions, chosen percentiles.
  std::vector<std::string> notes;
  bool correct() const { return failed == 0; }
};

/// Runs one workload for the configured time and returns its metrics.
RunReport RunWorkload(const RunConfig& config);

/// Database set-up repeats per run; setup_s is their median.
inline constexpr int kSetupRepeats = 9;

}  // namespace rfbench

#endif  // RFBENCH_WORKLOADS_H_
