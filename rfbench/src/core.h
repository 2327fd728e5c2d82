#ifndef RFBENCH_CORE_H_
#define RFBENCH_CORE_H_

// Workload-independent pieces of the benchmark: the seeded RNG, latency
// summaries (median and the ten-samples-beyond tail rule), exclusive
// operator time from a pre-order metrics tree, the in-memory span log,
// tolerant result comparison and the result-line printer.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/row.h"
#include "exec/executor.h"

namespace rfbench {

/// splitmix64: a tiny, fully specified generator so an op stream is a
/// pure function of the seed on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform integer in [lo, hi] (inclusive).
  int64_t Range(int64_t lo, int64_t hi);
  /// Uniform double in [0, 1).
  double Uniform();
  bool Chance(double p) { return Uniform() < p; }

 private:
  uint64_t state_;
};

int64_t NowNs();

double Median(std::vector<double> values);

/// A tail latency: the percentile chosen, its value and how many
/// samples lie beyond it.
struct TailPick {
  double percentile = 0;
  double value = 0;
  int64_t beyond = 0;
};

/// Percentiles the tail may be reported at, highest first.
/// p99 is the top rung: at the benchmark's sample counts (1000 to
/// 10000 per run) a p99.9 rung would switch the reported percentile
/// with small changes in throughput.
inline constexpr double kTailLadder[] = {99.0, 95.0, 90.0, 75.0, 50.0};

/// Nearest-rank percentile: the sample at 1-based rank ceil(p/100 * N)
/// of the sorted samples. Precondition: `sorted` is non-empty.
double NearestRank(const std::vector<double>& sorted, double p);

/// The highest percentile of kTailLadder that has at least ten samples
/// beyond it (N - ceil(p/100 * N) >= 10). nullopt with fewer than 11
/// samples.
std::optional<TailPick> PickTail(std::vector<double> samples);

/// Exclusive (self) wall time of each operator of a CollectMetrics
/// pre-order tree: its inclusive open+next time minus that of its direct
/// children (entries one level deeper until the subtree ends). Clamped
/// at zero: the clock reads around nested calls can leave a parent a few
/// nanoseconds short of its children.
std::vector<int64_t> ExclusiveNs(
    const std::vector<rfv::OperatorMetricsEntry>& entries);

/// q-error of one estimate: max(est, act) / min(est, act), both floored
/// at one row.
double QError(double estimated, double actual);

/// One traced call: name, start, end, the span that caused it (-1 for a
/// root) and the id of the operation it belongs to.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t op_id = 0;
};

/// Spans kept in memory for the whole traced run and written out at its
/// end. Not thread-safe: one log per client thread.
class SpanLog {
 public:
  /// Opens a span under the innermost open span; returns its index.
  int32_t Begin(const std::string& name, int64_t op_id);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed self time (duration minus the union of its
  /// children's intervals) and the number of spans.
  struct NameTotals {
    int64_t self_ns = 0;
    int64_t total_ns = 0;
    int64_t count = 0;
  };
  std::map<std::string, NameTotals> Totals() const;

  /// JSON array of spans (name, start_ns, end_ns, parent, op).
  std::string ToJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int64_t op_id)
      : log_(log), index_(log->Begin(name, op_id)) {}
  ~ScopedSpan() { log_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// DOUBLE values match when |a - b| <= kAbsTol + kRelTol * max(|a|, |b|):
/// derived window sums are differences of large sums, so they differ
/// from a recompute in the last bits.
inline constexpr double kRelTol = 1e-9;
inline constexpr double kAbsTol = 1e-6;
bool ValuesClose(const rfv::Value& a, const rfv::Value& b);

/// Row-set comparison under canonical ordering with the tolerance above
/// for numeric cells. nullopt on a match, else a short description.
std::optional<std::string> DiffRowsTolerant(std::vector<rfv::Row> a,
                                            std::vector<rfv::Row> b);

/// Peak resident set size (VmHWM) in MiB; 0 when /proc is unavailable.
double PeakRssMb();

/// A named metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's last output line.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace rfbench

#endif  // RFBENCH_CORE_H_
