#include "core.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "testing/result_compare.h"

namespace rfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t Rng::Range(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

namespace {

/// 1-based nearest rank of percentile p among n samples, in integer
/// arithmetic on tenths of a percent so 99% of 1000 is exactly 990.
int64_t RankOf(double p, int64_t n) {
  const int64_t tenths = std::llround(p * 10.0);
  const int64_t rank = (tenths * n + 999) / 1000;
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double p) {
  const int64_t n = static_cast<int64_t>(sorted.size());
  return sorted[static_cast<size_t>(RankOf(p, n) - 1)];
}

std::optional<TailPick> PickTail(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const int64_t n = static_cast<int64_t>(samples.size());
  for (double p : kTailLadder) {
    const int64_t beyond = n - RankOf(p, n);
    if (n > 0 && beyond >= 10) {
      return TailPick{p, NearestRank(samples, p), beyond};
    }
  }
  return std::nullopt;
}

std::vector<int64_t> ExclusiveNs(
    const std::vector<rfv::OperatorMetricsEntry>& entries) {
  auto inclusive = [&](size_t i) {
    return entries[i].metrics.open_ns + entries[i].metrics.next_ns;
  };
  std::vector<int64_t> self(entries.size(), 0);
  for (size_t i = 0; i < entries.size(); ++i) {
    int64_t children = 0;
    for (size_t j = i + 1;
         j < entries.size() && entries[j].depth > entries[i].depth; ++j) {
      if (entries[j].depth == entries[i].depth + 1) children += inclusive(j);
    }
    self[i] = std::max<int64_t>(0, inclusive(i) - children);
  }
  return self;
}

double QError(double estimated, double actual) {
  const double e = std::max(estimated, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e, a) / std::min(e, a);
}

int32_t SpanLog::Begin(const std::string& name, int64_t op_id) {
  Span span;
  span.name = name;
  span.op_id = op_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, SpanLog::NameTotals> SpanLog::Totals() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> child_intervals(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_intervals[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                                   s.end_ns);
    }
  }
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& intervals = child_intervals[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = -1;
    for (const auto& [lo_raw, hi_raw] : intervals) {
      const int64_t lo = std::max(lo_raw, s.start_ns);
      const int64_t hi = std::min(hi_raw, s.end_ns);
      if (hi <= lo) continue;
      if (lo > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = lo;
        run_end = hi;
      } else {
        run_end = std::max(run_end, hi);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    NameTotals& t = totals[s.name];
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - covered;
    ++t.count;
  }
  return totals;
}

std::string SpanLog::ToJson() const {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op_id << "}";
  }
  out << "]\n";
  return out.str();
}

bool ValuesClose(const rfv::Value& a, const rfv::Value& b) {
  if (a.is_null() || b.is_null() || !a.is_numeric() || !b.is_numeric()) {
    return a == b;
  }
  const double x = a.ToDouble();
  const double y = b.ToDouble();
  return std::fabs(x - y) <=
         kAbsTol + kRelTol * std::max(std::fabs(x), std::fabs(y));
}

std::optional<std::string> DiffRowsTolerant(std::vector<rfv::Row> a,
                                            std::vector<rfv::Row> b) {
  if (a.size() != b.size()) {
    return "row count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  rfv::fuzzing::CanonicalSort(&a);
  rfv::fuzzing::CanonicalSort(&b);
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) {
      return "column count differs at row " + std::to_string(r);
    }
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!ValuesClose(a[r][c], b[r][c])) {
        std::string what = "row " + std::to_string(r) + ": " + a[r].ToString() +
                           " vs " + b[r].ToString();
        if (a[r][c].is_numeric() && b[r][c].is_numeric()) {
          what += " (column " + std::to_string(c) + " differs by " +
                  std::to_string(a[r][c].ToDouble() - b[r][c].ToDouble()) + ")";
        }
        return what;
      }
    }
  }
  return std::nullopt;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace rfbench
