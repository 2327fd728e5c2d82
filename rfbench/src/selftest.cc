// Tests of the benchmark's own logic: op streams are a function of the
// seed, the tail percentile follows the ten-samples-beyond rule, and
// exclusive operator time is inclusive time minus the children's.
// Exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core.h"
#include "ops.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

std::vector<rfbench::Op> Stream(rfbench::Workload w, uint64_t seed,
                                int client, int count) {
  const rfbench::WorkloadInputs in = rfbench::MakeInputs(w, seed);
  rfbench::OpStream stream(in, seed, client);
  std::vector<rfbench::Op> ops;
  for (int i = 0; i < count; ++i) ops.push_back(stream.Next());
  return ops;
}

void TestOpStreamIsDeterministic() {
  using rfbench::Workload;
  for (Workload w : {Workload::kTable1Compute, Workload::kTable2Derive,
                     Workload::kMaintainMix, Workload::kServeMix}) {
    const std::string name = rfbench::WorkloadName(w);
    const int client = w == Workload::kServeMix ? rfbench::kServeReaders : 0;
    Expect(Stream(w, 7, client, 2000) == Stream(w, 7, client, 2000),
           name + ": same seed, same op stream");
    Expect(!(Stream(w, 7, client, 2000) == Stream(w, 8, client, 2000)),
           name + ": another seed, another op stream");
    Expect(rfbench::MakeInputs(w, 7).seq_values ==
               rfbench::MakeInputs(w, 7).seq_values,
           name + ": same seed, same table contents");
    Expect(rfbench::MakeInputs(w, 7).seq_values !=
               rfbench::MakeInputs(w, 8).seq_values,
           name + ": another seed, other table contents");
  }
  // Every query class of a mix is drawn.
  const rfbench::WorkloadInputs in =
      rfbench::MakeInputs(rfbench::Workload::kTable2Derive, 3);
  std::vector<bool> seen(in.queries.size(), false);
  for (const rfbench::Op& op :
       Stream(rfbench::Workload::kTable2Derive, 3, 0, 5000)) {
    seen[static_cast<size_t>(op.query)] = true;
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    Expect(seen[i], "table2_derive draws query " + in.queries[i].sql);
  }
}

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestTailRule() {
  // 10 samples: nothing has ten beyond it.
  Expect(!rfbench::PickTail(Ramp(10)).has_value(), "10 samples: no tail");
  // 20 samples: p50 (rank 10) leaves 10 beyond; p75 leaves 5.
  auto t = rfbench::PickTail(Ramp(20));
  Expect(t && t->percentile == 50.0 && t->value == 10.0 && t->beyond == 10,
         "20 samples pick p50");
  // 100 samples: p90 (rank 90) leaves 10; p95 leaves 5.
  t = rfbench::PickTail(Ramp(100));
  Expect(t && t->percentile == 90.0 && t->value == 90.0, "100 samples pick p90");
  // 999 samples: p99 (rank 990) leaves 9, so p95 (rank 950) it is.
  t = rfbench::PickTail(Ramp(999));
  Expect(t && t->percentile == 95.0 && t->beyond == 49, "999 samples pick p95");
  // 1000 samples: p99 leaves exactly 10.
  t = rfbench::PickTail(Ramp(1000));
  Expect(t && t->percentile == 99.0 && t->value == 990.0 && t->beyond == 10,
         "1000 samples pick p99");
  // 10000 samples: p99 is the top rung (100 beyond).
  t = rfbench::PickTail(Ramp(10000));
  Expect(t && t->percentile == 99.0 && t->value == 9900.0 && t->beyond == 100,
         "10000 samples pick p99, the top rung");
  Expect(rfbench::Median({3, 1, 2}) == 2 && rfbench::Median({4, 1, 3, 2}) == 2.5,
         "median of odd and even counts");
}

rfv::OperatorMetricsEntry Entry(const char* name, int depth, int64_t open_ns,
                                int64_t next_ns) {
  rfv::OperatorMetricsEntry e;
  e.name = name;
  e.depth = depth;
  e.metrics.open_ns = open_ns;
  e.metrics.next_ns = next_ns;
  return e;
}

void TestExclusiveTime() {
  // sort(100) <- hash_aggregate(70) <- merge_band_join(50) <- scan(10), scan(15)
  //          \                                              (second child
  // pre-order with depths; the join's children are both scans.
  const std::vector<rfv::OperatorMetricsEntry> tree = {
      Entry("sort", 0, 60, 40),             // 100 inclusive
      Entry("hash_aggregate", 1, 50, 20),   // 70
      Entry("merge_band_join", 2, 5, 45),   // 50
      Entry("scan", 3, 2, 8),               // 10
      Entry("scan", 3, 5, 10),              // 15
      Entry("project", 1, 1, 9),            // 10, a second child of sort
  };
  const std::vector<int64_t> self = rfbench::ExclusiveNs(tree);
  const std::vector<int64_t> want = {100 - 70 - 10, 70 - 50, 50 - 10 - 15,
                                     10, 15, 10};
  Expect(self == want, "exclusive time = inclusive minus direct children");
  // Clock skew can leave a parent short of its children: clamp at zero.
  const std::vector<rfv::OperatorMetricsEntry> skew = {
      Entry("filter", 0, 0, 9), Entry("scan", 1, 0, 10)};
  Expect(rfbench::ExclusiveNs(skew) == std::vector<int64_t>({0, 10}),
         "exclusive time clamps at zero");
}

void TestSpanSelfTime() {
  rfbench::SpanLog log;
  const int32_t root = log.Begin("op.read", 1);
  const int32_t child = log.Begin("parser.parse", 1);
  log.End(child);
  log.End(root);
  const auto totals = log.Totals();
  const auto& r = totals.at("op.read");
  const auto& c = totals.at("parser.parse");
  Expect(r.self_ns == r.total_ns - c.total_ns, "span self time excludes children");
  Expect(log.spans()[1].parent == root, "span parent recorded");
}

void TestTolerance() {
  using rfv::Value;
  Expect(rfbench::ValuesClose(Value::Double(1e7), Value::Double(1e7 + 1e-3)),
         "relative tolerance on large sums");
  Expect(!rfbench::ValuesClose(Value::Double(1.0), Value::Double(1.001)),
         "real differences are caught");
  Expect(rfbench::ValuesClose(Value::Int(3), Value::Double(3.0)),
         "int and double compare by value");
}

}  // namespace

int main() {
  TestOpStreamIsDeterministic();
  TestTailRule();
  TestExclusiveTime();
  TestSpanSelfTime();
  TestTolerance();
  if (failures == 0) std::printf("rfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
