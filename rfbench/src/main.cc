// rfbench: runs one workload of the rfview benchmark and prints every
// metric it measured, one `name value unit` line each, then all of them
// as one JSON line (the last line of standard output; run.py narrows it
// to the metrics BENCHMARK.json lists).
//
//   rfbench --workload table1_compute --seed 1 --seconds 10 --trace 0
//
// --trace 0 is the end-to-end run; --trace 1 the traced run, which adds
// the per-layer metrics (spans go to --trace-out).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::cerr << "usage: rfbench --workload "
               "table1_compute|table2_derive|maintain_mix|serve_mix "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      const auto w = rfbench::ParseWorkload(value);
      if (!w.has_value()) return Usage();
      config.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || config.seconds <= 0) return Usage();

  const rfbench::RunReport report = rfbench::RunWorkload(config);
  for (const rfbench::Metric& m : report.metrics) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  std::printf("# attempted=%lld failed=%lld\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  std::printf("%s\n", rfbench::ResultJson(report.correct(), report.attempted,
                                          report.failed, report.metrics)
                          .c_str());
  return 0;
}
