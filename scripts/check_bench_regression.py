#!/usr/bin/env python3
"""Guard-rails tracked benchmarks against a committed baseline.

Usage: check_bench_regression.py <BENCH_*.json>... [--baseline=FILE]

Reads the bench-smoke JSON artifacts (bench/json_reporter.h schema) and
compares every benchmark named in the committed baseline
(scripts/bench_baseline.json) against its recorded ns_per_op. A run
fails the gate when it is more than `max_ratio` (default 2.0) times
slower than baseline — wide enough to absorb CI-runner noise and the
deliberately tiny --benchmark_min_time smoke runs, narrow enough to
catch an accidental fallback from the vector join paths to the row
paths (a >2.5x cliff on the tracked entries in BENCH_derive.json), a
return of whole-table work to the paper's §2.3 view maintenance
(BENCH_maintenance.json) or a slower complete-sequence materialization
(BENCH_compute.json, and a view's full refresh in BENCH_maintenance.json).

Benchmarks present in the artifacts but absent from the baseline are
ignored (new benchmarks don't need a baseline entry to land); baseline
entries missing from every artifact fail, so renames must update both.
Exits non-zero with one line per violation.
"""

import json
import os
import sys

DEFAULT_BASELINE = os.path.join(os.path.dirname(__file__),
                                "bench_baseline.json")


def main():
    artifact_paths = [a for a in sys.argv[1:]
                      if not a.startswith("--baseline=")]
    baseline_path = next((a.split("=", 1)[1] for a in sys.argv[1:]
                          if a.startswith("--baseline=")), DEFAULT_BASELINE)
    if not artifact_paths:
        sys.exit(f"usage: {sys.argv[0]} <BENCH_*.json>... [--baseline=FILE]")

    runs = {}
    for path in artifact_paths:
        with open(path, encoding="utf-8") as f:
            runs.update({r["name"]: r for r in json.load(f)["benchmarks"]})
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)

    max_ratio = float(baseline.get("max_ratio", 2.0))
    violations = []
    for name, entry in sorted(baseline["benchmarks"].items()):
        base_ns = float(entry["ns_per_op"])
        run = runs.get(name)
        if run is None:
            violations.append(f"{name}: tracked in baseline but missing "
                              f"from {', '.join(artifact_paths)}")
            continue
        ns = float(run["ns_per_op"])
        ratio = ns / base_ns if base_ns > 0 else float("inf")
        status = "FAIL" if ratio > max_ratio else "ok"
        print(f"{status:4} {name}: {ns / 1e6:.2f} ms vs baseline "
              f"{base_ns / 1e6:.2f} ms ({ratio:.2f}x, limit {max_ratio}x)")
        if ratio > max_ratio:
            violations.append(f"{name}: {ratio:.2f}x slower than baseline "
                              f"(limit {max_ratio}x)")

    if violations:
        sys.exit("bench regression gate failed:\n  " +
                 "\n  ".join(violations))
    print(f"bench regression gate passed "
          f"({len(baseline['benchmarks'])} tracked entries)")


if __name__ == "__main__":
    main()
