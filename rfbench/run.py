#!/usr/bin/env python3
"""Builds rfbench from the checkout's sources and runs one workload.

    python3 rfbench/run.py --workload table1_compute --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/rfbench
(default .bench_build/rfbench); the first run configures and compiles,
later runs only re-check it. Before each run the benchmark's self-test
(op-stream determinism, the tail rule, exclusive time) must pass. The
benchmark prints every metric it measured; the last line of standard
output is the run's JSON result, holding the metrics BENCHMARK.json
lists under "end_to_end" (--trace 0) or "per_layer" (--trace 1).
--trace 1 also writes the spans to <build dir>/traces/<workload>-<seed>.json.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(source_dir, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "rfbench", "rfbench_selftest"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(source_dir)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "rfbench")
    if not build(source_dir, build_dir):
        return 1

    selftest = subprocess.run([os.path.join(build_dir, "rfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        log("self-test failed")
        return 1

    command = [os.path.join(build_dir, "rfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log("benchmark did not finish in %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("benchmark exited with %d" % done.returncode)
        return 1
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in listed:
        measured = result["metrics"].get(metric["name"])
        if measured is None or measured["unit"] != metric["unit"]:
            log("metric %s (%s) not measured as listed: %r"
                % (metric["name"], metric["unit"], measured))
            return 1
        metrics[metric["name"]] = measured
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
