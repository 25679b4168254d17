#!/usr/bin/env python3
"""End-to-end pipeline benchmark: build, run one workload, print one JSON line.

    python3 perfbench/run.py --workload small_events --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (which compiles the morph
libraries it links from this source tree) into .bench_build/perfbench with
CMake, then runs pipeline_bench. Build output goes to stderr; the last line
of stdout is the benchmark's JSON result. With --trace 0 it carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones;
run.py checks that the names match and exits non-zero when they do not, or
when the benchmark itself failed. `--workload all` runs every workload in
turn and prints one JSON line each.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175
WORKLOADS = ("small_events", "large_morph", "pbuf_churn")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no morph source tree beside perfbench/, nothing to benchmark")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "pipeline_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "pipeline_bench")


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, args):
    """Run one workload; print its JSON line. Returns the exit code."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print(f"run.py: {workload} printed no result (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    expected = declared_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        print("run.py: metrics differ from BENCHMARK.json: "
              f"missing {sorted(expected - set(result['metrics']))}, "
              f"extra {sorted(set(result['metrics']) - expected)}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_one(binary, w, args) for w in workloads]
    return next((c for c in codes if c != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
