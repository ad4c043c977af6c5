#!/usr/bin/env python3
"""Builds the FSD benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (a CMake project that compiles ../src) in Release into the
directory named by $CARGO_TARGET_DIR, or .bench_build by default; later runs
rebuild incrementally. The benchmark binary's report goes to stdout, and the
last line is the result: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer
metrics for --trace 1. The exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "cedar_perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures once, then builds the binary; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", BINARY, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, BINARY)


def git_commit():
    if shutil.which("git") is None:
        return "unknown"
    probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
    return probe.stdout.strip() if probe.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"{ROOT}/src is missing: the benchmark builds FSD from the "
             "repository sources")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(proc.stdout)
        fail(f"{BINARY} exited {proc.returncode} without a result line")
    print("\n".join(lines[:-1]))
    print("context " + json.dumps(report["context"]))

    produced = report["layers"] if args.trace else report["e2e"]
    metrics = {}
    for metric in wanted:
        got = produced.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"{BINARY} did not report {metric['name']} in {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(report["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
