#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads a,b]
                                [--save FILE] [--compare FILE]

Runs every named workload (default: all in BENCHMARK.json) --runs times
through run.py with consecutive seeds, untraced and for BENCHMARK.json's
run_seconds, and prints for each end-to-end metric its median, first and
third quartile (statistics.quantiles(n=4)) and the spread (q3 - q1) / median
against the metric's bound: "ok" below a third of the bound, "near" below
the bound, "OVER" above it.

It then reruns the first seed once. Single-client workloads are
deterministic in virtual time: every metric except setup_s and peak_rss_mb
must repeat exactly, and a difference is reported as a determinism bug.

--save writes the per-metric medians; --compare FILE checks this set's
medians against a saved set: no metric may be worse than the saved median
by more than its bound. A run whose checks fail still contributes its
metrics, and its CHECK FAILED lines are printed. The exit code is nonzero
on any failed run or check, determinism bug, spread over its bound, or
failed comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_METRICS = {"setup_s", "peak_rss_mb"}


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    context = {}
    for line in lines:
        if line.startswith("context "):
            context = json.loads(line[len("context "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        sys.stderr.write(proc.stderr[-2000:])
        return None, context
    for line in lines:
        if line.startswith("CHECK FAILED"):
            print(f"  {workload} seed {seed}: {line[:240]}")
    context["correct"] = result["correct"] and proc.returncode == 0
    return {k: v["value"] for k, v in result["metrics"].items()}, context


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--save", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    saved = {}
    if args.compare:
        with open(args.compare) as f:
            saved = json.load(f)

    bad = False
    medians = {}
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        first = None
        context = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            got, context = run_once(workload, seed, seconds)
            if got is None:
                print(f"{workload} seed {seed}: RUN FAILED, no result")
                bad = True
                continue
            if not context["correct"]:
                # The metrics were measured; the failed check is reported
                # and fails the steadiness check, but the spread still shows.
                print(f"{workload} seed {seed}: CHECK FAILED")
                bad = True
            first = first if first is not None else (seed, got)
            for name in values:
                values[name].append(got[name])
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {seconds} s each")
        print(f"{'metric':26} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        medians[workload] = {}
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread <= m["bound"] / 3:
                verdict = "ok"
            elif spread <= m["bound"]:
                verdict = "near"
            else:
                verdict = "OVER"
                bad = True
            medians[workload][m["name"]] = med
            line = (f"{m['name']:26} {med:14.6f} {q1:14.6f} {q3:14.6f} "
                    f"{spread:8.4f} {m['bound']:6.3f}  {verdict}")
            before = saved.get(workload, {}).get(m["name"])
            if before:
                worse = ((before - med) / before if m["better"] == "higher"
                         else (med - before) / before)
                line += f"  vs saved {before:.6f}: {worse:+.4f}"
                if worse > m["bound"]:
                    line += " WORSE"
                    bad = True
            print(line)

        if first is not None:
            seed, got = first
            again, _ = run_once(workload, seed, seconds)
            if again is None:
                print(f"repeat of seed {seed}: RUN FAILED")
                bad = True
            elif context.get("client_threads", 1) == 1:
                drift = [n for n in got if n not in HOST_METRICS
                         and got[n] != again[n]]
                if drift:
                    bad = True
                    print(f"DETERMINISM BUG: seed {seed} repeated with "
                          f"different {', '.join(drift)}")
                else:
                    print(f"repeat of seed {seed}: every virtual metric "
                          "identical")
            else:
                print(f"repeat of seed {seed}: {context['client_threads']} "
                      "free-running clients, virtual metrics may differ")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=2)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
