#!/usr/bin/env python3
"""Line coverage of src/ from a gcov-instrumented build tree.

Usage:
  cmake --preset coverage && cmake --build --preset coverage -j
  ctest --preset coverage -j4        # or any other runs to measure
  python3 tools/coverage.py build-coverage

Runs `gcov --json-format --stdout` on every .gcda file under the build
tree and merges the reports by source line. A header is compiled into
many translation units, so a line's count is the largest any of them
saw. Prints line coverage per file under src/, the total, and
every function that never ran. Counts accumulate across runs; delete
the .gcda files (or the tree) to start over. Information only: the exit
status is 0 whenever gcov ran.
"""

import argparse
import json
import os
import subprocess
import sys

BATCH = 64  # .gcda files per gcov invocation
PREFIX = "src/"  # the sources reported, relative to the repository


def gcda_files(build_dir):
    for root, _, names in os.walk(build_dir):
        for name in sorted(names):
            if name.endswith(".gcda"):
                yield os.path.join(root, name)


def gcov_reports(files):
    for i in range(0, len(files), BATCH):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout"] + files[i:i + BATCH],
            check=True, capture_output=True, text=True).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def merge(reports, source_root):
    """Returns ({file: {line: count}}, {(file, line): [count, name]}).

    A template's instantiations share their first line, so a function
    counts as run when any instantiation ran.
    """
    lines = {}
    functions = {}
    for report in reports:
        cwd = report.get("current_working_directory", "")
        for entry in report["files"]:
            path = os.path.normpath(os.path.join(cwd, entry["file"]))
            rel = os.path.relpath(path, source_root)
            if not rel.startswith(PREFIX):
                continue
            counts = lines.setdefault(rel, {})
            for line in entry["lines"]:
                n = line["line_number"]
                counts[n] = max(counts.get(n, 0), line["count"])
            for fn in entry["functions"]:
                seen = functions.setdefault((rel, fn["start_line"]),
                                            [0, fn["demangled_name"]])
                seen[0] = max(seen[0], fn["execution_count"])
    return lines, functions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("build_dir")
    args = parser.parse_args()

    source_root = os.path.dirname(os.path.dirname(os.path.abspath(
        __file__)))
    files = list(gcda_files(args.build_dir))
    if not files:
        print("coverage: no .gcda files under %s; run tests in a "
              "--coverage build first" % args.build_dir, file=sys.stderr)
        return 2
    lines, functions = merge(gcov_reports(files), source_root)

    print("%-44s %6s %6s %6s" % ("file", "lines", "run", "cover"))
    total = run = 0
    for rel in sorted(r for r in lines if lines[r]):
        counts = lines[rel]
        hit = sum(1 for c in counts.values() if c > 0)
        total += len(counts)
        run += hit
        print("%-44s %6d %6d %5.1f%%" % (rel, len(counts), hit,
                                         100.0 * hit / len(counts)))
    print("%-44s %6d %6d %5.1f%%" % ("total", total, run,
                                     100.0 * run / max(total, 1)))
    print("%d lines never run" % (total - run))

    never = sorted((k, v[1]) for k, v in functions.items() if v[0] == 0)
    print("\nfunctions never run (%d):" % len(never))
    for (rel, start), name in never:
        print("  %s:%d  %s" % (rel, start, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
