#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-16k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own tests
    python3 perfbench/run.py --list      # workloads and metric names

The benchmark is a CMake project in this directory that compiles the
library from ../src. It is built into $CARGO_TARGET_DIR (default
.bench_build) on first use; build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. The exit code is the benchmark's:
non-zero on a contract, determinism, passivity or generator failure.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", *targets, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def check_spec(binary):
    """BENCHMARK.json must name exactly the metrics the binary reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = subprocess.run([binary, "--list"], capture_output=True, text=True, check=True)
    end_to_end, per_layer = [], {}
    for line in out.stdout.splitlines():
        kind, *rest = line.split()
        if kind == "end_to_end":
            end_to_end.append(rest[0])
        elif kind == "workload":
            per_layer[rest[0]] = []
        else:
            per_layer[rest[0]].append(rest[1])
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != end_to_end:
        problems.append("end_to_end names differ from the binary's")
    declared = [m["name"] for m in spec["per_layer"]]
    for w in spec["workloads"]:
        if w["name"] not in per_layer:
            problems.append("unknown workload " + w["name"])
        elif per_layer[w["name"]] != declared:
            problems.append("per_layer names differ from what " + w["name"] + " reports")
    for p in problems:
        print("spec: " + p, file=sys.stderr)
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    ap.add_argument("--list", action="store_true",
                    help="print workloads and metric names")
    args = ap.parse_args()

    if args.test:
        out = build(["perfbench", "perfbench_tests"])
        ok = check_spec(os.path.join(out, "perfbench"))
        tests = subprocess.run([os.path.join(out, "perfbench_tests")])
        return 0 if ok and tests.returncode == 0 else 1

    binary = os.path.join(build(["perfbench"]), "perfbench")
    if args.list:
        return subprocess.run([binary, "--list"]).returncode
    if not args.workload:
        ap.error("--workload is required")
    return subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
