#!/usr/bin/env python3
"""Builds and runs FLIPC's host-time benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the FLIPC libraries from src/) into
$CARGO_TARGET_DIR or .bench_build, runs one workload, and prints the
benchmark's report. The last stdout line is one JSON object: with
--trace 0 its metrics are the end_to_end set of BENCHMARK.json, with
--trace 1 the per_layer set. Exits nonzero, printing no result, when the
build fails or any message was dropped, reordered, corrupted or late.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("FLIPC sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        try:
            subprocess.run(["ninja", "--version"], check=True, capture_output=True)
            configure += ["-G", "Ninja"]
        except (OSError, subprocess.CalledProcessError):
            pass
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "flipc_hostbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "flipc_hostbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    wanted = expected_metrics(args.trace)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        fail(f"workload {args.workload} failed (exit {done.returncode}); see messages above")
    result = json.loads(lines[-1])
    measured = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail("metrics missing from the report: " + ", ".join(missing))
    for m in wanted:
        if measured[m["name"]]["unit"] != m["unit"]:
            fail(f"metric {m['name']} reported in {measured[m['name']]['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
    result["metrics"] = {m["name"]: measured[m["name"]] for m in wanted}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
