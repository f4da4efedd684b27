#!/usr/bin/env python3
"""Records a trajectory point: every metric of every workload.

Usage (from the repository root):

    python3 perfbench/record.py --label <name> [--first-seed 1]
        [--out perfbench/trajectory/<name>.json]

Runs every workload of BENCHMARK.json once on each of ten seeds with
--trace 0 and reports, for every end-to-end metric, the median, the
quartiles and the spread (interquartile range over median, as
statistics.quantiles(values, n=4) gives them). A spread above the metric's bound in BENCHMARK.json is
flagged OVER-BOUND, and one above a third of it UNSTEADY. One traced run
per workload adds the per-layer metrics. --first-seed picks the seed set,
so two sets of the same code (seeds 1-10 and 11-20) can be compared. With
--out, everything is written as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    return json.loads(done.stdout.strip().split("\n")[-1])


def host():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "system": platform.platform()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))

    point = {"label": args.label, "host": host(), "run_seconds": spec["run_seconds"],
             "seeds": seeds, "workloads": {}}
    for workload in workloads:
        values = {}
        for seed in seeds:
            result = run(workload, seed, spec["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "values": vals}
            flag = ""
            if spread > bounds[name]:
                flag = "  OVER-BOUND"
            elif spread > bounds[name] / 3:
                flag = "  UNSTEADY"
            print(f"{workload:12s} {name:12s} median {median:14.6g}  spread {spread:.4f}"
                  f"  (bound {bounds[name]}){flag}", flush=True)
        traced = run(workload, seeds[0], spec["run_seconds"], 1)
        point["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    if args.out:
        with open(args.out, "w") as f:
            json.dump(point, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
