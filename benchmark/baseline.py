#!/usr/bin/env python3
"""Records the benchmark's seed-42 baseline in benchmark/BASELINE.json.

Runs the command from BENCHMARK.json on every workload, two sets of five
runs each (sets interleaved run by run, so drift in the host's speed lands
on both sets alike rather than showing as a difference between them), and
checks that the two sets' medians agree within each metric's bound. It
stores every value
plus each set's median, quartiles and spread (interquartile distance over
the median, as statistics.quantiles(values, n=4) gives the quartiles).

Run from the repository root:  python3 benchmark/baseline.py [--note TEXT]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SETS = 2
RUNS = 5
SEED = 42


def run_once(spec, workload):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: incorrect run: {lines[-1]}")
    return result["metrics"]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--note", default="", help="host description to record")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    units = {}
    for r in range(RUNS):
        for s in range(SETS):
            for w in workloads:
                print(f"set {s + 1} run {r + 1}: {w}", file=sys.stderr)
                for name, m in run_once(spec, w).items():
                    units[name] = m["unit"]
                    per_set = values[w].setdefault(name, [[] for _ in range(SETS)])
                    per_set[s].append(m["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    disagree = []

    def record(w, name, sets):
        summaries = [dict(summarize(v), runs=v) for v in sets]
        first, second = summaries[0]["median"], summaries[1]["median"]
        gap = abs(second - first) / first if first else 0.0
        if gap > bounds[name]:
            disagree.append(f"{w} {name}: set medians {first:.4g} vs {second:.4g}")
        return {"unit": units[name], "set_gap": gap, "sets": summaries}

    baseline = {
        "seed": SEED,
        "run_seconds": spec["run_seconds"],
        "host": {"nproc": os.cpu_count(), "note": args.note},
        "workloads": {
            w: {name: record(w, name, sets) for name, sets in metrics.items()}
            for w, metrics in values.items()
        },
    }
    with open("benchmark/BASELINE.json", "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    if disagree:
        sys.exit("sets disagree beyond the bound:\n" + "\n".join(disagree))


if __name__ == "__main__":
    main()
