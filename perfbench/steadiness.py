#!/usr/bin/env python3
"""Measures how steady the benchmark is across seeds.

Runs the command from BENCHMARK.json once per seed (1 to N) and workload,
from the repository root with tracing off, then prints for every
end-to-end metric its median over the seeds and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound.

    python3 perfbench/steadiness.py --seeds 10 [--workload elect-sparse]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
        return None
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            run = run_once(bench, workload, seed)
            if run is not None:
                runs.append(run)
        if len(runs) < 4:
            print(f"== {workload}: too few successful runs ({len(runs)})")
            continue
        print(f"== {workload} ({len(runs)} seeds)")
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            s = spread(values)
            verdict = "ok" if s <= m["bound"] / 3 else ("wide" if s <= m["bound"] else "TOO WIDE")
            print(f"  {m['name']:<22} median {statistics.median(values):>14.6g} {m['unit']:<7}"
                  f" spread {s:7.4f}  bound {m['bound']:.2f}  {verdict}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
