#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per run seed 0 .. seeds-1 on each named workload,
for BENCHMARK.json's run_seconds, and prints, per metric, the median of the
runs and the distance between their first and third quartiles as a share
of that median, next to the metric's bound. A spread above a third of its
bound is flagged.

    python3 perfbench/spread.py [--seeds 10] [workload ...]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        values = {}
        failed = attempted = 0
        for seed in range(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {args.seeds} runs, {attempted} trials, "
              f"{failed} failed")
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            flag = "" if spread < bounds[name] / 3 else \
                "  <-- above a third of the bound"
            print(f"  {name:34s} median {med:14.6f}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.3f}{flag}", flush=True)


if __name__ == "__main__":
    main()
