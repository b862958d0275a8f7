#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload and
prints, per metric, the median of the runs and the distance between the
first and third quartiles as a share of that median, next to the metric's
bound. For each host-speed-scaled metric it also prints the same for the
raw figure it was scaled from and for the probe next to it (the `scaling`
line of each run). Run from the repository root:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]
"""

import argparse
import json
import statistics
import subprocess
import sys


def quartile_spread(vals):
    """Median, and the inter-quartile distance as a share of it."""
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {}
        scaling = {}
        for run in range(args.runs):
            seed = args.first_seed + run
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=False)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(last)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: checks failed\n{out.stdout}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in out.stdout.splitlines():
                if line.startswith("scaling "):
                    for name, fig in json.loads(line[len("scaling "):]).items():
                        for key in ("raw", "probe_ms"):
                            scaling.setdefault((name, key), []).append(fig[key])
        print(f"{workload} ({args.runs} runs)")
        for name, vals in values.items():
            med, spread = quartile_spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "  OVER a third of the bound" if spread > bound / 3 else ""
            print(f"  {name:20} median {med:<14.6g} spread {spread:7.2%}  bound {bound}{flag}")
            print(f"  {'':20} {' '.join(f'{v:.4g}' for v in vals)}")
            for key in ("raw", "probe_ms"):
                if (name, key) in scaling:
                    med, spread = quartile_spread(scaling[(name, key)])
                    print(f"    {key:18} median {med:<14.6g} spread {spread:7.2%}")
    if args.trace == 0:
        print(f"worst spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
