#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve_hot --seeds 1-10 [--trace 0]

Run from the repository root. For every metric it prints the median of the
runs and the distance between the first and third quartile as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from BENCHMARK.json: the bound a change may not worsen the median by,
and the spread the benchmark must stay within.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}

    runs = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: exit {out.returncode}, result {result}")
        runs.append(result["metrics"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n{'metric':40} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:40} {med:14.6g} {spread:8.4f} {bound if bound is not None else '-':>6}{flag}")


if __name__ == "__main__":
    main()
