"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload camera-vgg16 --seeds 1 2 3 4 5

Runs ``perfbench/run.py`` once per seed (tracing off) and prints, per
metric, the median and the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``) next to the metric's bound from
``BENCHMARK.json``.  A metric is steady when its spread stays well
below its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        took = time.perf_counter() - started
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for name, value in row.items():
            values[name].append(value)
        print(f"seed {seed} ({took:.1f}s): " + ", ".join(
            f"{k}={v:.4g}" for k, v in row.items()), flush=True)
    if len(args.seeds) < 2:
        return 0
    print(f"{'metric':<20s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        print(f"{metric['name']:<20s} {statistics.median(vals):>12.5g} "
              f"{spread(vals):>8.3f} {metric['bound']:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
