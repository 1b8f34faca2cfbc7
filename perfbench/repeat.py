"""Repeat the benchmark and summarise each metric by its median and quartiles.

    python3 perfbench/repeat.py [--runs 10] [--seed 1] [--trace 0|1]

Run r uses seed ``--seed + r`` for every workload and visits the workloads
forwards on even runs and backwards on odd ones, one run at a time.  For each
workload it prints every metric with its unit, median, first and third
quartile and spread (quartile distance over median), the end-to-end bound from
BENCHMARK.json, and ``failed_ratio`` from the runs' failed/attempted counts.
The run length and the bounds come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {name: [] for name in names}
    for r in range(args.runs):
        seed = args.seed + r
        for name in (names if r % 2 == 0 else names[::-1]):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"run {r} {name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            results[name].append(result)
            print(f"run {r} {name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    for name, runs in results.items():
        print(f"\n{name}: {len(runs)} runs")
        print(f"  {'metric':<40} {'unit':<10} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for metric, first in runs[0]["metrics"].items():
            median, q1, q3, spread = summarise([run["metrics"][metric]["value"] for run in runs])
            bound = bounds.get(metric)
            print(f"  {metric:<40} {first['unit']:<10} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {'' if bound is None else bound:>6}")
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        ratios = [run["failed"] / run["attempted"] for run in runs]
        print(f"  {'failed_ratio':<40} {'ratio':<10} {statistics.median(ratios):>12.6g} "
              f"({failed} of {attempted} operations failed; "
              f"correct in {sum(run['correct'] for run in runs)} of {len(runs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
