"""Measure the benchmark's run-to-run spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workloads symbolic campaign --runs 10

Runs ``perfbench/run.py`` once per seed (seeds 1..N) for each named
workload, one process at a time and for the run length of
``BENCHMARK.json``, and reports per end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread: the distance between the quartiles as a share of the
median.  ``--out`` writes every value as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads:
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed)
            results.append(result)
            values = {k: round(v["value"], 4)
                      for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: failed {result['failed']}/"
                  f"{result['attempted']} {values}", flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"]
                                    for r in results])
                   for name in results[0]["metrics"]}
        report[workload] = {
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": metrics,
        }
        for name, row in metrics.items():
            print(f"{workload:13s} {name:12s} median {row['median']:.4f} "
                  f"q1 {row['q1']:.4f} q3 {row['q3']:.4f} "
                  f"spread {100 * row['spread']:.2f}%", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
