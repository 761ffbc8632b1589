"""Self-test of the benchmark's output checks.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Runs the shortest run of the ``conventional`` workload (``MIN_ROUNDS``
rounds) three times: with the recorded goldens (no operation may fail),
with one golden made wrong (exactly that operation must be counted as
failed, once per round, and the run must report ``correct: false``
without crashing), and traced (every
per-layer metric present, no failures -- so traced and untraced
rounds agree on every work counter).  Exits 0 when all three hold.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from run import GOLDENS, MIN_ROUNDS, benchmark, measure

    with open(GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)
    wrong = copy.deepcopy(goldens)
    wrong["conventional"]["gcd"]["events"] += 1

    workdir = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    failures = []
    try:
        clean = measure("conventional", 1, 0, False, workdir, goldens)
        if clean["failed"] != 0 or not clean["correct"]:
            failures.append(f"recorded goldens: {clean}")
        bad = measure("conventional", 1, 0, False, workdir, wrong,
                      log=lambda line: print(line))
        if bad["failed"] != MIN_ROUNDS or bad["correct"]:
            failures.append(f"one wrong golden: {bad}")
        traced = measure("conventional", 1, 0, True, workdir, goldens)
        missing = [metric["name"] for metric in benchmark()["per_layer"]
                   if metric["name"] not in traced["metrics"]]
        if traced["failed"] != 0 or missing:
            failures.append(f"traced: failed {traced['failed']}, "
                            f"missing {missing}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print("SELFTEST FAILED:", failure)
    if not failures:
        print("selftest ok: clean run passes, one wrong golden counts as "
              "one failed operation per round, traced run reports every "
              "layer")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
