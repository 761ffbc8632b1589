"""Record ``goldens.json`` from one round of every workload.

Usage, from the root of a checkout::

    python3 perfbench/record_goldens.py

Runs each workload once at the default seed and stores every value
its operations observe (verdicts, event counts, violation time and
symbol count, VCD and campaign-report sha256, mutant
classifications).  Work counters such as BDD node or cache counts are
not stored.  The managed workload's resumed VCD is stored only after
checking that it equals the VCD of the same run made without a
checkpoint.  Re-record only when a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import (DEFAULT_SEED, WORKLOADS, Round,
                           uninterrupted_managed_vcd)

    workdir = os.path.join(ROOT, ".perfbench_work", f"goldens-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    goldens = {}
    try:
        for name, workload in WORKLOADS.items():
            round_ = Round(DEFAULT_SEED, workdir)
            workload.run(round_)
            problems = {op_name: op.problems
                        for op_name, op in round_.ops.items() if op.problems}
            if problems:
                print(f"{name}: operations failed: {problems}",
                      file=sys.stderr)
                return 1
            goldens[name] = {op_name: op.observed
                             for op_name, op in round_.ops.items()}
            print(f"{name}: {len(round_.ops)} operations recorded")
        whole = uninterrupted_managed_vcd(workdir)
        resumed = goldens["managed"]["risc8_resumed"]["vcd_sha256"]
        if whole != resumed:
            print("managed: resumed VCD differs from the uninterrupted one",
                  file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "goldens.json"), "w",
              encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
