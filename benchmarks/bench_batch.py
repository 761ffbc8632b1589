"""Batch-engine benchmarks: pool scaling on the Table-1 design mix.

Two claims, two tests:

* **smoke** (the CI lane): a small manifest on 2 workers completes,
  survives pool startup/teardown inside the fast-lane timeout, and is
  byte-identical to the 1-worker run — correctness under
  multiprocessing, not speed;
* **scaling**: the Table-1 mix (dram / risc8 / gcd, the workloads of
  ``bench_table1``) fanned over 1/2/4/8 workers.  On a box with >= 4
  effective cores the 4-worker run must beat 1 worker by the
  ``SCALE_FLOOR``; on narrower boxes (CI containers are often pinned
  to one core, where parallel speedup is physically impossible) the
  gate degrades to an overhead bound — the pool may not cost more than
  ``OVERHEAD_CEIL`` over serial.  Either way the report under
  ``benchmarks/results/`` records the core count, so numbers from
  different boxes are never compared blind.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.batch import RunRequest, run_batch
from repro.designs import load
from repro.sim import SimOptions

from benchmarks.conftest import report, report_json

#: required 4-worker speedup over 1 worker — asserted only with >= 4
#: effective cores (otherwise physically unattainable).
SCALE_FLOOR = 2.5
#: with fewer cores: the 4-worker pool may cost at most this factor
#: over the 1-worker pool (process startup + pickling + shard merge).
OVERHEAD_CEIL = 1.35

POOL_WIDTHS = (1, 2, 4, 8)

#: the Table-1 design mix, same workload sizes as bench_table1
TABLE1_MIX = {
    "dram": ({"bursts": 2}, 3000),
    "risc8": ({"runtime": 180}, 400),
    "gcd": ({"rounds": 1, "width": 5}, 5000),
}

_RESULTS: dict = {}


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _mix_requests(copies: int = 2):
    """``copies`` runs of each Table-1 design (seeds differ, so the
    compile-once cache is exercised while the runs stay distinct)."""
    requests = []
    for design, (params, until) in TABLE1_MIX.items():
        source, top, defines = load(design, **params)
        for copy in range(copies):
            requests.append(RunRequest(
                name=f"{design}-{copy}", source=source, top=top,
                defines=defines, until=until,
                options=SimOptions(
                    concrete_random=copy if copy else None),
            ))
    return requests


def _timed_batch(requests, workers, out_dir):
    started = time.perf_counter()
    batch = run_batch(requests, workers=workers, out_dir=out_dir,
                      trace=False, write_metrics=False)
    elapsed = time.perf_counter() - started
    assert len(batch) == len(requests)
    for outcome in batch:
        assert outcome.status.value in ("ok", "assert_failed"), (
            f"{outcome.name}: {outcome.status.value} {outcome.error}")
    return elapsed, batch


# ---------------------------------------------------------------------
# CI smoke: 2 workers, small manifest, determinism vs 1 worker
# ---------------------------------------------------------------------

SMOKE_SRC = """
module tb;
  reg [3:0] d; reg [7:0] acc;
  initial begin
    acc = 0;
    repeat (6) begin
      #10 d = $random;
      acc = acc + d;
    end
    $finish;
  end
endmodule
"""


def test_batch_smoke(benchmark, tmp_path):
    """The CI gate: a 2-worker pool works and changes nothing."""
    def run():
        requests = [
            RunRequest(name=f"seed-{seed}", source=SMOKE_SRC, vcd=True,
                       options=SimOptions(concrete_random=seed))
            for seed in (1, 2, 3, 4)
        ]
        serial_t, serial = _timed_batch(requests, 1, str(tmp_path / "w1"))
        pool_t, pooled = _timed_batch(requests, 2, str(tmp_path / "w2"))
        for left, right in zip(serial, pooled):
            assert left.result == right.result, left.name
            with open(left.vcd_path, "rb") as a, \
                    open(right.vcd_path, "rb") as b:
                assert a.read() == b.read(), f"VCD differs: {left.name}"
        _RESULTS["smoke/serial"] = serial_t
        _RESULTS["smoke/pool2"] = pool_t

    benchmark.pedantic(run, rounds=1, iterations=1)


# ---------------------------------------------------------------------
# scaling trajectory: Table-1 mix over 1/2/4/8 workers
# ---------------------------------------------------------------------

def test_batch_scaling(benchmark, tmp_path):
    def run():
        requests = _mix_requests(copies=2)
        reference = None
        for workers in POOL_WIDTHS:
            elapsed, batch = _timed_batch(
                requests, workers, str(tmp_path / f"w{workers}"))
            _RESULTS[f"scaling/w{workers}"] = elapsed
            payloads = [outcome.result for outcome in batch]
            if reference is None:
                reference = payloads
            else:
                # pool width must never be observable in the results
                assert payloads == reference, \
                    f"results diverged at {workers} workers"
        cores = _effective_cores()
        speedup4 = _RESULTS["scaling/w1"] / _RESULTS["scaling/w4"]
        _RESULTS["scaling/cores"] = cores
        _RESULTS["scaling/speedup4"] = speedup4
        if cores >= 4:
            assert speedup4 >= SCALE_FLOOR, (
                f"4-worker speedup {speedup4:.2f}x below the "
                f"{SCALE_FLOOR}x floor on a {cores}-core box")
        else:
            overhead = _RESULTS["scaling/w4"] / _RESULTS["scaling/w1"]
            assert overhead <= OVERHEAD_CEIL, (
                f"4-worker pool costs {overhead:.2f}x serial on a "
                f"{cores}-core box (ceiling {OVERHEAD_CEIL}x)")

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_batch_report(benchmark):
    def build_report():
        if "scaling/w1" not in _RESULTS:
            pytest.skip("scaling benchmark did not run")
        cores = _RESULTS["scaling/cores"]
        lines = [
            f"Batch scaling, Table-1 mix x2 "
            f"(dram/risc8/gcd), {cores} effective core(s)",
            f"{'workers':>8s} {'wall':>9s} {'speedup':>9s}",
        ]
        base = _RESULTS["scaling/w1"]
        for workers in POOL_WIDTHS:
            wall = _RESULTS[f"scaling/w{workers}"]
            lines.append(f"{workers:8d} {wall:8.2f}s {base / wall:8.2f}x")
        gate = (f"gate: >= {SCALE_FLOOR}x at 4 workers" if cores >= 4
                else f"gate: <= {OVERHEAD_CEIL}x overhead "
                     f"(only {cores} core(s) — speedup unattainable)")
        lines.append(gate)
        if "smoke/serial" in _RESULTS:
            lines.append(
                f"smoke (4 tiny runs): serial {_RESULTS['smoke/serial']:.2f}s,"
                f" 2-worker pool {_RESULTS['smoke/pool2']:.2f}s")
        report("batch", lines)
        report_json("batch", dict(_RESULTS))

    benchmark.pedantic(build_report, rounds=1, iterations=1)
