"""Compiled-tier benchmarks: block codegen vs the interpreter.

The compiled tier (:mod:`repro.compile.codegen`, docs/PERFORMANCE.md)
fuses straight-line instruction runs into generated Python blocks with
compile-time-decided word fast paths, writing fully-known results
through the raw-word value store.  This module pins the claim with
numbers, against the interpreter (``compile_tier=False`` — the
differential oracle ``symsim --no-compile`` uses):

* every Table-1 design in the *conventional-simulation* regime (Table
  1's comparison column: concrete ``$random`` stimulus) — the regime
  where dispatch and evaluation dominate, so the tier's win is
  directly visible and stable enough to gate;
* the *compute mix*: the paper's worst-case workload shape (the GCD
  datapath's data-dependent Euclid loop) in its dominant concrete
  regime, where block fusion pays in full — the lane's ≥3x gate;
* *symbolic parity* cells: small symbolic editions where BDD work
  dominates and the tier must simply not cost time.  These runs are
  noise-dominated (±20% on a shared box), so the in-test bound only
  catches catastrophic regressions;
* a text table and the raw cells under ``benchmarks/results/``.

Speed claims only: bit-identity is asserted here on every run pair and
exhaustively in tests/integration/test_compile_differential.py.
"""

from __future__ import annotations

import json
import time

import repro
from repro import SimOptions
from repro.compile.codegen import compiled_tables
from repro.designs import load

from benchmarks.conftest import report, report_json

#: The lane's regression gate: the concrete-dominant compute mix must
#: hold a 3x speedup (measured 3.4-3.9x; the floor leaves CI noise
#: headroom).
MIX_FLOOR = 3.0

#: Conservative floors for the conventional-regime Table-1 cells
#: (measured ~1.85x / ~1.2x / ~1.4x).
TABLE1_FLOORS = {
    "gcd": 1.3,
    "dram": 1.0,
    "risc8": 1.1,
}

#: design -> (loader kwargs, until): conventional-simulation editions,
#: sized so wall time dwarfs the ~5 ms codegen build.
TABLE1_WORKLOADS = {
    "gcd": ({"rounds": 400, "width": 8}, None),
    "dram": ({"bursts": 400}, None),
    "risc8": ({"runtime": 3000}, 3100),
}

#: Small symbolic editions (the paper's actual Table-1 protocol) for
#: the parity cells.
SYMBOLIC_WORKLOADS = {
    "gcd": ({"rounds": 1, "width": 5}, 5000),
    "dram": ({"bursts": 2}, 3000),
}

#: BDD-bound symbolic runs may swing ±20% on a shared box; only a
#: catastrophic slowdown fails the lane.
SYMBOLIC_PARITY_BOUND = 0.5

_RESULTS: dict = {}


def _timed_run(source, top, defines, until, compile_tier, seed=7,
               codegen_first=False):
    options = SimOptions(compile_tier=compile_tier, echo_output=False,
                         concrete_random=seed)
    sim = repro.open_sim(source, top=top, defines=defines, options=options)
    if codegen_first and compile_tier:
        # build the block tables before the clock starts, as perfbench's
        # workloads.prepare does: the cell then times the run alone
        compiled_tables(sim.kernel.program, options.accumulation,
                        specialize=not options.no_fastpath)
    started = time.perf_counter()
    result = sim.run(until=until)
    elapsed = time.perf_counter() - started
    return elapsed, sim, json.dumps(result.to_dict(), sort_keys=True)


def _compare(source, top, defines, until, seed=7, codegen_first=False):
    """Interpreter vs compiled wall time; asserts bit-identity.  With
    ``codegen_first`` the compiled run's codegen is left off the clock."""
    interp, _, ref = _timed_run(source, top, defines, until, False,
                                seed=seed)
    compiled, sim, new = _timed_run(source, top, defines, until, True,
                                    seed=seed, codegen_first=codegen_first)
    assert ref == new, "compiled tier diverged from the interpreter"
    stats = sim.kernel.compile_tier_stats()
    assert stats["blocks"] > 0
    return interp, compiled, stats


# ---------------------------------------------------------------------
# Table-1 designs, conventional-simulation regime
# ---------------------------------------------------------------------


def test_table1_conventional(benchmark):
    def run():
        for name, (kwargs, until) in TABLE1_WORKLOADS.items():
            source, top, defines = load(name, **kwargs)
            interp, compiled, stats = _compare(source, top, defines, until)
            speedup = interp / compiled
            _RESULTS[f"{name}/interp"] = interp
            _RESULTS[f"{name}/compiled"] = compiled
            _RESULTS[f"{name}/speedup"] = speedup
            _RESULTS[f"{name}/blocks"] = stats["blocks"]
            _RESULTS[f"{name}/tier_hits"] = stats["tier_hits"]
            floor = TABLE1_FLOORS[name]
            assert speedup >= floor, (
                f"{name}: compiled tier {speedup:.2f}x vs the "
                f"interpreter (floor {floor}x)")

    benchmark.pedantic(run, rounds=1, iterations=1)


# ---------------------------------------------------------------------
# symbolic parity (the paper's Table-1 protocol)
# ---------------------------------------------------------------------


def test_symbolic_parity(benchmark):
    def run():
        for name, (kwargs, until) in SYMBOLIC_WORKLOADS.items():
            source, top, defines = load(name, **kwargs)
            # codegen (~12 ms for dram's 52 blocks) is off the clock:
            # on a 10-25 ms BDD-bound run it would be what the cell
            # measures, and perfbench gates it on its own
            interp, compiled, _ = _compare(source, top, defines, until,
                                           seed=None, codegen_first=True)
            parity = interp / compiled
            # "parity" carries no gate direction keyword on purpose —
            # see the module docstring.
            _RESULTS[f"{name}/symbolic_parity"] = parity
            assert parity >= SYMBOLIC_PARITY_BOUND, (
                f"{name} (symbolic): compiled tier {parity:.2f}x vs "
                f"the interpreter (bound {SYMBOLIC_PARITY_BOUND}x)")

    benchmark.pedantic(run, rounds=1, iterations=1)


# ---------------------------------------------------------------------
# the compute mix — the ≥3x gate
# ---------------------------------------------------------------------

#: The Table-1 worst case's dominant regime: the GCD datapath's
#: Euclid loop over concrete operands (the paper's observation that
#: most of an RTL run is concrete).  Dense straight-line bodies are
#: exactly what block fusion compiles away.
MIX_DESIGN = """
module bench_compiled_mix;
  reg [31:0] a, b, t, acc, x, y;
  integer i;
  initial begin
    acc = 0;
    for (i = 0; i < 2000; i = i + 1) begin
      a = (i * 32'h9E3779B9) | 1;
      b = (i * 32'h85EBCA6B) | 1;
      while (b != 0) begin
        t = a % b;
        a = b;
        b = t;
        x = (a ^ b) + (t >> 3);
        y = x & 32'hFFFF00FF;
        acc = acc + y;
      end
      acc = acc ^ a;
    end
    $finish;
  end
endmodule
"""


def test_compute_mix_speedup(benchmark):
    def run():
        interp, compiled, stats = _compare(
            MIX_DESIGN, "bench_compiled_mix", None, None)
        speedup = interp / compiled
        hits = stats["tier_hits"]
        misses = stats["tier_misses"]
        assert hits > 0 and hits / (hits + misses) > 0.9, (
            "the mix must run almost entirely on the word fast path "
            f"({hits} hits / {misses} misses)")
        _RESULTS["mix/interp"] = interp
        _RESULTS["mix/compiled"] = compiled
        _RESULTS["mix/speedup"] = speedup
        _RESULTS["mix/tier_hits"] = hits
        assert speedup >= MIX_FLOOR, (
            f"compute mix speedup {speedup:.2f}x below the "
            f"{MIX_FLOOR}x floor")

    benchmark.pedantic(run, rounds=1, iterations=1)


# ---------------------------------------------------------------------
# report
# ---------------------------------------------------------------------


def test_compiled_report(benchmark):
    def build_report():
        lines = [
            "Compiled tier vs interpreter (bit-identical runs)",
            f"{'workload':22s} {'interpreter':>12s} {'compiled':>12s} "
            f"{'speedup':>9s} {'floor':>7s}",
        ]
        for name in (*TABLE1_WORKLOADS, "mix"):
            floor = TABLE1_FLOORS.get(name, MIX_FLOOR)
            label = name if name == "mix" else f"{name} (conventional)"
            lines.append(
                f"{label:22s} {_RESULTS[f'{name}/interp']:11.3f}s "
                f"{_RESULTS[f'{name}/compiled']:11.3f}s "
                f"{_RESULTS[f'{name}/speedup']:8.2f}x {floor:6.2f}x")
        for name in SYMBOLIC_WORKLOADS:
            parity = _RESULTS[f"{name}/symbolic_parity"]
            lines.append(
                f"{name + ' (symbolic)':22s} {'':>12s} {'':>12s} "
                f"{parity:8.2f}x {SYMBOLIC_PARITY_BOUND:6.2f}x")
        report("compiled", lines)
        report_json("compiled", dict(_RESULTS))

    benchmark.pedantic(build_report, rounds=1, iterations=1)
