"""Fast-path micro/smoke benchmarks: concrete vs mixed vs symbolic.

The hybrid evaluation engine (docs/PERFORMANCE.md) dispatches fully
concrete operands to pure-int word-level code and builds the rails of
mixed and symbolic operands with fused per-bit chains.  This module
pins that claim with numbers:

* operator-level throughput in the three regimes, with the fast path
  force-disabled as the baseline — the paper's observation that most of
  an RTL run is concrete only pays off if the concrete case is *cheap*;
* an end-to-end smoke design (all-concrete datapath) run with and
  without ``--no-fastpath``, asserting a conservative speedup floor so
  CI catches a fast-path regression before it reaches Table 1;
* a text table and the raw cells under ``benchmarks/results/``.

Results must be *bit-identical* either way; the differential guarantees
live in tests/unit/test_fastpath_differential.py, the speed claims here.
"""

from __future__ import annotations

import time

import pytest

import repro
from repro import MetricsRegistry, Observability, SimOptions
from repro.bdd import BddManager
from repro.fourval import FourVec, ops

from benchmarks.conftest import report, report_json

#: conservative CI floors — the measured speedups are far higher, but
#: these runs share a box with everything else in the lane.
MICRO_FLOOR = 3.0
SMOKE_FLOOR = 1.5

_RESULTS: dict = {}


# ---------------------------------------------------------------------
# operator-level throughput
# ---------------------------------------------------------------------

def _concrete_pair(mgr, i, width=32):
    x = FourVec.from_int(mgr, (i * 2654435761) & 0xFFFFFFFF, width)
    y = FourVec.from_int(mgr, (i * 40503 + 7) & 0xFFFFFFFF, width)
    return x, y

def _mixed_pair(mgr, i, width=32):
    x = FourVec.from_int(mgr, (i * 2654435761) & 0xFFFFFFFF, width)
    sym = FourVec.fresh_symbol(mgr, 4, f"m{i}")
    y = FourVec.from_int(mgr, i & 0xFFF, width - 4).concat(sym)
    return x, y

def _symbolic_pair(mgr, i, width=8):
    return (FourVec.fresh_symbol(mgr, width, f"a{i}"),
            FourVec.fresh_symbol(mgr, width, f"b{i}"))


def _time_regime(make_pair, rounds, fastpath):
    """Fresh manager, ``rounds`` (add, xor, and, less_than) quadruples."""
    mgr = BddManager()
    mgr.fastpath = fastpath
    pairs = [make_pair(mgr, i) for i in range(rounds)]
    started = time.perf_counter()
    for x, y in pairs:
        ops.add(x, y)
        ops.bitwise_xor(x, y)
        ops.bitwise_and(x, y)
        ops.less_than(x, y)
    elapsed = time.perf_counter() - started
    return elapsed, 4 * rounds / elapsed, mgr


def test_micro_concrete_vs_disabled(benchmark):
    """Word-level dispatch vs forced per-bit BDD on concrete operands."""
    def run():
        on, on_rate, mgr = _time_regime(_concrete_pair, 400, True)
        off, off_rate, _ = _time_regime(_concrete_pair, 400, False)
        assert mgr.fastpath_word_ops == 4 * 400, \
            "every concrete op must take the word-level path"
        _RESULTS["micro/concrete"] = (on, on_rate)
        _RESULTS["micro/concrete+nofp"] = (off, off_rate)
        _RESULTS["micro/speedup"] = off / on
        assert off / on >= MICRO_FLOOR, (
            f"concrete fast path only {off / on:.1f}x over forced-symbolic"
            f" (floor {MICRO_FLOOR}x)")

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_micro_mixed(benchmark):
    """Partially concrete operands: fused rails + narrow BDD work."""
    def run():
        on, on_rate, mgr = _time_regime(_mixed_pair, 150, True)
        off, off_rate, _ = _time_regime(_mixed_pair, 150, False)
        assert mgr.fastpath_symbolic_ops > 0, \
            "mixed operands must take the per-bit path"
        _RESULTS["micro/mixed"] = (on, on_rate)
        _RESULTS["micro/mixed+nofp"] = (off, off_rate)
        _RESULTS["micro/mixed_speedup"] = off / on

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_micro_symbolic(benchmark):
    """Fully symbolic operands: the fast path must not slow this down."""
    def run():
        on, on_rate, mgr = _time_regime(_symbolic_pair, 60, True)
        off, off_rate, _ = _time_regime(_symbolic_pair, 60, False)
        assert mgr.fastpath_symbolic_ops == 4 * 60
        _RESULTS["micro/symbolic"] = (on, on_rate)
        _RESULTS["micro/symbolic+nofp"] = (off, off_rate)
        # Generous bound: the known_int() probe on symbolic inputs is a
        # summary-cache lookup, so overhead should be noise-level.
        assert on < 1.5 * off, (
            f"fast-path dispatch costs {100 * (on / off - 1):.0f}% on "
            "fully symbolic operands")

    benchmark.pedantic(run, rounds=1, iterations=1)


# ---------------------------------------------------------------------
# end-to-end smoke design (the CI perf lane's gate)
# ---------------------------------------------------------------------

SMOKE_DESIGN = """
module bench_smoke;
  reg clk;
  reg [31:0] a, b, acc;
  reg [31:0] mem [0:15];

  initial begin
    clk = 0;
    a = 32'h1234_5678;
    b = 3;
    acc = 0;
  end

  always #1 clk = ~clk;

  always @(posedge clk) begin
    acc <= acc + (a ^ (b >> 2)) + (a & 32'hFF00FF00);
    mem[b[3:0]] <= acc + {16'h00FF, a[31:16]};
    a <= a + 17;
    b <= (b << 1) | b[31];
  end

  initial begin
    #3000;
    if (acc === 32'h0)
      $display("acc never moved");
    $finish;
  end
endmodule
"""


def _run_smoke(no_fastpath: bool):
    registry = MetricsRegistry()
    options = SimOptions(obs=Observability(metrics=registry),
                         no_fastpath=no_fastpath)
    sim = repro.open_sim(
        SMOKE_DESIGN, top="bench_smoke", options=options)
    started = time.perf_counter()
    result = sim.run(until=3100)
    elapsed = time.perf_counter() - started
    assert result.finished
    return elapsed, sim, registry


def test_smoke_design_speedup(benchmark):
    """All-concrete datapath: the lane's regression gate."""
    def run():
        fast, sim_fast, registry = _run_smoke(no_fastpath=False)
        slow, sim_slow, _ = _run_smoke(no_fastpath=True)
        # Bit-identical end state either way.
        for net in ("acc", "a", "b"):
            assert sim_fast.value(net).to_verilog_bits() == \
                sim_slow.value(net).to_verilog_bits(), f"{net} diverged"
        word = registry.gauge("sim.fastpath.word_ops").value
        ratio = registry.gauge("sim.fastpath.concrete_ratio").value
        assert word > 0 and ratio > 0.9, \
            f"smoke design should be ~all-concrete (ratio {ratio:.2f})"
        _RESULTS["smoke/fast"] = fast
        _RESULTS["smoke/nofp"] = slow
        _RESULTS["smoke/speedup"] = slow / fast
        _RESULTS["smoke/concrete_ratio"] = ratio
        assert slow / fast >= SMOKE_FLOOR, (
            f"end-to-end fast-path speedup {slow / fast:.2f}x below the "
            f"{SMOKE_FLOOR}x floor")

    benchmark.pedantic(run, rounds=1, iterations=1)


# ---------------------------------------------------------------------
# report
# ---------------------------------------------------------------------

def test_fastpath_report(benchmark):
    def build_report():
        lines = [
            "Fast-path throughput (4-op quadruple: add/xor/and/lt)",
            f"{'regime':20s} {'fastpath on':>16s} {'forced off':>16s} "
            f"{'speedup':>9s}",
        ]
        for regime, key in (("concrete 32-bit", "concrete"),
                            ("mixed 28c+4s bit", "mixed"),
                            ("symbolic 8-bit", "symbolic")):
            on_t, on_rate = _RESULTS[f"micro/{key}"]
            off_t, off_rate = _RESULTS[f"micro/{key}+nofp"]
            lines.append(
                f"{regime:20s} {on_rate:12.0f}op/s {off_rate:12.0f}op/s "
                f"{off_t / on_t:8.1f}x")
        lines.append("")
        lines.append(
            f"smoke design (all-concrete): "
            f"{_RESULTS['smoke/nofp']:.2f}s -> {_RESULTS['smoke/fast']:.2f}s "
            f"({_RESULTS['smoke/speedup']:.1f}x, concrete ratio "
            f"{_RESULTS['smoke/concrete_ratio']:.3f}, floor {SMOKE_FLOOR}x)")
        report("fastpath", lines)
        report_json("fastpath", dict(_RESULTS))

    benchmark.pedantic(build_report, rounds=1, iterations=1)
