"""Two kernels in one process must not cross-talk.

The batch engine runs one kernel per worker process, but the library
makes a stronger promise: kernels share no mutable module state, so a
single process can interleave independent simulations — step one, step
the other, step the first again — and each produces exactly what it
would have produced running alone."""

from __future__ import annotations

import repro
from repro import SimOptions

SYMBOLIC = """
module tb;
  reg [3:0] a; reg [7:0] acc;
  initial begin
    acc = 0;
    repeat (5) begin
      #10 a = $random;
      acc = acc + a;
    end
  end
endmodule
"""

CONST_FOLD = """
module tb;
  reg [7:0] x;
  initial begin
    x = 8'd3 * 8'd5 + 8'd2;
    repeat (5) #10 x = x + 8'd7;
  end
endmodule
"""


def _signature(sim, net, nvars=32):
    """Manager-independent fingerprint of a (possibly symbolic) value:
    per-bit satisfying-assignment counts over a fixed variable space."""
    vec = sim.value(net)
    return [(sim.mgr.sat_count(a, nvars), sim.mgr.sat_count(b, nvars))
            for a, b in vec.bits]


def test_interleaved_symbolic_runs_match_solo():
    solo_one = repro.open_sim(SYMBOLIC)
    ref_one = solo_one.run()
    solo_two = repro.open_sim(SYMBOLIC, options=SimOptions(concrete_random=9))
    ref_two = solo_two.run()

    one = repro.open_sim(SYMBOLIC)
    two = repro.open_sim(SYMBOLIC, options=SimOptions(concrete_random=9))
    # interleave in 10-tick slices: 1, 2, 1, 2, ...
    for bound in (15, 25, 35, 45, None):
        one.run(until=bound)
        two.run(until=bound)
    got_one = one.kernel.run()
    got_two = two.kernel.run()

    assert _signature(one, "acc") == _signature(solo_one, "acc")
    assert two.value("acc").to_verilog_bits() == \
        solo_two.value("acc").to_verilog_bits()
    assert got_one.time == ref_one.time
    assert got_two.time == ref_two.time
    # identical symbolic work: same BDD arena, same event counters
    assert one.mgr.total_nodes == solo_one.mgr.total_nodes
    assert got_one.metrics() == ref_one.metrics()
    assert got_two.metrics() == ref_two.metrics()


def test_constant_folding_shares_nothing_across_designs():
    # constant folding once kept a module-level scratch kernel; two designs
    # folding constants in the same process must each see fresh state
    first = repro.open_sim(CONST_FOLD)
    second = repro.open_sim(SYMBOLIC)
    third = repro.open_sim(CONST_FOLD)
    r1 = first.run()
    second.run()
    r3 = third.run()
    assert first.value("x").to_verilog_bits() == \
        third.value("x").to_verilog_bits() == \
        format((3 * 5 + 2 + 5 * 7) % 256, "08b")
    assert r1.metrics() == r3.metrics()


def test_same_process_rebuild_is_bit_identical():
    results = []
    for _ in range(2):
        sim = repro.open_sim(SYMBOLIC)
        result = sim.run()
        results.append((_signature(sim, "acc"),
                        sim.mgr.total_nodes,
                        result.to_dict()))
    assert results[0] == results[1]
