"""Event controls on words against the generic path.

With the compiled tier and fast paths on, an event control whose
trigger reads a known word under a TRUE path control is tested on
ints: the kernel keeps the trigger's last value as a raw word, and
constant delays are evaluated once.  Every testbench here runs three
ways: the compiled tier (the word paths), the interpreter
(``compile_tier=False``) and the interpreter with fast paths off on the
Python store (``no_fastpath``).  The first two must agree on the whole
result payload, the VCD bytes and the ``[stats]`` summary; the oracle
on all of it except the BDD counters (its fast-path counters stay 0).
"""

import pickle

import pytest

import repro
from repro import SimOptions
from repro.compile.instructions import Delay
from repro.guard import save_checkpoint
from repro.guard.checkpoint import _collect_payload

CONFIGS = {
    "compiled": {},
    "interpreter": {"compile_tier": False},
    "no_fastpath": {"compile_tier": False, "no_fastpath": True},
}

#: posedge, negedge and any-change on a clock, on bit 0 of a vector, on
#: a signed reg and on an integer
EDGES = """
module tb;
  reg clk;
  reg [3:0] v;
  reg signed [3:0] s;
  integer i;
  reg [7:0] pos, neg, any, vpos, vneg, sany, spos, iany;
  initial begin
    pos = 0; neg = 0; any = 0; vpos = 0; vneg = 0;
    sany = 0; spos = 0; iany = 0;
    clk = 0; v = 0; s = 0; i = 0;
  end
  always #5 clk = ~clk;
  always @(posedge clk) pos = pos + 1;
  always @(negedge clk) neg = neg + 1;
  always @(clk) any = any + 1;
  always @(posedge v) vpos = vpos + 1;
  always @(negedge v) vneg = vneg + 1;
  always @(s) sany = sany + 1;
  always @(posedge s) spos = spos + 1;
  always @(i) iany = iany + 1;
  initial begin
    #3 v = 2; #10 v = 3; #10 v = 4; #10 v = 6; #10 v = 7;
  end
  initial begin
    #4 s = -1; #10 s = -2; #10 s = 5; #10 s = -8;
  end
  initial begin #2 i = -5; #20 i = 7; #20 i = 7; end
  initial begin
    #61 $display("%0d %0d %0d %0d %0d %0d %0d %0d",
                 pos, neg, any, vpos, vneg, sany, spos, iany);
    $finish;
  end
endmodule
"""

#: ``@(posedge a or negedge b or c)`` mixes, ``@*`` over unsigned,
#: signed and integer operands, and triggers on expressions (whose
#: evaluation counts word ops)
MIXES = """
module tb;
  reg a, b;
  reg [1:0] c;
  reg [3:0] x, y;
  reg signed [3:0] sx;
  integer k;
  reg [7:0] hits, sum, prod, wakes, sums, ands;
  always @(posedge a or negedge b or c) hits = hits + 1;
  always @* sum = x + y + sx;
  always @* begin prod = x * k; wakes = wakes + 1; end
  always @(x + y) sums = sums + 1;
  always @(posedge (a & ~b) or c[1]) ands = ands + 1;
  initial begin
    hits = 0; wakes = 0; sums = 0; ands = 0;
    a = 0; b = 1; c = 0; x = 0; y = 0; sx = 0; k = 1;
    #1 a = 1; #1 b = 0; #1 c = 2; #1 a = 0; #1 b = 1; #1 c = 2;
    #1 a = 1; b = 0; #1 c = 3;
    #1 x = 3; #1 y = 4; #1 sx = -2; #1 k = -3; #1 x = 3; #1 k = 2;
    #1 $display("%0d %0d %0d %0d %0d %0d", hits, sum, prod, wakes, sums,
                ands);
    $finish;
  end
endmodule
"""

#: clocks that start at X (and pass through X and Z): X->0 and X->1
#: are edges the generic path decides
XCLOCKS = """
module tb;
  reg clk, clk2;
  reg [7:0] p, n, p2, a2;
  always @(posedge clk) p = p + 1;
  always @(negedge clk) n = n + 1;
  always @(posedge clk2) p2 = p2 + 1;
  always @(clk2) a2 = a2 + 1;
  initial begin
    p = 0; n = 0; p2 = 0; a2 = 0;
    #1 clk = 0; #1 clk = 1; #1 clk = 1'bx; #1 clk = 1; #1 clk = 1'bz;
    #1 clk = 0; #1 clk2 = 1; #1 clk2 = 0; #1 clk2 = 1'bz; #1 clk2 = 1;
    #1 $display("%0d %0d %0d %0d", p, n, p2, a2);
    $finish;
  end
endmodule
"""

#: waiters under a symbolic path control, then under TRUE once the
#: paths merge
SYMBOLIC = """
module tb;
  reg clk;
  reg [3:0] r;
  reg [7:0] x, y;
  always #5 clk = ~clk;
  initial begin
    clk = 0; x = 0; y = 0;
    r = $random;
    if (r[0]) @(posedge clk) x = 1;
    else @(negedge clk) x = 2;
    @(posedge clk) y = x + r;
    @(negedge clk) y = y + 1;
    #1 $display("%d %d", x, y);
    $finish;
  end
endmodule
"""

#: ``#0``, parameter, folded-constant and variable delays, and a
#: signed constant delay read unsigned
DELAYS = """
module tb;
  parameter P = 3;
  reg [7:0] t0, t1, t2, t3, d;
  initial begin
    t0 = 0; t1 = 0; t2 = 0; t3 = 0; d = 2;
    #0 t0 = 1;
    #P t1 = $time;
    #(P * 2 + 1) t2 = $time;
    #d t3 = $time;
    repeat (3) #P t0 = t0 + 1;
    #(4'sb1111) t3 = t3 + $time;
    #0 $display("%0d %0d %0d %0d", t0, t1, t2, t3);
    $finish;
  end
  initial #0 $display("zero %0d", t0);
endmodule
"""

#: triggers on expressions of every signedness, so that a raw ``last``
#: must materialize into each kind of vector ``eval`` returns
_TRIGGERS = ["s + 1", "$signed(a)", "$unsigned(s)", "c ? s : t", "s >>> 1",
             "-s", "{a, b}", "s[2:1]", "mem[a]", "s * t", "i + s",
             "a - s", "P + s", "i >>> 2", "{2{s}}"]
EXPRESSIONS = """
module tb;
  parameter P = -3;
  reg signed [3:0] s, t;
  reg [3:0] a, b;
  reg c;
  integer i;
  reg [3:0] mem [0:15];
  reg [7:0] n [0:%d];
  integer k;
%s
  initial begin
    for (k = 0; k < %d; k = k + 1) n[k] = 0;
    s = -2; t = 3; a = 5; b = 1; c = 1; i = -7; mem[5] = 9; mem[2] = 4;
    #1 s = 3; #1 t = -4; #1 a = 2; c = 0; #1 i = 8; #1 b = 0; s = -1;
    #1 $display("%%0d %%0d %%0d", n[0], n[5], n[14]);
    $finish;
  end
endmodule
""" % (len(_TRIGGERS) - 1,
       "\n".join(f"  always @({e}) n[{k}] = n[{k}] + 1;"
                 for k, e in enumerate(_TRIGGERS)),
       len(_TRIGGERS))

CASES = {"edges": EDGES, "mixes": MIXES, "xclocks": XCLOCKS,
         "symbolic": SYMBOLIC, "delays": DELAYS, "expressions": EXPRESSIONS}


def _run(source, config, tmp_path, random=7):
    vcd = tmp_path / f"{config}.vcd"
    options = SimOptions(vcd_path=str(vcd), echo_output=False,
                         concrete_random=random, **CONFIGS[config])
    sim = repro.open_sim(source, top="tb", options=options)
    result = sim.run()
    sim.kernel._close_vcd()
    return result, vcd.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_word_path_matches_the_generic_path(case, tmp_path):
    random = None if case == "symbolic" else 7
    runs = {config: _run(CASES[case], config, tmp_path, random)
            for config in CONFIGS}
    compiled, vcd = runs["compiled"]
    assert compiled.finished and compiled.output
    for config in ("interpreter", "no_fastpath"):
        result, other_vcd = runs[config]
        assert other_vcd == vcd, config
        payload, expected = result.to_dict(), compiled.to_dict()
        summary, reference = result.stats.summary(), compiled.stats.summary()
        if config == "no_fastpath":
            del payload["metrics"]["bdd"], expected["metrics"]["bdd"]
            summary = summary.partition("; bdd:")[0]
            reference = reference.partition("; bdd:")[0]
        assert payload == expected, config
        assert summary == reference, config
    # the word path was taken: every trigger and delay of these
    # testbenches is concrete somewhere
    assert compiled.kernel.mgr.fastpath_word_ops > 0


def test_edge_counts(tmp_path):
    # the counts the 1364 edge table gives, worked out by hand
    assert _run(EDGES, "compiled", tmp_path)[0].output == \
        ["6 6 12 2 1 4 2 2"]
    assert _run(XCLOCKS, "compiled", tmp_path)[0].output == ["2 4 3 4"]


def test_constant_delays_are_evaluated_once(tmp_path):
    result, _ = _run(DELAYS, "compiled", tmp_path)
    process = result.kernel.program.processes[0]
    delays = [inst for inst in process.instructions
              if isinstance(inst, Delay)]
    constants = [inst.constant for inst in delays]
    # #0, #P, #(P*2+1), #d, the repeat's #P and #(4'sb1111) read unsigned
    assert constants == [0, 3, 7, None, 3, 15, 0]
    assert result.output[-1] == "4 3 10 48"


def _payload(kern, directory):
    """The checkpoint payload without its timing floats."""
    payload = _collect_payload(kern, str(directory))
    del payload["cpu_accum"]
    payload["stats"]["bdd"] = {
        key: value for key, value in payload["stats"]["bdd"].items()
        if not key.endswith("_seconds")}
    return pickle.loads(pickle.dumps(payload))


@pytest.mark.parametrize("case, until", [
    ("edges", 22), ("edges", 37), ("mixes", 8), ("mixes", 15),
    ("expressions", 2),
])
def test_checkpoint_with_word_waiters_armed(case, until, tmp_path):
    """A checkpoint taken while waiters hold raw words decodes to the
    interpreter's checkpoint, and resumes to the uninterrupted tail."""
    source = CASES[case]
    whole = {}
    payloads = {}
    for config in ("compiled", "interpreter"):
        directory = tmp_path / config
        directory.mkdir()
        whole[config] = _run(source, config, directory)
        options = SimOptions(vcd_path=str(directory / "split.vcd"),
                             echo_output=False, concrete_random=7,
                             **CONFIGS[config])
        sim = repro.open_sim(source, top="tb", options=options)
        sim.run(until=until)
        lasts = [last for waiters in sim.kernel._waiters.values()
                 for waiter in waiters for last in waiter.lasts]
        raw = [last for last in lasts if type(last) is int]
        # the compiled tier holds raw words; the interpreter never does
        assert bool(raw) == (config == "compiled")
        path = directory / "mid.ckpt"
        save_checkpoint(sim.kernel, str(path))
        payloads[config] = _payload(sim.kernel, directory)
        sim.kernel._close_vcd()
        resumed = repro.open_sim(source, top="tb", options=options,
                                 resume=str(path))
        result = resumed.run()
        resumed.kernel._close_vcd()
        reference, vcd = whole[config]
        assert result.output == reference.output
        assert (directory / "split.vcd").read_bytes() == vcd
    assert payloads["compiled"] == payloads["interpreter"]
