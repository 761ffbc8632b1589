"""Pretty-printer round trip: parse(print(parse(s))) ≡ parse(s).

Structural AST equality after a round trip proves the printer emits
valid, meaning-preserving source.  Runs over hand-picked programs,
every bundled benchmark design, and — behaviorally — over simulation
results (printing, re-parsing and re-simulating must give identical
final values).
"""

import dataclasses

import pytest

from repro.designs import load
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse_source
from repro.frontend.printer import print_module, print_modules


def ast_equal(a, b) -> bool:
    """Structural equality ignoring source line numbers."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            # line numbers and literal radix are presentation, not
            # semantics (the printer normalizes radix to binary)
            if field.name in ("line", "base"):
                continue
            if not ast_equal(getattr(a, field.name), getattr(b, field.name)):
                return False
        return True
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            ast_equal(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, dict):
        return set(a) == set(b) and all(ast_equal(a[k], b[k]) for k in a)
    return a == b


def roundtrip(source, defines=None):
    first = parse_source(source, defines=defines)
    printed = print_modules(first)
    second = parse_source(printed)
    assert set(first) == set(second), printed
    for name in first:
        assert ast_equal(first[name], second[name]), (
            f"module {name} changed across round trip:\n{printed}"
        )
    return printed


SAMPLES = [
    # declarations of every kind
    """
    module m;
      parameter W = 4;
      localparam D = W * 2;
      reg [W-1:0] r;
      reg signed [7:0] s;
      wire [3:0] w;
      tri t;
      wand wa; wor wo; tri0 t0; tri1 t1;
      integer i;
      time tm;
      event ev;
      reg [7:0] mem [0:15];
      reg init_me = 1;
    endmodule
    """,
    # all statement forms
    """
    module m; reg a, clk; reg [3:0] x; integer k; event ev;
      initial begin : named
        x = 1;
        x <= 2;
        x = #3 4;
        x <= #1 5;
        x = @(posedge clk) 6;
        if (a) x = 1; else if (!a) x = 2; else x = 3;
        case (x) 0: x = 1; 1, 2: x = 2; default: ; endcase
        casez (x) 4'b1??? : x = 0; endcase
        for (k = 0; k < 4; k = k + 1) x = x + 1;
        while (x != 0) x = x - 1;
        repeat (3) #1 x = x + 1;
        wait (a) x = 9;
        disable named;
        -> ev;
        $display("hi %d", x);
      end
      initial fork : f
        #1 a = 0;
        #2 a = 1;
      join
      initial forever #5 clk = ~clk;
      always @(a or posedge clk) x = {x[2:0], a};
      always @* x = x;
    endmodule
    """,
    # expressions
    """
    module m; reg [7:0] a, b, y; reg c;
      wire [7:0] w = (a + b) * (a - b) / (b % 3) ** 2;
      initial begin
        y = ~a & b | a ^ b ~^ a;
        y = {a[3:0], b[7:4], {2{c}}};
        y = (a < b) ? a : (a >= b) ? b : 8'hff;
        y = a << 2 >> b[1:0] >>> 1;
        c = &a | ^b & ~|y;
        c = a == b && a !== b || a != 8'b1010_xzxz;
        y = $signed(a) + $unsigned(b);
        y = b[c];
      end
    endmodule
    """,
    # unsized decimals past 32 bits, and a 32-bit 'sd one past 2**31
    """
    module m; reg [63:0] y;
      initial begin
        y = 4294967296 + 2147483648 + 42;
        y = 'sd4294967295 + 'd7;
      end
    endmodule
    """,
    # hierarchy + functions + tasks + gates
    """
    module child(input [3:0] i, output [3:0] o);
      assign o = i + 1;
    endmodule
    module top;
      reg [3:0] x; wire [3:0] y, z;
      child #(.P(1)) u1 (.i(x), .o(y));
      child u2 (x, z);
      and g1(w1, x[0], x[1]);
      not (w2, x[2]);
      wire w1, w2;
      function [3:0] inc;
        input [3:0] v;
        inc = v + 1;
      endfunction
      task pulse;
        input [3:0] n;
        begin #n x = inc(x); end
      endtask
      initial pulse(2);
      initial $display("%d", top.u1.o);
    endmodule
    """,
]


@pytest.mark.parametrize("index", range(len(SAMPLES)))
def test_roundtrip_samples(index):
    roundtrip(SAMPLES[index])


@pytest.mark.parametrize("design,kwargs", [
    ("gcd", {}),
    ("dram", {}),
    ("risc8", {"runtime": 100}),
    ("mcu8", {"runtime": 100}),
    ("arbiter", {"runtime": 80}),
])
def test_roundtrip_bundled_designs(design, kwargs):
    source, _, defines = load(design, **kwargs)
    roundtrip(source, defines=defines)


def test_printed_design_simulates_identically():
    import repro

    source, top, defines = load("gcd", rounds=1)
    original = repro.open_sim(source, top=top,
                                                   defines=defines)
    result_a = original.run(until=2000)

    printed = print_modules(parse_source(source, defines=defines))
    reprinted = repro.open_sim(printed, top=top)
    result_b = reprinted.run(until=2000)

    assert result_a.time == result_b.time
    assert len(result_a.violations) == len(result_b.violations)
    assert result_a.stats.events_processed == result_b.stats.events_processed


def test_print_single_module():
    module = parse_source("module solo; reg r; endmodule")["solo"]
    text = print_module(module)
    assert text.startswith("module solo;")
    assert text.endswith("endmodule")
