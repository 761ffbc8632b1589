"""The pure-function memo: which calls it may answer, and what a hit costs.

With fast paths on, a *pure* function's fully-known calls under a TRUE
control are memoized per call site (``repro.compile.funcs``).  A hit
must be invisible: outputs and final values equal the ``no_fastpath``
oracle (which never memoizes), and every ``sim.fastpath.*`` counter
equals a fast-path run with the memo switched off (``MEMO_LIMIT = 0``),
because a hit replays the counter deltas of the call it stands for.

Every impure shape below must keep evaluating its body on every call.
"""

import gc
import itertools
import weakref

import pytest

import repro
from repro import SimOptions
from repro.compile import funcs
from repro.compile.funcs import FunctionEvaluator
from repro.designs import load

FASTPATH_KEYS = ("fastpath_word_ops", "fastpath_bit_shortcuts",
                 "fastpath_symbolic_ops")


@pytest.fixture
def evaluators(monkeypatch):
    """Every FunctionEvaluator compiled during the test, and a count of
    the bodies actually evaluated (memo hits do not evaluate)."""
    made = _Made()
    bodies = [0]
    init = FunctionEvaluator.__init__
    evaluate = FunctionEvaluator._evaluate

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def counting_evaluate(self, *args, **kwargs):
        bodies[0] += 1
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(FunctionEvaluator, "__init__", recording_init)
    monkeypatch.setattr(FunctionEvaluator, "_evaluate", counting_evaluate)
    made.bodies = bodies
    return made


class _Made(list):
    """A list that can also carry the body counter."""


def _run(source, monkeypatch, *, memo=True, no_fastpath=False,
         compile_tier=True, values=()):
    monkeypatch.setattr(funcs, "MEMO_LIMIT", 4096 if memo else 0)
    options = SimOptions(no_fastpath=no_fastpath, compile_tier=compile_tier,
                         echo_output=False)
    sim = repro.open_sim(source, options=options)
    result = sim.run()
    finals = {name: _truth_table(sim, name) for name in values}
    counters = {key: result.stats.bdd[key] for key in FASTPATH_KEYS}
    return result, finals, counters


def _truth_table(sim, name):
    """A net's value under every assignment of the run's variables —
    comparable across runs whose arenas number nodes differently."""
    vec = sim.value(name)
    nvars = sim.mgr.var_count
    return [
        vec.substitute(dict(enumerate(bits))).to_verilog_bits()
        for bits in itertools.product((False, True), repeat=nvars)
    ]


def _check(source, monkeypatch, evaluators, *, values=(), compile_tier=True):
    """Memo on vs memo off vs the no-fastpath oracle; returns the
    number of bodies the memo-on run evaluated and its evaluators."""
    evaluators.bodies[0] = 0
    start = len(evaluators)
    on, on_vals, on_counts = _run(source, monkeypatch, values=values,
                                  compile_tier=compile_tier)
    on_bodies = evaluators.bodies[0]
    on_evals = evaluators[start:]
    off, off_vals, off_counts = _run(source, monkeypatch, memo=False,
                                     values=values,
                                     compile_tier=compile_tier)
    oracle, oracle_vals, _ = _run(source, monkeypatch, no_fastpath=True,
                                  compile_tier=False, values=values)
    assert on.output == off.output == oracle.output
    assert on_vals == off_vals == oracle_vals
    assert on_counts == off_counts
    assert on.to_dict() == off.to_dict()
    return on_bodies, on_evals


TIERS = pytest.mark.parametrize("compile_tier", [True, False],
                                ids=["compiled", "interpreter"])


@TIERS
def test_pure_function_hits_and_replays_counters(monkeypatch, evaluators,
                                                 compile_tier):
    source = """
        module tb; reg [7:0] y; integer i;
          function [7:0] mix;
            input [7:0] v;
            integer k;
            begin
              mix = v;
              for (k = 0; k < 3; k = k + 1) mix = (mix << 1) ^ v;
            end
          endfunction
          initial begin
            for (i = 0; i < 4; i = i + 1) y = mix(8'd5);
            $display("y=%d", y);
          end
        endmodule
    """
    bodies, made = _check(source, monkeypatch, evaluators,
                          values=("y",), compile_tier=compile_tier)
    assert [ev.pure for ev in made] == [True]
    assert bodies == 1
    assert len(made[0]._memo) == 1


@TIERS
def test_display_in_loop_runs_every_time(monkeypatch, evaluators,
                                         compile_tier):
    source = """
        module tb; reg [7:0] y; integer i;
          function [7:0] noisy;
            input [7:0] v;
            begin
              $display("noisy %d", v);
              noisy = v + 1;
            end
          endfunction
          initial for (i = 0; i < 3; i = i + 1) y = noisy(8'd5);
        endmodule
    """
    bodies, made = _check(source, monkeypatch, evaluators,
                          compile_tier=compile_tier)
    assert [ev.pure for ev in made] == [False]
    assert bodies == 3


@TIERS
def test_write_to_module_reg_is_not_skipped(monkeypatch, evaluators,
                                            compile_tier):
    source = """
        module tb; reg [7:0] y, side;
          function [7:0] tick;
            input [7:0] v;
            begin
              side = v;
              tick = v;
            end
          endfunction
          initial begin
            y = tick(8'd3);
            side = 0;
            y = tick(8'd3);
            $display("side=%d", side);
          end
        endmodule
    """
    bodies, made = _check(source, monkeypatch, evaluators,
                          values=("side",), compile_tier=compile_tier)
    assert [ev.pure for ev in made] == [False, False]
    assert bodies == 2


@TIERS
def test_read_of_module_net_is_not_cached(monkeypatch, evaluators,
                                          compile_tier):
    source = """
        module tb; reg [7:0] k, y1, y2;
          function [7:0] addk;
            input [7:0] v;
            addk = v + k;
          endfunction
          initial begin
            k = 1;
            y1 = addk(8'd2);
            k = 5;
            y2 = addk(8'd2);
            $display("%d %d", y1, y2);
          end
        endmodule
    """
    _, made = _check(source, monkeypatch, evaluators,
                     values=("y1", "y2"), compile_tier=compile_tier)
    assert not any(ev.pure for ev in made)
    assert all(not ev._memo for ev in made)


@TIERS
def test_impure_nested_function_makes_caller_impure(monkeypatch, evaluators,
                                                    compile_tier):
    source = """
        module tb; reg [7:0] y; integer i;
          function [7:0] inner;
            input [7:0] v;
            begin
              $display("inner %d", v);
              inner = v;
            end
          endfunction
          function [7:0] outer;
            input [7:0] v;
            outer = inner(v) + 1;
          endfunction
          initial for (i = 0; i < 3; i = i + 1) y = outer(8'd4);
        endmodule
    """
    bodies, made = _check(source, monkeypatch, evaluators,
                          compile_tier=compile_tier)
    by_name = {ev.name: ev.pure for ev in made}
    assert by_name == {"inner": False, "outer": False}
    assert bodies == 6  # three outer calls, each running inner


@TIERS
def test_pure_nested_function_keeps_caller_pure(monkeypatch, evaluators,
                                                compile_tier):
    source = """
        module tb; reg [7:0] y; integer i;
          function [7:0] inner;
            input [7:0] v;
            inner = v + 8'd2;
          endfunction
          function [7:0] outer;
            input [7:0] v;
            outer = inner(v) + 1;
          endfunction
          initial for (i = 0; i < 3; i = i + 1) y = outer(8'd4);
        endmodule
    """
    bodies, made = _check(source, monkeypatch, evaluators,
                          values=("y",), compile_tier=compile_tier)
    assert {ev.name: ev.pure for ev in made} == {"inner": True,
                                                 "outer": True}
    assert bodies == 2  # the first outer call and its inner call


@TIERS
def test_symbolic_argument_bypasses_memo(monkeypatch, evaluators,
                                         compile_tier):
    source = """
        module tb; reg [3:0] a, y1, y2;
          function [3:0] inc;
            input [3:0] v;
            inc = v + 1;
          endfunction
          initial begin
            a = $random;
            y1 = inc(a);
            y2 = inc(a);
          end
        endmodule
    """
    bodies, made = _check(source, monkeypatch, evaluators,
                          values=("y1", "y2"),
                          compile_tier=compile_tier)
    assert all(ev.pure for ev in made)
    assert all(not ev._memo for ev in made)
    assert bodies == 2


@TIERS
def test_non_true_control_bypasses_memo(monkeypatch, evaluators,
                                        compile_tier):
    # One call site, reached first under a TRUE control (the memo
    # learns inc(3)) and then under the symbolic control c, where the
    # generic result is ite(c, 4, X) and must not come from the memo.
    source = """
        module tb; reg c; reg [3:0] y; integer i;
          function [3:0] inc;
            input [3:0] v;
            inc = v + 1;
          endfunction
          initial begin
            c = 1;
            for (i = 0; i < 2; i = i + 1) begin
              if (c) y = inc(4'd3);
              c = $random;
            end
          end
        endmodule
    """
    bodies, made = _check(source, monkeypatch, evaluators,
                          values=("y",), compile_tier=compile_tier)
    assert [len(ev._memo) for ev in made] == [1]
    assert bodies == 2


def test_memo_does_not_pin_a_finished_manager(evaluators):
    """The memo lives in the Program, which outlives its runs (the
    campaign catalog keeps Programs); it must hold no FourVec, or a
    finished simulation's arena would stay alive with it."""
    source, top, defines = load("arbiter", runtime=200)
    sim = repro.open_sim(source, top=top, defines=defines,
                         options=SimOptions(concrete_random=3,
                                            echo_output=False))
    sim.run()
    program = sim.kernel.program
    assert any(ev._memo for ev in evaluators)
    refs = [weakref.ref(sim.kernel), weakref.ref(sim.mgr)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del sim
        assert all(ref() is None for ref in refs)
    finally:
        if was_enabled:
            gc.enable()
    assert program.assigns  # the Program (and its memos) is still alive
    assert any(ev._memo for ev in evaluators)
