"""The pure-function call memo: which calls it may answer, and how.

With fast paths on, a *pure* function's calls go through one memo owned
by the ``BddManager``, keyed by the function's token and the argument
rails (``repro.compile.funcs``).  A TRUE-control miss evaluates the body
and stores the result; a TRUE-control hit replays the fast-path counter
deltas of the call it stands for; a hit under a narrower control ``C``
derives ``ite(C, f(args), X)`` from the stored rails.

Every hit must be invisible: outputs and final values equal the
``no_fastpath`` oracle (which never memoizes).  A TRUE-control hit also
leaves every ``fastpath_*`` counter equal to a fast-path run with the
memo switched off (``MEMO_LIMIT = 0``).  A derived hit skips work whose
counters were never measured, so instead each one is checked to be
pointer-identical to evaluating the body under ``C`` in the same
manager.  Every impure shape below must keep evaluating its body on
every call.
"""

import gc
import itertools
import os
import weakref

import pytest

import repro
from repro import SimOptions
from repro.bdd import TRUE
from repro.compile import funcs
from repro.compile.funcs import FunctionEvaluator
from repro.designs import load
from repro.guard import load_checkpoint, save_checkpoint
from repro.mutate import build_plan
from tests.integration.test_array_writes import state_digest

FASTPATH_KEYS = ("fastpath_word_ops", "fastpath_symbolic_ops")

#: the operators, runtime and bound of the ``campaign`` benchmark
CAMPAIGN_OPERATORS = ["stuck0", "stuck1", "cmpswap", "const", "nbaswap"]
CAMPAIGN_RUNTIME = 60


class _CallLog:
    """What the wrapped evaluators did during one test."""

    def __init__(self) -> None:
        self.made = []          # every FunctionEvaluator compiled
        self.bodies = 0         # bodies evaluated (hits evaluate none)
        self.derived = {}       # function name -> derived hits checked
        self.hits = 0           # TRUE-control hits checked
        self.check = True       # evaluate the body behind every hit


@pytest.fixture
def calls(monkeypatch):
    """Record every evaluator, count evaluated bodies, and check every
    memo answer against evaluating the body in the same manager.

    The check's own evaluation is invisible: the log and the manager's
    fast-path and call counters are restored after it.
    """
    log = _CallLog()
    init = FunctionEvaluator.__init__
    evaluate = FunctionEvaluator._evaluate
    call = FunctionEvaluator.call

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        log.made.append(self)

    def counting_evaluate(self, *args, **kwargs):
        log.bodies += 1
        return evaluate(self, *args, **kwargs)

    def checking_call(self, kern, outer_env, ctrl, args):
        before = log.bodies
        result = call(self, kern, outer_env, ctrl, args)
        if log.bodies != before or not log.check:
            return result
        mgr = kern.mgr
        saved = (log.bodies, log.hits, dict(log.derived),
                 mgr._fp_word, mgr._fp_sym,
                 mgr._calls, mgr._call_hits, mgr._call_derived)
        expected = evaluate(self, kern, ctrl, args)
        (log.bodies, log.hits, log.derived,
         mgr._fp_word, mgr._fp_sym,
         mgr._calls, mgr._call_hits, mgr._call_derived) = saved
        assert result.bits == expected.bits, self.name
        if ctrl == TRUE:
            log.hits += 1
        else:
            log.derived[self.name] = log.derived.get(self.name, 0) + 1
        return result

    monkeypatch.setattr(FunctionEvaluator, "__init__", recording_init)
    monkeypatch.setattr(FunctionEvaluator, "_evaluate", counting_evaluate)
    monkeypatch.setattr(FunctionEvaluator, "call", checking_call)
    return log


def _run(source, monkeypatch, *, memo=True, no_fastpath=False,
         compile_tier=True, values=()):
    monkeypatch.setattr(funcs, "MEMO_LIMIT", 4096 if memo else 0)
    options = SimOptions(no_fastpath=no_fastpath, compile_tier=compile_tier,
                         echo_output=False)
    sim = repro.open_sim(source, options=options)
    result = sim.run()
    finals = {name: _truth_table(sim, name) for name in values}
    counters = {key: result.stats.bdd[key] for key in FASTPATH_KEYS}
    return result, finals, counters, sim


def _truth_table(sim, name):
    """A net's value under every assignment of the run's variables —
    comparable across runs whose arenas number nodes differently."""
    vec = sim.value(name)
    nvars = sim.mgr.var_count
    return [
        vec.substitute(dict(enumerate(bits))).to_verilog_bits()
        for bits in itertools.product((False, True), repeat=nvars)
    ]


def _without_bdd(payload):
    """A ``to_dict`` payload minus the manager counters, which a hit
    on symbolic rails legitimately lowers (it skips cached BDD work)."""
    metrics = dict(payload["metrics"])
    del metrics["bdd"]
    return {**payload, "metrics": metrics}


def _check(source, monkeypatch, calls, *, values=(), compile_tier=True):
    """Memo on vs memo off vs the no-fastpath oracle; returns the
    memo-on run's evaluated bodies, evaluators, result and simulator."""
    calls.bodies = 0
    start = len(calls.made)
    on, on_vals, on_counts, sim = _run(source, monkeypatch, values=values,
                                       compile_tier=compile_tier)
    on_bodies = calls.bodies
    on_evals = calls.made[start:]
    off, off_vals, off_counts, _ = _run(source, monkeypatch, memo=False,
                                        values=values,
                                        compile_tier=compile_tier)
    oracle, oracle_vals, _, _ = _run(source, monkeypatch, no_fastpath=True,
                                     compile_tier=False, values=values)
    assert on.output == off.output == oracle.output
    assert on_vals == off_vals == oracle_vals
    assert _without_bdd(on.to_dict()) == _without_bdd(off.to_dict())
    assert off.stats.bdd["call_memo_hits"] == 0
    assert off.stats.bdd["call_memo_derived"] == 0
    if on.stats.bdd["call_memo_derived"] == 0:
        assert on_counts == off_counts
    return on_bodies, on_evals, on, sim


def _entries(sim, evaluator):
    """The manager memo's entries for one function."""
    return [key for key in sim.mgr._call_memo if key[0] is evaluator.token]


TIERS = pytest.mark.parametrize("compile_tier", [True, False],
                                ids=["compiled", "interpreter"])


@TIERS
def test_pure_function_hits_and_replays_counters(monkeypatch, calls,
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
    bodies, made, result, sim = _check(source, monkeypatch, calls,
                                       values=("y",),
                                       compile_tier=compile_tier)
    assert [ev.pure for ev in made] == [True]
    assert bodies == 1
    assert len(_entries(sim, made[0])) == 1
    assert result.stats.bdd["function_calls"] == 4
    assert result.stats.bdd["call_memo_hits"] == 3


@TIERS
def test_display_in_loop_runs_every_time(monkeypatch, calls, compile_tier):
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
    bodies, made, _, sim = _check(source, monkeypatch, calls,
                                  compile_tier=compile_tier)
    assert [ev.pure for ev in made] == [False]
    assert bodies == 3
    assert not sim.mgr._call_memo


@TIERS
def test_write_to_module_reg_is_not_skipped(monkeypatch, calls,
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
    bodies, made, _, _ = _check(source, monkeypatch, calls,
                                values=("side",), compile_tier=compile_tier)
    assert [ev.pure for ev in made] == [False, False]
    assert bodies == 2


@TIERS
def test_read_of_module_net_is_not_cached(monkeypatch, calls, compile_tier):
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
    _, made, _, sim = _check(source, monkeypatch, calls,
                             values=("y1", "y2"), compile_tier=compile_tier)
    assert not any(ev.pure for ev in made)
    assert not sim.mgr._call_memo


@TIERS
def test_impure_nested_function_makes_caller_impure(monkeypatch, calls,
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
    bodies, made, _, _ = _check(source, monkeypatch, calls,
                                compile_tier=compile_tier)
    by_name = {ev.name: ev.pure for ev in made}
    assert by_name == {"inner": False, "outer": False}
    assert bodies == 6  # three outer calls, each running inner


@TIERS
def test_pure_nested_function_keeps_caller_pure(monkeypatch, calls,
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
    bodies, made, _, _ = _check(source, monkeypatch, calls,
                                values=("y",), compile_tier=compile_tier)
    assert {ev.name: ev.pure for ev in made} == {"inner": True,
                                                 "outer": True}
    assert bodies == 2  # the first outer call and its inner call


@TIERS
def test_symbolic_argument_hits_memo(monkeypatch, calls, compile_tier):
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
    bodies, made, result, sim = _check(source, monkeypatch, calls,
                                       values=("y1", "y2"),
                                       compile_tier=compile_tier)
    assert all(ev.pure for ev in made)
    assert len(made) == 2 and made[0].token is made[1].token
    assert len(_entries(sim, made[0])) == 1
    assert bodies == 1
    assert result.stats.bdd["call_memo_hits"] == 1
    assert calls.hits == 1


@TIERS
def test_non_true_control_derives_from_memo(monkeypatch, calls,
                                            compile_tier):
    # One call site, reached first under a TRUE control (the memo
    # learns inc(3)) and then under the symbolic control c, where the
    # result ite(c, 4, X) is derived from the stored rails.
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
    bodies, made, result, sim = _check(source, monkeypatch, calls,
                                       values=("y",),
                                       compile_tier=compile_tier)
    assert [len(_entries(sim, ev)) for ev in made] == [1]
    assert bodies == 1
    assert result.stats.bdd["call_memo_derived"] == 1
    assert calls.derived == {"inc": 1}


#: pure bodies covering every control-flow shape a function may have,
#: keyed by name; each is called on the same symbolic argument under a
#: TRUE control, an ``if`` control and two ``case`` arm controls
BODIES = {
    "count_up": """
        integer i;
        begin
          count_up = 0;
          for (i = 0; i < v[2:0]; i = i + 1) count_up = count_up + 2;
        end""",
    "halvings": """
        reg [3:0] r;
        begin
          r = v;
          halvings = 0;
          while (r > 1) begin
            r = r >> 1;
            halvings = halvings + 1;
          end
        end""",
    "decode": """
        case (v[1:0])
          2'd0: decode = 4'b0001;
          2'd1: decode = v;
          2'd2: decode = ~v;
          default: decode = 4'bx1z0;
        endcase""",
    "first_one": """
        integer i;
        begin
          first_one = 4'hf;
          for (i = 0; i < 4; i = i + 1)
            if (v[i]) begin
              first_one = i;
              disable first_one;
            end
        end""",
    "set_bits": """
        begin
          set_bits = 4'b0000;
          set_bits[v[1:0]] = 1'b1;
          set_bits[v[3:2]] = v[0];
        end""",
    "nested": """
        nested = decode(v) ^ first_one(v) + halvings(v);""",
}


def _bodies_source():
    decls = "".join(
        f"function [3:0] {name}; input [3:0] v; {body}\nendfunction\n"
        for name, body in BODIES.items())
    outs = ", ".join(f"{name}_{k}" for name in BODIES for k in range(3))
    sites = "".join(f"""
        {name}_0 = {name}(a);
        if (c) {name}_1 = {name}(a);
        case (s)
          2'd1: {name}_2 = {name}(a);
          2'd2: {name}_2 = ~{name}(a);
        endcase""" for name in BODIES)
    return f"""
        module tb; reg [3:0] a; reg c; reg [1:0] s;
          reg [3:0] {outs};
          {decls}
          initial begin
            a = $random; c = $random; s = $random;
            {sites}
          end
        endmodule
    """


@TIERS
def test_derived_hits_match_c_control_evaluation(monkeypatch, calls,
                                                 compile_tier):
    values = [f"{name}_{k}" for name in BODIES for k in range(3)]
    _, made, result, _ = _check(_bodies_source(), monkeypatch, calls,
                                values=values, compile_tier=compile_tier)
    assert all(ev.pure and ev.derivable for ev in made)
    assert calls.derived == {name: 3 for name in BODIES}
    assert result.stats.bdd["call_memo_derived"] == 3 * len(BODIES)


def test_campaign_mutants_derive_node_for_node(monkeypatch, calls):
    """Every derived hit of the 43 ``campaign`` mutants equals the
    C-control evaluation (checked by ``calls``); each mutant's final
    state equals the oracle's."""
    source, top, defines = load("arbiter", runtime=CAMPAIGN_RUNTIME)
    plan = build_plan(source, top=top, defines=defines,
                      operators=CAMPAIGN_OPERATORS)
    assert len(plan.mutants) == 43
    totals = {"function_calls": 0, "call_memo_hits": 0,
              "call_memo_derived": 0}
    for mutant in plan.mutants:
        mutant_source = plan.mutant_source(mutant)
        runs = []
        for no_fastpath in (False, True):
            options = SimOptions(no_fastpath=no_fastpath,
                                 compile_tier=not no_fastpath,
                                 echo_output=False)
            sim = repro.open_sim(mutant_source, top=plan.top,
                                 options=options)
            result = sim.run(until=CAMPAIGN_RUNTIME + 20)
            payload = result.to_dict()
            runs.append((payload["violations"], payload["output"],
                         state_digest(sim)))
            if not no_fastpath:
                for key in totals:
                    totals[key] += result.stats.bdd[key]
        assert runs[0] == runs[1], mutant.id
    assert totals == {"function_calls": 644, "call_memo_hits": 232,
                      "call_memo_derived": 177}
    assert sum(calls.derived.values()) == 177
    assert calls.hits == 232


RAISING = {
    # a count constant under TRUE is symbolic under c
    "repeat": ("""
        module tb; reg [1:0] a; reg c; reg [3:0] y0, y1;
          function [3:0] rep;
            input [1:0] v;
            reg [1:0] n;
            begin
              n = 2;
              rep = 0;
              repeat (n) rep = rep + v;
            end
          endfunction
          initial begin
            a = $random; c = $random;
            y0 = rep(a);
            if (c) y1 = rep(a);
          end
        endmodule
    """, "rep"),
    # so is a 17-bit exponent
    "power": ("""
        module tb; reg [1:0] a; reg c; reg [16:0] y0, y1;
          function [16:0] sq;
            input [16:0] v;
            reg [16:0] e;
            begin
              e = 2;
              sq = v ** e;
            end
          endfunction
          function [16:0] outer;
            input [16:0] v;
            outer = sq(v) + 1;
          endfunction
          initial begin
            a = $random; c = $random;
            y0 = outer(a);
            if (c) y1 = outer(a);
          end
        endmodule
    """, "outer"),
}


@pytest.mark.parametrize("shape", sorted(RAISING))
@TIERS
def test_raising_bodies_are_never_derived(monkeypatch, calls, shape,
                                          compile_tier):
    source, name = RAISING[shape]
    calls.check = False  # the check would raise in place of the memo
    raised = []
    for no_fastpath in (False, True):
        options = SimOptions(no_fastpath=no_fastpath,
                             compile_tier=compile_tier and not no_fastpath,
                             echo_output=False)
        sim = repro.open_sim(source, options=options)
        with pytest.raises(Exception) as info:
            sim.run()
        raised.append((type(info.value), str(info.value)))
        if not no_fastpath:
            caller = [ev for ev in calls.made if ev.name == name][-1]
            assert caller.pure and not caller.derivable
            assert len(_entries(sim, caller)) == 1  # the TRUE-control call
    assert raised[0] == raised[1]


def _arbiter(runtime=200, **knobs):
    source, top, defines = load("arbiter", runtime=runtime)
    return repro.open_sim(source, top=top, defines=defines,
                          options=SimOptions(echo_output=False, **knobs))


def test_memo_is_dropped_with_the_op_caches(tmp_path):
    """Entries name node ids, so every operation that renumbers or
    frees nodes empties the memo."""
    sim = _arbiter()
    mgr = sim.mgr
    for until, drop in ((40, mgr.collect), (60, mgr.sift),
                        (80, lambda: mgr.concretize(0))):
        sim.run(until=until)
        assert mgr._call_memo
        drop()
        assert not mgr._call_memo
    sim.run(until=100)
    assert mgr._call_memo
    path = save_checkpoint(sim.kernel, os.path.join(tmp_path, "arb.ckpt"))
    resumed = load_checkpoint(sim.program, path)
    assert not resumed.mgr._call_memo
    assert resumed.run(until=120).stats.bdd["call_memo_hits"] > 0


def test_gc_and_sifting_keep_violations_and_vcd(tmp_path):
    runs = []
    for name, knobs in (("default", {}),
                        ("gc", dict(gc_threshold=2000, dyn_reorder=True))):
        vcd = os.path.join(tmp_path, f"{name}.vcd")
        result = _arbiter(vcd_path=vcd, **knobs).run()
        with open(vcd, "rb") as handle:
            runs.append((result.to_dict()["violations"], handle.read()))
        bdd = result.stats.bdd
        assert bdd["call_memo_derived"] > 0
        if knobs:
            assert bdd["gc_runs"] > 0 and bdd["reorder_runs"] > 0
    assert runs[0] == runs[1]


def test_memo_does_not_pin_a_finished_manager(calls):
    """The memo lives in the manager and holds node ids and tokens,
    never a FourVec: a finished simulation frees its arena by
    refcounting alone, while the Program (kept by the campaign catalog)
    and its tokens stay alive."""
    sim = _arbiter(runtime=60, concrete_random=3)
    sim.run()
    program = sim.kernel.program
    assert sim.mgr._call_memo
    picks = [ev for ev in calls.made if ev.name == "pick"]
    assert len(picks) == 3 and len({ev.token for ev in picks}) == 1
    refs = [weakref.ref(sim.kernel), weakref.ref(sim.mgr)]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del sim
        assert all(ref() is None for ref in refs)
    finally:
        if was_enabled:
            gc.enable()
    assert list(program.func_tokens.values()) == [picks[0].token]
