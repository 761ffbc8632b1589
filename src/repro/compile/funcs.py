"""Inline evaluation of user-defined Verilog functions.

Functions may not contain delay or event control (1364 §10.3), so a
call evaluates to completion inside one expression evaluation.  Control
flow over symbolic data is handled the same way the main compiler
handles it — every statement executes under a path-condition BDD, with
assignments guarded by ``ite`` — but *without* the event machinery:
branches are simply evaluated in sequence and merged in place.

A body is compiled against the module instance's scope, never the
caller's: it sees its own locals (including the implicit return
variable named after the function), the module's parameters and the
module's nets.  Locals live in a per-call ``env`` dict, so
recursion-free nesting and reentrancy are free.

A *pure* function — one whose body touches no design state, calls no
system task or function and calls only pure functions — depends on
its arguments alone.  With fast paths on, its calls go through the
manager's call memo, keyed by the function's token and the argument
rails.  A call under a TRUE control that misses evaluates the body and
stores the result rails with the fast-path counter deltas of the
evaluation; a TRUE-control hit replays those deltas and returns the
stored result.  A call under a narrower control ``C`` that hits
returns ``ite(C, f(args), X)`` — per bit ``(a | ~C, b | ~C)`` — which
is exactly what evaluating the body under ``C`` builds: the return
variable starts all-X, every write is an ``ite`` on a live control
inside ``C``, and on ``C`` every write equals the TRUE-control one.
That derivation is only taken when the body cannot raise on a
symbolic operand the TRUE-control run saw as constant (``derivable``).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Tuple

from repro.bdd import FALSE, TRUE
from repro.errors import CompileError, SimulationHang, SymbolicRepeatError
from repro.frontend import ast_nodes as ast
from repro.frontend.elaborate import declared_width
from repro.fourval import FourVec, ops

#: Iteration watchdog for loops with symbolic exit conditions.
MAX_FUNC_LOOP_ITERATIONS = 65536

#: Entries kept in a manager's call memo, across all functions.  Keys
#: and values hold node ids, never a FourVec (which would pin the
#: manager); the manager empties the memo whenever ids may change.
MEMO_LIMIT = 4096


class _CallState:
    """Per-call mutable state: the 'disable'/return mask."""

    __slots__ = ("returned",)

    def __init__(self) -> None:
        self.returned = FALSE


class FunctionEvaluator:
    """Compiled body of one Verilog function."""

    def __init__(self, parent_ctx, func: ast.FunctionDecl) -> None:
        from repro.compile.expr import ExprCompiler

        self.name = func.name
        scope = parent_ctx.scope
        self.width = declared_width(func.range, scope, func.name)
        self.signed = func.signed

        ctx = parent_ctx.module_context()
        self.port_names: List[str] = []
        self.port_widths: List[int] = []
        for port in func.ports:
            pw = declared_width(port.range, scope, port.name)
            ctx.func_locals[port.name] = (pw, port.signed)
            self.port_names.append(port.name)
            self.port_widths.append(pw)
        self._local_widths: Dict[str, int] = {}
        for decl in func.decls:
            if decl.kind == "integer":
                lw, lsigned = 32, True
            else:
                lw = declared_width(decl.range, scope, decl.name)
                lsigned = decl.signed
            ctx.func_locals[decl.name] = (lw, lsigned)
            self._local_widths[decl.name] = lw
        ctx.func_locals[func.name] = (self.width, self.signed)

        self._compiler = ExprCompiler(ctx)
        self._runner, self.support = self._compile_stmt(func.body)
        self.pure = ctx.pure
        self.derivable = ctx.derivable
        self.token = ctx.func_tokens.setdefault((scope.path, func.name),
                                                object())

    # ------------------------------------------------------------------

    def call(self, kern, outer_env, ctrl, args: List[FourVec]) -> FourVec:
        """Evaluate the function with the given (pre-sized) arguments."""
        mgr = kern.mgr
        mgr._calls += 1
        if not (self.pure and mgr.fastpath):
            return self._evaluate(kern, ctrl, args)
        key = (self.token, *[value.bits for value in args])
        hit = mgr._call_memo.get(key)
        if hit is None:
            if ctrl != TRUE:
                return self._evaluate(kern, ctrl, args)
            fp_word, fp_sym = mgr._fp_word, mgr._fp_sym
            result = self._evaluate(kern, ctrl, args)
            if len(mgr._call_memo) < MEMO_LIMIT:
                mgr._call_memo[key] = (
                    result.bits, result.known_int(), mgr._fp_word - fp_word,
                    mgr._fp_sym - fp_sym)
            return result
        rails, word, d_word, d_sym = hit
        if ctrl == TRUE:
            mgr._call_hits += 1
            mgr._fp_word += d_word
            mgr._fp_sym += d_sym
            if word is not None:
                return FourVec.from_int(mgr, word, self.width)
            return FourVec(mgr, rails)
        if not self.derivable:
            return self._evaluate(kern, ctrl, args)
        mgr._call_derived += 1
        off = mgr.not_(ctrl)
        or_ = mgr.or_
        return FourVec(mgr, [(or_(a, off), or_(b, off)) for a, b in rails])

    def _evaluate(self, kern, ctrl, args: List[FourVec]) -> FourVec:
        env: Dict[str, FourVec] = {}
        for name, width, value in zip(self.port_names, self.port_widths, args):
            env[name] = value.resize(width)
        for name, width in self._local_widths.items():
            env[name] = FourVec.all_x(kern.mgr, width)
        env[self.name] = FourVec.all_x(kern.mgr, self.width)
        state = _CallState()
        self._runner(kern, env, ctrl, state)
        return env[self.name]

    # ------------------------------------------------------------------
    # statement compilation → runner closures
    # ------------------------------------------------------------------

    def _compile_stmt(self, stmt: ast.Stmt) -> Tuple[Callable, FrozenSet[str]]:
        if stmt is None or isinstance(stmt, ast.NullStmt):
            return (lambda kern, env, ctrl, st: None), frozenset()
        if isinstance(stmt, ast.Block):
            if stmt.decls:
                raise CompileError(
                    "block-local declarations inside functions must be "
                    "declared at function level"
                )
            runners = [self._compile_stmt(s) for s in stmt.stmts]
            support = frozenset().union(*[s for _, s in runners]) \
                if runners else frozenset()

            def run_block(kern, env, ctrl, st):
                for runner, _ in runners:
                    runner(kern, env, ctrl, st)

            return run_block, support
        if isinstance(stmt, ast.BlockingAssign):
            if stmt.intra_delay is not None:
                raise CompileError("delays are not allowed inside functions")
            plan = self._compiler.compile_lhs(stmt.lhs)
            rhs = self._compiler.compile(stmt.rhs)
            ctx_width = plan.width if rhs.flexible else max(plan.width, rhs.width)

            def run_assign(kern, env, ctrl, st):
                live = kern.mgr.and_(ctrl, kern.mgr.not_(st.returned))
                if live == FALSE:
                    return
                value = rhs.eval(kern, env, live, ctx_width).resize(plan.width)
                plan.write(kern, env, value, live)

            return run_assign, rhs.support | plan.support
        if isinstance(stmt, ast.NonBlockingAssign):
            raise CompileError("non-blocking assignment inside a function")
        if isinstance(stmt, ast.If):
            cond = self._compiler.compile(stmt.cond)
            then_run, then_sup = self._compile_stmt(stmt.then_stmt)
            else_run, else_sup = self._compile_stmt(stmt.else_stmt)

            def run_if(kern, env, ctrl, st):
                live = kern.mgr.and_(ctrl, kern.mgr.not_(st.returned))
                if live == FALSE:
                    return
                c = cond.eval(kern, env, live, cond.width).truthy()
                then_ctrl = kern.mgr.and_(live, c)
                else_ctrl = kern.mgr.and_(live, kern.mgr.not_(c))
                if then_ctrl != FALSE:
                    then_run(kern, env, then_ctrl, st)
                if else_ctrl != FALSE:
                    else_run(kern, env, else_ctrl, st)

            return run_if, cond.support | then_sup | else_sup
        if isinstance(stmt, ast.Case):
            return self._compile_case(stmt)
        if isinstance(stmt, ast.For):
            init_run, init_sup = self._compile_stmt(stmt.init)
            step_run, step_sup = self._compile_stmt(stmt.step)
            body_run, body_sup = self._compile_stmt(stmt.body)
            cond = self._compiler.compile(stmt.cond)

            def run_for(kern, env, ctrl, st):
                init_run(kern, env, ctrl, st)
                self._loop(kern, env, ctrl, st, cond,
                           lambda k, e, c, s: (body_run(k, e, c, s),
                                               step_run(k, e, c, s)))

            return run_for, init_sup | step_sup | body_sup | cond.support
        if isinstance(stmt, ast.While):
            cond = self._compiler.compile(stmt.cond)
            body_run, body_sup = self._compile_stmt(stmt.body)

            def run_while(kern, env, ctrl, st):
                self._loop(kern, env, ctrl, st, cond, body_run)

            return run_while, cond.support | body_sup
        if isinstance(stmt, ast.Repeat):
            count = self._compiler.compile(stmt.count)
            body_run, body_sup = self._compile_stmt(stmt.body)
            # a count constant under TRUE may be symbolic under a
            # narrower control, where it raises
            self._compiler.ctx.derivable = False

            def run_repeat(kern, env, ctrl, st):
                value = count.eval(kern, env, ctrl, count.width)
                bound = value.to_int_or_none()
                if bound is None:
                    raise SymbolicRepeatError(
                        f"repeat count in function {self.name!r} is "
                        "symbolic or unknown; it must evaluate to a "
                        "concrete value"
                    )
                for _ in range(bound):
                    live = kern.mgr.and_(ctrl, kern.mgr.not_(st.returned))
                    if live == FALSE:
                        return
                    body_run(kern, env, live, st)

            return run_repeat, count.support | body_sup
        if isinstance(stmt, ast.Disable):
            if stmt.name != self.name:
                raise CompileError(
                    f"disable {stmt.name!r} inside function {self.name!r} "
                    "(only disabling the function itself is supported)"
                )

            def run_disable(kern, env, ctrl, st):
                st.returned = kern.mgr.or_(st.returned, ctrl)

            return run_disable, frozenset()
        if isinstance(stmt, ast.TaskCall):
            self._compiler.ctx.pure = False
            if stmt.is_system and stmt.name in ("$display", "$write"):
                args = [
                    a.value if isinstance(a, ast.StringLiteral)
                    else self._compiler.compile(a)
                    for a in stmt.args
                ]
                newline = stmt.name == "$display"

                def run_display(kern, env, ctrl, st):
                    live = kern.mgr.and_(ctrl, kern.mgr.not_(st.returned))
                    if live == FALSE:
                        return
                    kern.display(args, live, newline=newline, env=env)

                return run_display, frozenset()
            raise CompileError(
                f"task enable {stmt.name!r} inside a function is not supported"
            )
        raise CompileError(
            f"{type(stmt).__name__} is not allowed inside a function"
        )

    def _compile_case(self, stmt: ast.Case) -> Tuple[Callable, FrozenSet[str]]:
        selector = self._compiler.compile(stmt.expr)
        match_fn = {"case": None, "casez": ops.casez_match,
                    "casex": ops.casex_match}[stmt.kind]
        arms = []
        support = selector.support
        default_run = lambda kern, env, ctrl, st: None
        for item in stmt.items:
            run, sup = self._compile_stmt(item.stmt)
            support |= sup
            if not item.exprs:
                default_run = run
                continue
            exprs = [self._compiler.compile(e) for e in item.exprs]
            for expr in exprs:
                support |= expr.support
            arms.append((exprs, run))

        def run_case(kern, env, ctrl, st):
            live = kern.mgr.and_(ctrl, kern.mgr.not_(st.returned))
            if live == FALSE:
                return
            width = max([selector.width] + [e.width for es, _ in arms for e in es]) \
                if arms else selector.width
            sel = selector.eval(kern, env, live, width)
            remaining = live
            for exprs, run in arms:
                cond = FALSE
                for expr in exprs:
                    item_v = expr.eval(kern, env, live, width)
                    if match_fn is None:
                        cond = kern.mgr.or_(
                            cond, ops.case_equal(sel, item_v).truthy()
                        )
                    else:
                        cond = kern.mgr.or_(cond, match_fn(sel, item_v))
                arm_ctrl = kern.mgr.and_(remaining, cond)
                if arm_ctrl != FALSE:
                    run(kern, env, arm_ctrl, st)
                remaining = kern.mgr.and_(remaining, kern.mgr.not_(cond))
                if remaining == FALSE:
                    return
            if remaining != FALSE:
                default_run(kern, env, remaining, st)

        return run_case, support

    def _loop(self, kern, env, ctrl, st, cond, body_run) -> None:
        iterations = 0
        while True:
            live = kern.mgr.and_(ctrl, kern.mgr.not_(st.returned))
            if live == FALSE:
                return
            c = cond.eval(kern, env, live, cond.width).truthy()
            live = kern.mgr.and_(live, c)
            if live == FALSE:
                return
            body_run(kern, env, live, st)
            iterations += 1
            if iterations > MAX_FUNC_LOOP_ITERATIONS:
                raise SimulationHang(
                    f"function {self.name!r}: loop exceeded "
                    f"{MAX_FUNC_LOOP_ITERATIONS} iterations"
                )
