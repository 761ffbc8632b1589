"""Statement compilation: processes and continuous assigns → a Program.

Implements the paper's translation schemes:

* ``if``/``case`` → :class:`IfSplit`/:class:`Join`/:class:`PrioDec`
  exactly per Fig. 9 (case statements capture their selector into a
  shadow register, then lower to an if-chain);
* loops → :class:`LoopSplit`/:class:`BackEdge` with accumulation at
  both the head and the exit label ("merge in loop", Fig. 7);
* ``#d`` → :class:`Delay`; ``@(...)`` → :class:`WaitEvent`;
  ``wait`` → :class:`WaitCond`;
* tasks are inlined with shadow locals (delays inside tasks therefore
  work); ``disable`` lowers to a static-priority-adjusted jump.

Shadow registers (hidden state named ``$shadow...``) implement the
values the paper's generated C++ would keep in locals that must
survive ``returnToSimulator()``: captured case selectors, intra-
assignment-delay RHS values, repeat counters and task arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.bdd import FALSE, TRUE
from repro.errors import CompileError
from repro.frontend import ast_nodes as ast
from repro.frontend.elaborate import (
    Design, NetInfo, Scope, ScopedProcess, declared_range, declared_width,
)
from repro.fourval import FourVec, ops
from repro.fourval import word as words
from repro.compile.expr import (
    CExpr, CompileContext, ConstFolder, ExprCompiler, LhsPlan, _rt_signed,
)
from repro.compile.instructions import (
    BackEdge, BranchDone, CompiledProcess, Delay, End, Exec, ForkSpawn,
    IfSplit, Join, JoinCheck, LoopSplit, PrioAdjustGoto, PrioDec,
    WaitCond, WaitEvent,
)


@dataclass
class CallSite:
    """One ``$random``/``$randomxz`` occurrence (paper Section 5)."""

    index: int
    kind: str
    where: str  # "<scope>:<line>" label for reports
    line: int


@dataclass
class DriverTarget:
    """A bit range of a net driven by one continuous assign."""

    net: str
    offset: int
    width: int


@dataclass
class CompiledContAssign:
    """One compiled continuous assignment (or port/gate hookup)."""

    index: int
    rhs: CExpr
    targets: List[DriverTarget]
    total_width: int
    delay: int = 0
    line: int = 0
    #: Set by :func:`compile_design` when this assign is the only
    #: driver of a plain ``wire``/``tri`` and covers it whole: the
    #: resolved value is then the driven value, so with fast paths on
    #: the kernel commits it without padding or resolution.
    direct: bool = False

    @property
    def support(self) -> FrozenSet[str]:
        return self.rhs.support


@dataclass(slots=True)
class Trigger:
    """One sensitivity term of an event control.

    The derived fields serve the kernel's word path
    (``Kernel._trigger_fire``): a trigger whose ``cexpr`` has a word
    twin is tested on raw ints, and its ``last`` value may stay a raw
    word until :meth:`materialize` turns it back into the vector the
    generic ``eval`` returns.
    """

    cexpr: CExpr
    edge: Optional[str]  # None | 'posedge' | 'negedge'
    #: the cexpr's word twin, or None
    word: Optional[Callable] = field(init=False)
    width: int = field(init=False)
    #: ``fastpath_word_ops`` one generic wake-up counts on fully-known
    #: values: the evaluation (the edge test and ``change_condition``
    #: count nothing)
    cost: int = field(init=False)
    #: signedness of the vector ``eval`` returns
    signed: bool = field(init=False)

    def __post_init__(self) -> None:
        cexpr = self.cexpr
        self.word = cexpr.word
        self.width = cexpr.width
        self.cost = cexpr.word_cost
        self.signed = _rt_signed(cexpr)

    def materialize(self, mgr, raw: int) -> FourVec:
        """The vector ``eval`` returns when its word twin gives ``raw``."""
        return FourVec.from_int(mgr, raw, self.width, self.signed)


class Program:
    """The fully compiled design, ready for the kernel."""

    def __init__(self, design: Design) -> None:
        self.design = design
        self.processes: List[CompiledProcess] = []
        self.assigns: List[CompiledContAssign] = []
        self.callsites: List[CallSite] = []
        # Compile-time registries keyed by stable ids so a checkpoint
        # can serialize armed assertions / the active $monitor by
        # reference and resolve them back to compiled closures on
        # resume (closures themselves cannot be serialized).
        self.assertion_sites: Dict[str, tuple] = {}
        self.monitor_sites: Dict[str, list] = {}
        # (scope path, function name) -> the pure-function memo token
        # shared by every call site of that function in this program.
        self.func_tokens: Dict[Tuple[str, str], object] = {}
        self._shadow_counter = 0
        # Pickle of the *pre-compile* elaborated design, set by
        # compile_design.  Compiled instructions are closures and can
        # never cross a process boundary; instead a pickled Program
        # ships this pristine design image and recompiles on load
        # (compilation is deterministic, asserted by the batch tests).
        self._design_image: Optional[bytes] = None

    def __reduce__(self):
        """Pickle as the design image: the receiving process recompiles
        the Program, and builds its codegen blocks again on first run.

        Only code objects outlive a Program (cached per process by
        :func:`repro.compile.codegen._compiled`); instructions,
        closures and block namespaces are rebuilt for each Program.
        """
        if self._design_image is None:
            raise CompileError(
                "this Program was not built by compile_design and "
                "carries no design image; it cannot be pickled"
            )
        return (_rebuild_program, (self._design_image,))

    def new_callsite(self, kind: str, where: str, line: int) -> CallSite:
        site = CallSite(index=len(self.callsites), kind=kind, where=where,
                        line=line)
        self.callsites.append(site)
        return site

    def new_shadow(self, width: int, signed: bool = False,
                   hint: str = "t") -> str:
        """Register a hidden state register and return its full name."""
        self._shadow_counter += 1
        name = f"$shadow.{self._shadow_counter}.{hint}"
        self.design.add_net(
            NetInfo(full_name=name, kind="reg", msb=width - 1, lsb=0,
                    signed=signed)
        )
        return name


def compile_design(design: Design) -> Program:
    """Compile every process and continuous assign of ``design``."""
    # Snapshot the design *before* compilation mutates it (shadow nets,
    # uniquified block locals): recompiling this image reproduces the
    # identical program, which makes the Program itself picklable — the
    # batch engine's compile-once/ship-everywhere artifact.
    import pickle as _pickle

    image = _pickle.dumps(design)
    program = Program(design)
    folder = ConstFolder()  # one scratch manager for every fold
    for scoped in design.processes:
        compiler = _ProcessCompiler(program, scoped, folder)
        program.processes.append(compiler.compile())
    for scoped_assign in design.assigns:
        program.assigns.append(
            _compile_cont_assign(program, scoped_assign,
                                 len(program.assigns), folder)
        )
    _mark_direct_assigns(program)
    for index, proc in enumerate(program.processes):
        proc.index = index
    program._design_image = image
    return program


def _rebuild_program(design_image: bytes) -> Program:
    """Unpickle hook: recompile a Program from its pristine design."""
    import pickle as _pickle

    return compile_design(_pickle.loads(design_image))


# ----------------------------------------------------------------------
# continuous assigns
# ----------------------------------------------------------------------


def _compile_cont_assign(program: Program, scoped, index: int,
                         folder: ConstFolder) -> CompiledContAssign:
    lhs_ctx = CompileContext(program.design, scoped.lhs_scope, folder)
    rhs_ctx = CompileContext(program.design, scoped.rhs_scope, folder)
    rhs_ctx.callsite_factory = _forbid_random
    lhs_ctx.callsite_factory = _forbid_random
    lhs_ctx.func_tokens = rhs_ctx.func_tokens = program.func_tokens
    targets = _assign_targets(ExprCompiler(lhs_ctx), scoped.lhs)
    total = sum(t.width for t in targets)
    rhs = ExprCompiler(rhs_ctx).compile(scoped.rhs)
    return CompiledContAssign(index=index, rhs=rhs, targets=targets,
                              total_width=total, delay=scoped.delay or 0,
                              line=scoped.line)


def _mark_direct_assigns(program: Program) -> None:
    """Flag each assign that is its net's sole, whole-width driver."""
    drivers: Dict[str, int] = {}
    for assign in program.assigns:
        for target in assign.targets:
            drivers[target.net] = drivers.get(target.net, 0) + 1
    for assign in program.assigns:
        if len(assign.targets) != 1:
            continue
        target = assign.targets[0]
        info = program.design.net(target.net)
        assign.direct = (drivers[target.net] == 1
                         and info.kind in ("wire", "tri")
                         and target.offset == 0
                         and target.width == info.width)


def _forbid_random(kind: str, where: str = "", line: int = 0):
    raise CompileError("$random is not allowed in continuous assignments")


def _assign_targets(compiler: ExprCompiler, lhs: ast.Expr) -> List[DriverTarget]:
    from repro.frontend.elaborate import const_eval

    if isinstance(lhs, ast.Identifier):
        full, info = compiler._resolve(lhs)
        _require_net(info)
        return [DriverTarget(net=full, offset=0, width=info.width)]
    if isinstance(lhs, ast.PartSelect):
        if not isinstance(lhs.base, ast.Identifier):
            raise CompileError("continuous assign part-select base must be a net")
        full, info = compiler._resolve(lhs.base)
        _require_net(info)
        msb = const_eval(lhs.msb, compiler.ctx.scope)
        lsb = const_eval(lhs.lsb, compiler.ctx.scope)
        offset = min(info.bit_offset(msb), info.bit_offset(lsb))
        return [DriverTarget(net=full, offset=offset, width=abs(msb - lsb) + 1)]
    if isinstance(lhs, ast.Index):
        if not isinstance(lhs.base, ast.Identifier):
            raise CompileError("continuous assign bit-select base must be a net")
        full, info = compiler._resolve(lhs.base)
        _require_net(info)
        if info.array is not None:
            raise CompileError("continuous assign to a memory word")
        idx = const_eval(lhs.index, compiler.ctx.scope)
        return [DriverTarget(net=full, offset=info.bit_offset(idx), width=1)]
    if isinstance(lhs, ast.Concat):
        targets: List[DriverTarget] = []
        for part in lhs.parts:
            targets.extend(_assign_targets(compiler, part))
        return targets
    raise CompileError(
        f"invalid continuous assignment target {type(lhs).__name__}"
    )


def _require_net(info: NetInfo) -> None:
    if not info.is_net:
        raise CompileError(
            f"continuous assignment drives {info.full_name!r}, which is a "
            f"{info.kind}, not a net"
        )


# ----------------------------------------------------------------------
# behavioral processes
# ----------------------------------------------------------------------


@dataclass
class _BlockLabel:
    """Disable target bookkeeping for one named block / inlined task."""

    name: str
    depth: int
    patches: List[PrioAdjustGoto] = field(default_factory=list)


class _ProcessCompiler:
    """Compiles one ``initial``/``always`` process."""

    def __init__(self, program: Program, scoped: ScopedProcess,
                 folder: ConstFolder) -> None:
        self.program = program
        self.scoped = scoped
        self.proc = CompiledProcess(name=scoped.name, kind=scoped.kind)
        self.ctx = CompileContext(program.design, scoped.scope, folder,
                                  scoped.name)
        self.ctx.callsite_factory = self._callsite_factory
        self.ctx.func_tokens = program.func_tokens
        self.depth = 0
        self.block_stack: List[_BlockLabel] = []
        self.task_stack: List[str] = []
        self._block_counter = 0

    def _callsite_factory(self, kind: str, line: int) -> CallSite:
        where = f"{self.scoped.scope.path or self.program.design.top}:{line}"
        return self.program.new_callsite(kind, where, line)

    def _expr(self, ctx: Optional[CompileContext] = None) -> ExprCompiler:
        return ExprCompiler(ctx or self.ctx)

    # ------------------------------------------------------------------

    def compile(self) -> CompiledProcess:
        self.compile_stmt(self.scoped.body, self.ctx)
        if self.scoped.kind == "always":
            self.proc.emit(BackEdge(0))
        self.proc.emit(End())
        return self.proc

    # ------------------------------------------------------------------
    # statement dispatch — returns the support (nets read) for @*
    # ------------------------------------------------------------------

    def compile_stmt(self, stmt: ast.Stmt, ctx: CompileContext) -> FrozenSet[str]:
        if stmt is None or isinstance(stmt, ast.NullStmt):
            return frozenset()
        handler = {
            ast.Block: self._compile_block,
            ast.ForkJoin: self._compile_fork,
            ast.BlockingAssign: self._compile_blocking,
            ast.NonBlockingAssign: self._compile_nonblocking,
            ast.If: self._compile_if,
            ast.Case: self._compile_case,
            ast.For: self._compile_for,
            ast.While: self._compile_while,
            ast.Repeat: self._compile_repeat,
            ast.Forever: self._compile_forever,
            ast.DelayStmt: self._compile_delay,
            ast.EventStmt: self._compile_event,
            ast.Wait: self._compile_wait,
            ast.TaskCall: self._compile_task_call,
            ast.Disable: self._compile_disable,
            ast.EventTrigger: self._compile_event_trigger,
        }.get(type(stmt))
        if handler is None:
            raise CompileError(f"cannot compile statement {type(stmt).__name__}")
        return handler(stmt, ctx)

    # ------------------------------------------------------------------

    def _compile_block(self, stmt: ast.Block, ctx: CompileContext) -> FrozenSet[str]:
        inner_ctx = ctx
        if stmt.decls:
            local_map = dict(ctx.local_map)
            block_name = stmt.name or self._fresh_block_name()
            scope = ctx.scope
            for decl in stmt.decls:
                full = scope.full_name(
                    f"{block_name}.{decl.name}"
                ) + f"@{self.proc.name}" * 0
                # Uniquify across processes that reuse generated names.
                if full in self.program.design.nets:
                    full = f"{full}@{self.proc.name}"
                info = _block_decl_to_net(self.program.design, scope, decl, full)
                self.program.design.add_net(info)
                local_map[decl.name] = full
            inner_ctx = ctx.child_with_locals(local_map)
        label = _BlockLabel(name=stmt.name or "", depth=self.depth)
        self.block_stack.append(label)
        support = frozenset()
        try:
            for sub in stmt.stmts:
                support |= self.compile_stmt(sub, inner_ctx)
        finally:
            self.block_stack.pop()
        end = self.proc.next_label
        for patch in label.patches:
            patch.target = end
        return support

    def _compile_fork(self, stmt: ast.ForkJoin, ctx: CompileContext) -> FrozenSet[str]:
        """``fork/join``: N parallel branches plus a completion barrier.

        Per-branch completion masks live in 1-bit shadow nets whose
        value rail holds the BDD of path assignments on which that
        branch has finished since the current fork activation.
        """
        inner_ctx = ctx
        if stmt.decls:
            local_map = dict(ctx.local_map)
            block_name = stmt.name or self._fresh_block_name()
            for decl in stmt.decls:
                full = ctx.scope.full_name(f"{block_name}.{decl.name}")
                if full in self.program.design.nets:
                    full = f"{full}@{self.proc.name}"
                info = _block_decl_to_net(self.program.design, ctx.scope,
                                          decl, full)
                self.program.design.add_net(info)
                local_map[decl.name] = full
            inner_ctx = ctx.child_with_locals(local_map)
        branches = [b for b in stmt.branches
                    if not isinstance(b, ast.NullStmt)]
        if not branches:
            return frozenset()
        masks = [self.program.new_shadow(1, hint=f"fork.b{k}")
                 for k in range(len(branches))]

        def reset_masks(kern, frame):
            inverse = kern.mgr.not_(frame.control)
            for mask_net in masks:
                current = kern.state.value(mask_net).bits[0][0]
                cleared = kern.mgr.and_(current, inverse)
                kern.set_mask(mask_net, cleared)

        self.proc.emit(Exec(reset_masks, stmt.line))
        spawn = ForkSpawn(line=stmt.line)
        self.proc.emit(spawn)
        self.depth += 1
        support = frozenset()
        done_instrs = []
        branch_starts = []
        for branch, mask_net in zip(branches, masks):
            branch_starts.append(self.proc.next_label)
            support |= self.compile_stmt(branch, inner_ctx)
            done = BranchDone(mask_net, line=stmt.line)
            self.proc.emit(done)
            done_instrs.append(done)
        spawn.branch_targets = branch_starts[1:]
        join_label = self.proc.emit(JoinCheck(masks, line=stmt.line))
        self.depth -= 1
        end = self.proc.emit(PrioDec(stmt.line))
        del end  # fall-through after JoinCheck handles prio; PrioDec
        # restores the second unit (ForkSpawn raised by 2).
        for done in done_instrs:
            done.join_target = join_label
        return support

    def _fresh_block_name(self) -> str:
        self._block_counter += 1
        return f"_blk{self._block_counter}_{self.proc.name.replace('.', '_')}"

    # ------------------------------------------------------------------

    def _rhs_width(self, plan: LhsPlan, rhs: CExpr) -> int:
        return plan.width if rhs.flexible else max(plan.width, rhs.width)

    def _compile_blocking(
        self, stmt: ast.BlockingAssign, ctx: CompileContext
    ) -> FrozenSet[str]:
        compiler = self._expr(ctx)
        plan = compiler.compile_lhs(stmt.lhs)
        rhs = compiler.compile(stmt.rhs)
        width = self._rhs_width(plan, rhs)
        if stmt.intra_delay is None and stmt.intra_event is None:
            def do_assign(kern, frame):
                value = rhs.eval(kern, None, frame.control, width)
                plan.write(kern, None, value.resize(plan.width), frame.control)

            self.proc.emit(Exec(do_assign, stmt.line,
                                spec=("assign", rhs, plan, width)))
            return rhs.support | plan.support
        # intra-assignment delay/event: capture RHS, suspend, commit.
        shadow = self.program.new_shadow(plan.width, hint="ia")

        def capture(kern, frame):
            value = rhs.eval(kern, None, frame.control, width).resize(plan.width)
            old = kern.state.value(shadow)
            kern.write_net(shadow, value.ite(frame.control, old), TRUE)

        self.proc.emit(Exec(capture, stmt.line,
                            spec=("shadowcap", rhs, shadow, width,
                                  plan.width)))
        if stmt.intra_delay is not None:
            self.proc.emit(Delay(compiler.compile(stmt.intra_delay),
                                 stmt.line))
        else:
            triggers = [
                Trigger(cexpr=compiler.compile(item.expr), edge=item.edge)
                for item in stmt.intra_event
            ]
            if not triggers:
                raise CompileError(
                    "@* as an intra-assignment event control is meaningless"
                )
            self.proc.emit(WaitEvent(triggers, stmt.line))

        def commit(kern, frame):
            value = kern.state.value(shadow)
            plan.write(kern, None, value, frame.control)

        self.proc.emit(Exec(commit, stmt.line, spec=("commit", plan, shadow)))
        return rhs.support | plan.support

    def _compile_nonblocking(
        self, stmt: ast.NonBlockingAssign, ctx: CompileContext
    ) -> FrozenSet[str]:
        compiler = self._expr(ctx)
        plan = compiler.compile_lhs(stmt.lhs)
        rhs = compiler.compile(stmt.rhs)
        width = self._rhs_width(plan, rhs)
        delay_expr = (
            compiler.compile(stmt.intra_delay)
            if stmt.intra_delay is not None else None
        )

        def do_nba(kern, frame):
            value = rhs.eval(kern, None, frame.control, width).resize(plan.width)
            apply = plan.capture(kern, None, value, frame.control)
            delay = kern.eval_delay(delay_expr, frame) if delay_expr else 0
            kern.schedule_nba(apply, delay)

        self.proc.emit(Exec(do_nba, stmt.line,
                            spec=("nba", rhs, plan, width,
                                  delay_expr is None)))
        return rhs.support | plan.support

    # ------------------------------------------------------------------

    def _compile_if(self, stmt: ast.If, ctx: CompileContext) -> FrozenSet[str]:
        cond = self._expr(ctx).compile(stmt.cond)
        split = IfSplit(cond, line=stmt.line)
        self.proc.emit(split)
        self.depth += 1
        support = self.compile_stmt(stmt.then_stmt, ctx)
        then_join = Join(line=stmt.line)
        self.proc.emit(then_join)
        split.else_target = self.proc.next_label
        support |= self.compile_stmt(stmt.else_stmt, ctx)
        else_join = Join(line=stmt.line)
        self.proc.emit(else_join)
        self.depth -= 1
        endif = self.proc.emit(PrioDec(stmt.line))
        then_join.target = endif
        else_join.target = endif
        return cond.support | support

    def _compile_case(self, stmt: ast.Case, ctx: CompileContext) -> FrozenSet[str]:
        compiler = self._expr(ctx)
        selector = compiler.compile(stmt.expr)
        arms: List[Tuple[List[CExpr], ast.Stmt]] = []
        default_stmt: Optional[ast.Stmt] = None
        width = selector.width
        support = selector.support
        for item in stmt.items:
            if not item.exprs:
                if default_stmt is not None:
                    raise CompileError("multiple default arms in case")
                default_stmt = item.stmt
                continue
            exprs = [compiler.compile(e) for e in item.exprs]
            for e in exprs:
                width = max(width, e.width)
                support |= e.support
            arms.append((exprs, item.stmt))
        # IEEE 1800 12.5: the selector and the items share one type, as
        # the operands of ``===`` do -- unsigned when any one of them is.
        if not (selector.signed
                and all(e.signed for exprs, _ in arms for e in exprs)):
            selector = compiler._unsigned(selector)
            arms = [([compiler._unsigned(e) for e in exprs], body)
                    for exprs, body in arms]
        # Capture the selector so arm bodies can't perturb arm matching.
        shadow = self.program.new_shadow(width, hint="case")

        def capture_sel(kern, frame):
            value = selector.eval(kern, None, frame.control, width)
            old = kern.state.value(shadow)
            kern.write_net(shadow, value.ite(frame.control, old), TRUE)

        self.proc.emit(Exec(capture_sel, stmt.line,
                            spec=("shadowcap", selector, shadow, width,
                                  width)))
        match_fn = {"case": None, "casez": ops.casez_match,
                    "casex": ops.casex_match}[stmt.kind]
        support |= self._compile_case_chain(
            shadow, width, match_fn, arms, default_stmt, ctx, stmt.line
        )
        return support

    def _compile_case_chain(
        self, shadow: str, width: int, match_fn, arms, default_stmt,
        ctx: CompileContext, line: int,
    ) -> FrozenSet[str]:
        if not arms:
            if default_stmt is None:
                return frozenset()
            return self.compile_stmt(default_stmt, ctx)
        exprs, body = arms[0]

        def match_eval(kern, env, ctrl, ctx_width, _exprs=exprs):
            sel = kern.state.value(shadow).resize(width)
            cond = FALSE
            for expr in _exprs:
                item_v = expr.eval(kern, env, ctrl, width)
                if match_fn is None:
                    cond = kern.mgr.or_(cond,
                                        ops.case_equal(sel, item_v).truthy())
                else:
                    cond = kern.mgr.or_(cond, match_fn(sel, item_v))
            bit = FourVec(kern.mgr, [(cond, FALSE)])
            return bit.resize(ctx_width)

        # Word twin for plain ``case``: an integer membership test.
        # Generic eval runs one case_equal per item with no
        # short-circuit, so the mirror must probe *every* item word
        # (bailing if any is unavailable) and its static cost counts
        # every item — see the counter-mirroring contract in expr.py.
        cond_word = None
        cond_cost = 0
        if match_fn is None and all(e.word is not None for e in exprs):
            cond_cost = sum(e.word_cost for e in exprs) + len(exprs)
            item_words = [e.word for e in exprs]

            def cond_word(kern, ctx_width, _words=item_words):
                sel = kern.state.known_word(shadow)
                if sel is None:
                    return None
                hit = 0
                for w in _words:
                    iv = w(kern, width)
                    if iv is None:
                        return None
                    if iv == sel:
                        hit = 1
                return hit

        cond_cexpr = CExpr(width=1, signed=False, eval=match_eval,
                           support=frozenset([shadow]),
                           word=cond_word, word_cost=cond_cost)
        split = IfSplit(cond_cexpr, line=line)
        self.proc.emit(split)
        self.depth += 1
        support = self.compile_stmt(body, ctx)
        then_join = Join(line=line)
        self.proc.emit(then_join)
        split.else_target = self.proc.next_label
        support |= self._compile_case_chain(
            shadow, width, match_fn, arms[1:], default_stmt, ctx, line
        )
        else_join = Join(line=line)
        self.proc.emit(else_join)
        self.depth -= 1
        endif = self.proc.emit(PrioDec(line))
        then_join.target = endif
        else_join.target = endif
        return support

    # ------------------------------------------------------------------

    def _compile_loop(
        self, cond_cexpr: CExpr, line: int,
        emit_body: Callable[[], FrozenSet[str]],
    ) -> FrozenSet[str]:
        """Shared loop scheme: PrioInc, LoopSplit, body, BackEdge, exit."""
        inc = PrioAdjustGoto(delta=2, line=line)
        inc.target = self.proc.next_label + 1
        self.proc.emit(inc)
        split = LoopSplit(cond_cexpr, line=line)
        head = self.proc.emit(split)
        self.depth += 1
        support = emit_body()
        self.proc.emit(BackEdge(head, line=line))
        split.exit_target = self.proc.next_label
        exit_join = Join(line=line)
        self.proc.emit(exit_join)
        self.depth -= 1
        end = self.proc.emit(PrioDec(line))
        exit_join.target = end
        return support

    def _compile_while(self, stmt: ast.While, ctx: CompileContext) -> FrozenSet[str]:
        cond = self._expr(ctx).compile(stmt.cond)
        body_support = self._compile_loop(
            cond, stmt.line, lambda: self.compile_stmt(stmt.body, ctx)
        )
        return cond.support | body_support

    def _compile_for(self, stmt: ast.For, ctx: CompileContext) -> FrozenSet[str]:
        support = self.compile_stmt(stmt.init, ctx)
        cond = self._expr(ctx).compile(stmt.cond)

        def emit_body() -> FrozenSet[str]:
            inner = self.compile_stmt(stmt.body, ctx)
            inner |= self.compile_stmt(stmt.step, ctx)
            return inner

        return support | cond.support | self._compile_loop(cond, stmt.line,
                                                            emit_body)

    def _compile_repeat(self, stmt: ast.Repeat, ctx: CompileContext) -> FrozenSet[str]:
        compiler = self._expr(ctx)
        count = compiler.compile(stmt.count)
        width = max(count.width, 32)
        shadow = self.program.new_shadow(width, hint="rep")

        def init_counter(kern, frame):
            value = count.eval(kern, None, frame.control, width)
            old = kern.state.value(shadow)
            kern.write_net(shadow, value.ite(frame.control, old), TRUE)

        self.proc.emit(Exec(init_counter, stmt.line,
                            spec=("shadowcap", count, shadow, width, width)))

        def counter_nonzero(kern, env, ctrl, ctx_width):
            value = kern.state.value(shadow)
            nonzero = value.truthy()
            return FourVec(kern.mgr, [(nonzero, FALSE)]).resize(ctx_width)

        # Word twin: truthy() never touches fast-path counters, so the
        # mirror is cost-free.  A known-1 bit decides truth even when
        # other bits are unknown.
        full_mask = (1 << width) - 1

        def counter_word(kern, ctx_width):
            slot = kern.state.peek(shadow)
            if type(slot) is int:
                return 1 if slot else 0
            mask, value = slot.concrete_summary()
            if value:
                return 1
            if mask == full_mask:
                return 0
            return None

        cond_cexpr = CExpr(width=1, signed=False, eval=counter_nonzero,
                           support=frozenset([shadow]),
                           word=counter_word, word_cost=0)

        def emit_body() -> FrozenSet[str]:
            inner = self.compile_stmt(stmt.body, ctx)

            def decrement(kern, frame):
                value = kern.state.value(shadow)
                one = FourVec.from_int(kern.mgr, 1, width)
                dec = ops.subtract(value, one)
                kern.write_net(shadow, dec.ite(frame.control, value), TRUE)

            self.proc.emit(Exec(decrement, stmt.line,
                                spec=("decrement", shadow, width)))
            return inner

        return count.support | self._compile_loop(cond_cexpr, stmt.line,
                                                  emit_body)

    def _compile_forever(self, stmt: ast.Forever, ctx: CompileContext) -> FrozenSet[str]:
        head = self.proc.next_label
        support = self.compile_stmt(stmt.body, ctx)
        self.proc.emit(BackEdge(head, line=stmt.line))
        return support

    # ------------------------------------------------------------------

    def _compile_delay(self, stmt: ast.DelayStmt, ctx: CompileContext) -> FrozenSet[str]:
        delay_expr = self._expr(ctx).compile(stmt.delay)
        self.proc.emit(Delay(delay_expr, stmt.line))
        return self.compile_stmt(stmt.stmt, ctx)

    def _compile_event(self, stmt: ast.EventStmt, ctx: CompileContext) -> FrozenSet[str]:
        compiler = self._expr(ctx)
        wait = WaitEvent([], line=stmt.line)
        self.proc.emit(wait)
        support = self.compile_stmt(stmt.stmt, ctx)
        if stmt.items:
            triggers = [
                Trigger(cexpr=compiler.compile(item.expr), edge=item.edge)
                for item in stmt.items
            ]
            trig_support = frozenset().union(*[t.cexpr.support for t in triggers])
        else:
            # @* — sensitive to everything the guarded statement reads.
            triggers = []
            for net in sorted(support):
                info = self.program.design.net(net)
                width = info.width
                # the value store keeps this signedness (SimState.register)
                stored = info.signed or info.kind in ("integer", "time")

                def read_net(kern, env, ctrl, ctx_width, _net=net):
                    return kern.state.value(_net).resize(ctx_width)

                def read_word(kern, ctx_width, _net=net, _width=width,
                              _signed=stored):
                    raw = kern.state.known_word(_net)
                    if raw is None:
                        return None
                    return words.resize(raw, _width, _signed, ctx_width)

                triggers.append(
                    Trigger(
                        cexpr=CExpr(width=width, signed=False, eval=read_net,
                                    support=frozenset([net]), word=read_word,
                                    rt_signed=stored),
                        edge=None,
                    )
                )
            trig_support = support
        wait.triggers = triggers
        return support | trig_support

    def _compile_wait(self, stmt: ast.Wait, ctx: CompileContext) -> FrozenSet[str]:
        cond = self._expr(ctx).compile(stmt.cond)
        self.proc.emit(WaitCond(cond, line=stmt.line))
        return cond.support | self.compile_stmt(stmt.stmt, ctx)

    # ------------------------------------------------------------------

    def _compile_disable(self, stmt: ast.Disable, ctx: CompileContext) -> FrozenSet[str]:
        for label in reversed(self.block_stack):
            if label.name == stmt.name:
                jump = PrioAdjustGoto(
                    delta=2 * (label.depth - self.depth), line=stmt.line
                )
                label.patches.append(jump)
                self.proc.emit(jump)
                return frozenset()
        raise CompileError(
            f"disable {stmt.name!r}: not an enclosing named block of this "
            f"process (cross-process disable is not supported)"
        )

    def _compile_event_trigger(
        self, stmt: ast.EventTrigger, ctx: CompileContext
    ) -> FrozenSet[str]:
        compiler = self._expr(ctx)
        full, info = compiler._resolve(ast.Identifier(parts=(stmt.name,)))
        if info.kind != "event":
            raise CompileError(f"-> target {stmt.name!r} is not an event")

        def toggle(kern, frame):
            old = kern.state.value(full)
            new = ops.bitwise_not(old).ite(frame.control, old)
            kern.write_net(full, new, TRUE)

        self.proc.emit(Exec(toggle, stmt.line))
        return frozenset()

    # ------------------------------------------------------------------
    # task enables and system tasks
    # ------------------------------------------------------------------

    def _compile_task_call(self, stmt: ast.TaskCall, ctx: CompileContext) -> FrozenSet[str]:
        if stmt.is_system:
            return self._compile_system_task(stmt, ctx)
        return self._inline_task(stmt, ctx)

    def _compile_system_task(
        self, stmt: ast.TaskCall, ctx: CompileContext
    ) -> FrozenSet[str]:
        name = stmt.name
        compiler = self._expr(ctx)
        if name in ("$display", "$write", "$strobe", "$monitor"):
            compiled_args = []
            support = frozenset()
            for arg in stmt.args:
                if isinstance(arg, ast.StringLiteral):
                    compiled_args.append(arg.value)
                else:
                    cexpr = compiler.compile(arg)
                    compiled_args.append(cexpr)
                    support |= cexpr.support

            if name == "$monitor":
                monitor_key = f"{self.proc.name}:{stmt.line}"
                self.program.monitor_sites[monitor_key] = compiled_args

                def set_monitor(kern, frame):
                    kern.set_monitor(compiled_args, frame.control,
                                     key=monitor_key)

                self.proc.emit(Exec(set_monitor, stmt.line))
            else:
                strobe = name == "$strobe"

                def do_display(kern, frame):
                    kern.display(compiled_args, frame.control, strobe=strobe,
                                 newline=name != "$write")

                self.proc.emit(Exec(do_display, stmt.line))
            return support
        if name == "$error":
            message = ""
            if stmt.args and isinstance(stmt.args[0], ast.StringLiteral):
                message = stmt.args[0].value
            where = f"{ctx.scope.path or self.program.design.top}:{stmt.line}"

            def do_error(kern, frame):
                kern.report_error(frame.control, where, message)

            self.proc.emit(Exec(do_error, stmt.line, spec=("error",)))
            return frozenset()
        if name == "$assert":
            if len(stmt.args) != 1:
                raise CompileError("$assert takes exactly one condition")
            cond = compiler.compile(stmt.args[0])
            where = f"{ctx.scope.path or self.program.design.top}:{stmt.line}"
            assertion_id = f"{self.proc.name}:{stmt.line}"
            self.program.assertion_sites.setdefault(assertion_id, (cond, where))

            def do_assert(kern, frame):
                kern.register_assertion(assertion_id, cond, frame.control, where)

            self.proc.emit(Exec(do_assert, stmt.line))
            return cond.support
        if name in ("$finish", "$stop"):
            def do_finish(kern, frame):
                kern.finish(stopped=name == "$stop", control=frame.control)

            self.proc.emit(Exec(do_finish, stmt.line, spec=("finish",)))
            return frozenset()
        if name in ("$random", "$randomxz"):
            # value discarded; still introduces (and logs) a variable
            callsite = ctx.callsite_factory(name, stmt.line)
            four_valued = name == "$randomxz"

            def do_random(kern, frame):
                kern.new_symbol(callsite, 32, four_valued, frame.control)

            self.proc.emit(Exec(do_random, stmt.line))
            return frozenset()
        if name == "$dumpfile":
            if not stmt.args or not isinstance(stmt.args[0], ast.StringLiteral):
                raise CompileError("$dumpfile needs a string literal path")
            path = stmt.args[0].value

            def do_dumpfile(kern, frame):
                kern.set_vcd_path(path)

            self.proc.emit(Exec(do_dumpfile, stmt.line))
            return frozenset()
        if name == "$dumpvars":
            def do_dumpvars(kern, frame):
                kern.enable_vcd()

            self.proc.emit(Exec(do_dumpvars, stmt.line))
            return frozenset()
        if name in ("$dumpon", "$dumpoff", "$timeformat"):
            return frozenset()  # accepted and ignored
        if name in ("$readmemh", "$readmemb"):
            raise CompileError(f"{name} is not supported (no file I/O)")
        raise CompileError(f"unsupported system task {name!r}")

    def _inline_task(self, stmt: ast.TaskCall, ctx: CompileContext) -> FrozenSet[str]:
        task = ctx.scope.find_task(stmt.name)
        if task is None:
            raise CompileError(f"unknown task {stmt.name!r} (line {stmt.line})")
        if stmt.name in self.task_stack:
            raise CompileError(f"recursive task {stmt.name!r}")
        if len(stmt.args) != len(task.ports):
            raise CompileError(
                f"task {stmt.name!r} expects {len(task.ports)} arguments, "
                f"got {len(stmt.args)}"
            )
        compiler = self._expr(ctx)
        support = frozenset()
        local_map = dict(ctx.local_map)
        shadows: List[Tuple[ast.Decl, str, int]] = []
        for port in task.ports:
            pw = declared_width(port.range, ctx.scope, port.name)
            shadow = self.program.new_shadow(pw, port.signed,
                                             hint=f"{stmt.name}.{port.name}")
            local_map[port.name] = shadow
            shadows.append((port, shadow, pw))
        for decl in task.decls:
            if decl.kind == "integer":
                lw = 32
            else:
                lw = declared_width(decl.range, ctx.scope, decl.name)
            shadow = self.program.new_shadow(
                lw, decl.signed or decl.kind == "integer",
                hint=f"{stmt.name}.{decl.name}"
            )
            local_map[decl.name] = shadow

        # copy-in: input/inout arguments
        for (port, shadow, pw), arg in zip(shadows, stmt.args):
            if port.kind in ("input", "inout"):
                rhs = compiler.compile(arg)
                support |= rhs.support
                width = pw if rhs.flexible else max(pw, rhs.width)

                def copy_in(kern, frame, _rhs=rhs, _shadow=shadow, _w=width,
                            _pw=pw):
                    value = _rhs.eval(kern, None, frame.control, _w).resize(_pw)
                    old = kern.state.value(_shadow)
                    kern.write_net(_shadow, value.ite(frame.control, old), TRUE)

                self.proc.emit(Exec(copy_in, stmt.line,
                                    spec=("shadowcap", rhs, shadow, width,
                                          pw)))

        inner_ctx = ctx.child_with_locals(local_map)
        self.task_stack.append(stmt.name)
        label = _BlockLabel(name=stmt.name, depth=self.depth)
        self.block_stack.append(label)
        try:
            support |= self.compile_stmt(task.body, inner_ctx)
        finally:
            self.block_stack.pop()
            self.task_stack.pop()
        end = self.proc.next_label
        for patch in label.patches:
            patch.target = end

        # copy-out: output/inout arguments
        for (port, shadow, pw), arg in zip(shadows, stmt.args):
            if port.kind in ("output", "inout"):
                plan = compiler.compile_lhs(arg)
                support |= plan.support

                def copy_out(kern, frame, _plan=plan, _shadow=shadow):
                    value = kern.state.value(_shadow)
                    _plan.write(kern, None, value.resize(_plan.width),
                                frame.control)

                self.proc.emit(Exec(copy_out, stmt.line,
                                    spec=("copyout", plan, shadow)))
        return support


def _block_decl_to_net(design: Design, scope: Scope, decl: ast.Decl,
                       full: str) -> NetInfo:
    from repro.frontend.elaborate import const_eval

    msb = lsb = 0
    if decl.kind == "integer":
        msb = 31
    elif decl.kind == "time":
        msb = 63
    elif decl.range is not None:
        msb, lsb = declared_range(decl.range, scope, decl.name)
    array = None
    if decl.array is not None:
        first = const_eval(decl.array.msb, scope)
        second = const_eval(decl.array.lsb, scope)
        array = (min(first, second), max(first, second))
    return NetInfo(full_name=full, kind=decl.kind, msb=msb, lsb=lsb,
                   signed=decl.signed or decl.kind == "integer", array=array,
                   line=decl.line)
