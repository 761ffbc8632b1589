"""Compiled tier: fuse instruction streams into specialized closures.

The interpreter in :mod:`repro.sim.kernel` walks one
``Instruction.execute`` dispatch per retired micro-instruction.  This
module translates each :class:`CompiledProcess` into *blocks*: one
generated Python function per resumable label, covering the whole
straight-line run from that label to the next control-splitting
instruction.  Within a block

* ``Exec``/``PrioDec``/``Goto``/``PrioAdjustGoto`` are fused — no
  dispatch, no per-instruction ``frame.pc`` bookkeeping;
* statements whose operand concreteness can pay off (``spec``-tagged
  assignments, non-blocking captures, shadow captures, repeat-counter
  decrements) get a compile-time-decided fast path that evaluates the
  RHS through its word closure (:class:`~repro.compile.expr.CExpr.word`)
  and writes a ``from_int`` vector directly — skipping the generic
  four-valued evaluation entirely when every operand is concrete;
* ``IfSplit``/``LoopSplit`` conditions with word closures resolve the
  branch as an integer test under a concrete path control;
* everything that splits control, suspends, or synchronizes
  (``Join``/``BackEdge``/fork-join/``Delay``/``WaitEvent``/``WaitCond``)
  stays a *tier boundary*: the block tail-calls the instruction's own
  ``execute``, so Fig.-9 accumulation semantics, scheduler regions,
  GC/reorder safe points, checkpoints and guard budgets are untouched.

Bit-identity contract (differential-tested against the interpreter):

* ``stats.instructions`` is flushed in exact chunks — every fused
  instruction counts once, and the flush happens *before* any call
  that can unwind the frame (``$finish``/``$error`` Execs, terminator
  ``execute`` tail-calls), matching the interpreter's
  count-before-execute order;
* every word-path hit adds the statically computed
  :attr:`~repro.compile.expr.CExpr.word_cost` to ``mgr._fp_word`` —
  exactly the ``fastpath_word_ops`` the skipped generic evaluation
  would have counted — so ``SimResult.to_dict()`` payloads compare
  equal byte for byte across tiers;
* block tables are keyed by ``(accumulation_mode, specialize)`` and
  cached on the Program (a plain attribute, never pickled: a shipped
  Program recompiles from its design image and rebuilds blocks lazily
  in each batch worker).

What is cached where: each block's *code object* is cached per
process, keyed by its generated source and its ``<codegen:proc@pc>``
filename (:func:`_compiled`), so programs that share a process's text
(a campaign's mutants, a rebuilt Program, the replicas of one design)
compile it once.  Every block still gets its own function, ``exec``-ed
into a fresh namespace per Program: its instructions and word closures
are never shared.  A forked worker starts with whatever code objects
its parent had cached.

Block protocol: ``block(kern, frame) -> Optional[int]`` — the next
label, or ``None`` for ``returnToSimulator()``.  Each block carries
``.sites`` (``((label, count), ...)`` of constituent source sites, for
the hot-spot profiler), ``.site_seq`` (per-instruction labels in
retire order, so a ``$finish`` that unwinds mid-block attributes only
the instructions that actually retired), ``.fused`` (instructions
covered) and ``.source`` (the generated code, for debugging and
tests).
"""

from __future__ import annotations

import functools
import time as _time
from typing import Dict, List, Optional

from repro.bdd import TRUE
from repro.fourval import FourVec
from repro.compile.instructions import (
    AccumulationMode, BackEdge, BranchDone, CompiledProcess, Delay, End,
    Exec, ForkSpawn, Goto, IfSplit, Join, JoinCheck, LoopSplit,
    PrioAdjustGoto, PrioDec, WaitCond, WaitEvent,
)


def compiled_tables(program, mode: AccumulationMode,
                    specialize: bool) -> "CompiledTables":
    """The (cached) compiled tier of ``program`` for one configuration.

    The cache lives in a plain instance attribute so it survives for
    the Program's lifetime (batch workers reuse one Program across
    runs) but never crosses a pickle boundary —
    ``Program.__reduce__`` ships only the design image.  The code
    objects behind the blocks are cached per process instead
    (:func:`_compiled`).
    """
    cache = getattr(program, "_codegen_cache", None)
    if cache is None:
        cache = program._codegen_cache = {}
    key = (mode, bool(specialize))
    tables = cache.get(key)
    if tables is None:
        tables = cache[key] = CompiledTables(program, mode, specialize)
    return tables


class CompiledTables:
    """Per-process block tables plus build statistics."""

    def __init__(self, program, mode: AccumulationMode,
                 specialize: bool) -> None:
        self.program = program
        self.mode = mode
        self.specialize = bool(specialize)
        self.blocks_built = 0
        self.blocks_reused = 0  # blocks whose code object was cached
        self.fused_instructions = 0
        self.build_seconds = 0.0
        #: tables[process.index][pc] -> block or None (built on demand)
        self.tables: List[List[Optional[object]]] = [
            [None] * len(proc.instructions) for proc in program.processes
        ]
        for index, proc in enumerate(program.processes):
            for pc in sorted(_entry_points(proc)):
                self.ensure(index, pc)

    def ensure(self, proc_index: int, pc: int):
        """The block starting at ``pc``, building it on first use.

        Statically computed entry points cover every label the kernel
        can resume at; this lazy path is the safety net for labels a
        checkpoint or future instruction introduces.
        """
        table = self.tables[proc_index]
        block = table[pc]
        if block is None:
            started = _time.perf_counter()
            hits = _compiled.cache_info().hits
            block = table[pc] = _build_block(
                self.program.processes[proc_index], pc, self.mode,
                self.specialize,
            )
            self.build_seconds += _time.perf_counter() - started
            self.blocks_built += 1
            self.blocks_reused += _compiled.cache_info().hits - hits
            self.fused_instructions += block.fused
        return block

    def stats(self) -> Dict[str, object]:
        return {
            "blocks": self.blocks_built,
            "reused": self.blocks_reused,
            "fused_instructions": self.fused_instructions,
            "build_seconds": self.build_seconds,
            "specialize": self.specialize,
        }


def _entry_points(proc: CompiledProcess) -> set:
    """Every label a frame can *start* a block at: process entry, all
    jump/schedule targets, and the resume points after suspending or
    tail-called instructions."""
    entries = {0}
    for pc, inst in enumerate(proc.instructions):
        kind = type(inst)
        if kind is IfSplit:
            entries.add(pc + 1)
            entries.add(inst.else_target)
        elif kind is LoopSplit:
            entries.add(pc + 1)
            entries.add(inst.exit_target)
        elif kind in (Join, BackEdge, Goto, PrioAdjustGoto):
            entries.add(inst.target)
        elif kind is ForkSpawn:
            entries.add(pc + 1)
            entries.update(inst.branch_targets)
        elif kind is BranchDone:
            entries.add(inst.join_target)
        elif kind in (JoinCheck, Delay, WaitEvent, WaitCond):
            entries.add(pc + 1)
    return {pc for pc in entries if 0 <= pc < len(proc.instructions)}


# ----------------------------------------------------------------------
# block construction
# ----------------------------------------------------------------------


#: Code objects :func:`_compiled` keeps per process: a few times the
#: blocks of the largest builtin design, with room for a campaign's
#: mutated variants.
_CODE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _compiled(source: str, filename: str):
    """The code object of one block's generated ``source``.

    Code objects are immutable, so one serves every Program that
    generates the same text; ``filename`` stays in the key so each
    keeps its ``<codegen:proc@pc>`` name in tracebacks.
    """
    return compile(source, filename, "exec")


class _Emitter:
    """Accumulates generated source lines and the bound namespace."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.ns: Dict[str, object] = {"_T": TRUE, "_FI": FourVec.from_int}
        self.pending = 0  # fused instructions not yet flushed to stats

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def flush(self) -> None:
        """Retire the pending chunk of ``stats.instructions``.

        Called before any statement that can unwind the frame, so the
        count matches the interpreter's increment-before-execute order
        exactly on every path."""
        if self.pending:
            self.emit(f"kern.stats.instructions += {self.pending}")
            self.pending = 0

    def guarded(self, k: int, probe: List[str], cost: int,
                hit: List[str]) -> None:
        """The compile-tier dispatch shape: concrete-control word probe
        with counter mirroring, generic fallback otherwise."""
        self.emit("if frame.control == _T:")
        for line in probe:
            self.emit("    " + line)
        self.emit("    if v is not None:")
        self.emit("        kern._ctier[0] += 1")
        if cost:
            self.emit(f"        kern.mgr._fp_word += {cost}")
        for line in hit:
            self.emit("        " + line)
        self.emit("    else:")
        self.emit("        kern._ctier[1] += 1")
        self.emit(f"        f{k}(kern, frame)")
        self.emit("else:")
        self.emit(f"    f{k}(kern, frame)")


def _truncated(expr: str, width: int, ctx_width: int) -> str:
    """Source for resizing a raw ``ctx_width``-bit word down to
    ``width`` bits (the only direction statement emission needs)."""
    if width < ctx_width:
        return f"({expr}) & {(1 << width) - 1}"
    return expr


def _build_block(proc: CompiledProcess, start: int, mode: AccumulationMode,
                 specialize: bool):
    instructions = proc.instructions
    full_acc = mode is AccumulationMode.FULL
    em = _Emitter()
    sites: Dict[str, int] = {}
    site_seq: List[str] = []
    fused = 0
    pc = start
    k = 0
    while True:
        inst = instructions[pc]
        label = f"{proc.name}:{inst.line}"
        sites[label] = sites.get(label, 0) + 1
        site_seq.append(label)
        em.pending += 1
        fused += 1
        k += 1
        kind = type(inst)
        if kind is Exec:
            _emit_exec(em, k, inst, specialize)
            pc += 1
            continue
        if kind is PrioDec:
            em.emit("frame.prio -= 1")
            pc += 1
            continue
        # Terminator: the pending chunk includes this instruction.
        em.flush()
        if kind is End:
            em.emit("return None")
        elif kind is Goto:
            em.emit(f"return {inst.target}")
        elif kind is PrioAdjustGoto:
            if inst.delta:
                em.emit(f"frame.prio += {inst.delta}")
            em.emit(f"return {inst.target}")
        elif kind is Join:
            if full_acc:
                em.emit("if frame.control != _T:")
                em.emit(f"    kern.schedule(frame.process, {inst.target},"
                        " 0, frame.control, frame.prio - 1)")
                em.emit("    return None")
            em.emit("frame.prio -= 1")
            em.emit(f"return {inst.target}")
        elif kind is BackEdge:
            # frame.pc must point at this BackEdge before the loop
            # watchdog samples hang sites from it.
            em.emit(f"frame.pc = {pc}")
            em.emit("kern.note_loop_iteration(frame)")
            if full_acc:
                em.emit("if frame.control != _T:")
                em.emit(f"    kern.schedule(frame.process, {inst.target},"
                        " 0, frame.control, frame.prio)")
                em.emit("    return None")
            em.emit(f"return {inst.target}")
        elif (kind is IfSplit and specialize
              and inst.cond.word is not None):
            _emit_split(em, k, inst, pc,
                        ["frame.prio += 2",
                         f"return {pc + 1} if v else {inst.else_target}"])
        elif (kind is LoopSplit and specialize
              and inst.cond.word is not None):
            _emit_split(em, k, inst, pc,
                        [f"return {pc + 1} if v else {inst.exit_target}"])
        else:
            # Generic tier boundary: IfSplit/LoopSplit without a word
            # closure, Delay, WaitEvent, WaitCond, ForkSpawn,
            # BranchDone, JoinCheck — and any instruction this module
            # does not know.  The tail-called execute() reads
            # ``frame.pc`` (resume points are pc + 1), so restore it.
            em.ns[f"i{k}"] = inst
            em.emit(f"frame.pc = {pc}")
            em.emit(f"return i{k}.execute(kern, frame)")
        break
    source = "def _b(kern, frame):\n" + "\n".join(em.lines) + "\n"
    # The code object may be shared; the function exec() makes is this
    # Program's own, bound to this block's namespace.
    exec(_compiled(source, f"<codegen:{proc.name}@{start}>"), em.ns)
    block = em.ns["_b"]
    block.sites = tuple(sites.items())
    block.site_seq = tuple(site_seq)
    block.fused = fused
    block.start = start
    block.source = source
    return block


def _emit_split(em: _Emitter, k: int, inst, pc: int,
                hit: List[str]) -> None:
    """Terminator emission for ``IfSplit``/``LoopSplit`` with a word
    closure: resolve the branch as an integer test under a concrete
    path control; otherwise fall back to the instruction's own
    ``execute``."""
    em.ns[f"w{k}"] = inst.cond.word
    em.ns[f"i{k}"] = inst
    em.emit("if frame.control == _T:")
    em.emit(f"    v = w{k}(kern, {inst.cond.width})")
    em.emit("    if v is not None:")
    em.emit("        kern._ctier[0] += 1")
    if inst.cond.word_cost:
        em.emit(f"        kern.mgr._fp_word += {inst.cond.word_cost}")
    for line in hit:
        em.emit("        " + line)
    em.emit("    kern._ctier[1] += 1")
    em.emit(f"frame.pc = {pc}")
    em.emit(f"return i{k}.execute(kern, frame)")


def _emit_exec(em: _Emitter, k: int, inst: Exec, specialize: bool) -> None:
    spec = inst.spec
    em.ns[f"f{k}"] = inst.fn
    shape = spec[0] if spec else None
    if shape in ("finish", "error"):
        # These can unwind the frame (_PathFinish/_FinishSignal);
        # flush inclusively first so the retired-instruction count on
        # the unwound path matches the interpreter.
        em.flush()
        em.emit(f"f{k}(kern, frame)")
        return
    if not specialize:
        em.emit(f"f{k}(kern, frame)")
        return
    if shape == "assign":
        _, rhs, plan, width = spec
        if rhs.word is not None and plan.fast_write is not None:
            em.ns[f"w{k}"] = rhs.word
            em.ns[f"a{k}"] = plan.fast_write
            value = _truncated("v", plan.width, width)
            em.guarded(k, [f"v = w{k}(kern, {width})"], rhs.word_cost,
                       [f"a{k}(kern, {value})"])
            return
    elif shape == "nba":
        _, rhs, plan, width, no_delay = spec
        if (no_delay and rhs.word is not None
                and plan.fast_capture is not None):
            em.ns[f"w{k}"] = rhs.word
            em.ns[f"a{k}"] = plan.fast_capture
            value = _truncated("v", plan.width, width)
            em.guarded(k, [f"v = w{k}(kern, {width})"], rhs.word_cost,
                       [f"kern.schedule_nba(a{k}(kern, {value}))"])
            return
    elif shape == "shadowcap":
        _, rhs, shadow, width, store_width = spec
        if rhs.word is not None:
            em.ns[f"w{k}"] = rhs.word
            em.ns[f"s{k}"] = shadow
            value = _truncated("v", store_width, width)
            em.guarded(
                k, [f"v = w{k}(kern, {width})"], rhs.word_cost,
                [f"kern.write_net_raw(s{k}, {value})"],
            )
            return
    elif shape == "decrement":
        _, shadow, width = spec
        em.ns[f"s{k}"] = shadow
        full_mask = (1 << width) - 1
        # The generic closure's ops.subtract counts one word-level op
        # when the counter is concrete; mirror it.
        em.guarded(
            k,
            [f"v = kern.state.known_word(s{k})"],
            1,
            [f"kern.write_net_raw(s{k}, (v - 1) & {full_mask})"],
        )
        return
    # "commit" / "copyout" / untagged closures: nothing to decide at
    # compile time — run the generic closure, still fused in the block.
    em.emit(f"f{k}(kern, frame)")
