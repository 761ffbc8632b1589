"""Micro-instructions for compiled behavioral processes.

A process compiles to a flat list of instructions; instruction indices
are the paper's *labels*.  A running execution path is a
:class:`Frame` carrying the triple the paper threads through events:
program counter, symbolic ``control`` and scheduling ``prio``.

``execute`` returns the next program counter, or ``None`` for the
paper's ``returnToSimulator()`` — the frame ends and only scheduled
events continue the path.

The control-splitting scheme follows Fig. 9 with two deviations that
preserve semantics (see DESIGN.md):

* the negated condition is evaluated once at the split and stored in
  the scheduled else-event, instead of being re-evaluated at the else
  label (re-evaluation is wrong if the then-branch mutates condition
  operands);
* events with ``control == FALSE`` are never scheduled, and a path
  whose ``control`` is the constant TRUE skips accumulation events
  entirely (no other live path of the process can exist, since path
  controls are disjoint) — this is what makes fully-concrete designs
  equally fast in all accumulation modes, matching the paper's DRAM
  row of Table 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.bdd import FALSE, TRUE


class AccumulationMode(enum.Enum):
    """Event-accumulation levels — the three columns of Table 1."""

    #: Queue merging + accumulation events at control-statement joins
    #: (paper column "with event-acc.").
    FULL = "full"
    #: Queue merging per Fig. 8 only; joins fall through without
    #: accumulation events (paper column "no acc. merge").
    QUEUE_MERGE_ONLY = "queue_merge_only"
    #: Every schedule() inserts a new event; nothing ever merges
    #: (paper column "w/o event-acc.").
    NONE = "none"


@dataclass(slots=True)
class Frame:
    """One live execution path of a process."""

    process: "CompiledProcess"
    pc: int
    control: int
    prio: int


class NbaUpdate:
    """A captured non-blocking assignment, enumerable for BDD GC.

    The value, index and control captured at schedule time (1364
    semantics) are stored in *fields* rather than closed over, so a
    queued update — which can sit across time steps under an
    intra-assignment delay — can enumerate its BDD roots and be
    remapped when the manager collects or reorders.  ``fn`` receives
    ``(kernel, vecs, controls)`` and must not close over node ids
    itself; ``subs`` composes concatenation targets.

    ``spec`` names the commit action as pure data so a checkpoint can
    serialize a queued update and rebuild ``fn`` on resume:
    ``("net", name)``, ``("word", name, low, high)``, ``("bit", name)``,
    ``("part", name, offset, width)``, or ``None`` for a pure
    concatenation composite (``subs`` only).
    """

    __slots__ = ("fn", "vecs", "controls", "subs", "spec")

    def __init__(self, fn=None, vecs=(), controls=(), subs=(), spec=None):
        self.fn = fn
        self.vecs = list(vecs)
        self.controls = list(controls)
        self.subs = list(subs)
        self.spec = spec

    def __call__(self, kern) -> None:
        if self.fn is not None:
            self.fn(kern, self.vecs, self.controls)
        for sub in self.subs:
            sub(kern)

    def bdd_roots(self):
        for vec in self.vecs:
            for a, b in vec.bits:
                yield a
                yield b
        yield from self.controls
        for sub in self.subs:
            yield from sub.bdd_roots()

    def bdd_remap(self, lookup) -> None:
        self.vecs = [vec.remap(lookup) for vec in self.vecs]
        self.controls = [lookup(control) for control in self.controls]
        for sub in self.subs:
            sub.bdd_remap(lookup)


class Instruction:
    """Base class; subclasses implement :meth:`execute`."""

    line: int = 0

    def execute(self, kern, frame: Frame) -> Optional[int]:
        raise NotImplementedError


@dataclass
class CompiledProcess:
    """A compiled ``initial``/``always`` process."""

    name: str
    kind: str
    instructions: List[Instruction] = field(default_factory=list)
    index: int = -1  # position in the program's process table

    def emit(self, inst: Instruction) -> int:
        """Append ``inst``; return its label (index)."""
        self.instructions.append(inst)
        return len(self.instructions) - 1

    @property
    def next_label(self) -> int:
        return len(self.instructions)


class Exec(Instruction):
    """Run a side-effect closure ``fn(kern, frame)``; fall through.

    ``spec`` optionally describes the closure as data for the compiled
    tier (:mod:`repro.compile.codegen`): a tuple whose first element
    names the statement shape (``"assign"``, ``"nba"``, ``"shadowcap"``,
    ``"commit"``, ``"copyout"``, ``"decrement"``, ``"finish"``,
    ``"error"``) followed by shape-specific payload.  ``None`` means
    the closure is opaque and always runs through ``fn``.
    """

    __slots__ = ("fn", "line", "spec")

    def __init__(self, fn: Callable, line: int = 0, spec=None) -> None:
        self.fn = fn
        self.line = line
        self.spec = spec

    def execute(self, kern, frame: Frame) -> Optional[int]:
        self.fn(kern, frame)
        return frame.pc + 1


class Goto(Instruction):
    """Unconditional jump."""

    __slots__ = ("target", "line")

    def __init__(self, target: int = -1, line: int = 0) -> None:
        self.target = target
        self.line = line

    def execute(self, kern, frame: Frame) -> Optional[int]:
        return self.target


class End(Instruction):
    """Process end — the frame dies."""

    __slots__ = ("line",)

    def __init__(self, line: int = 0) -> None:
        self.line = line

    def execute(self, kern, frame: Frame) -> Optional[int]:
        return None


class IfSplit(Instruction):
    """Control-flow split per Fig. 9.

    ``else_target`` is the label of the (possibly empty) else branch;
    both branches end in a :class:`Join` to the common endif label.
    """

    __slots__ = ("cond", "else_target", "line")

    def __init__(self, cond, else_target: int = -1, line: int = 0) -> None:
        self.cond = cond
        self.else_target = else_target
        self.line = line

    def execute(self, kern, frame: Frame) -> Optional[int]:
        mgr = kern.mgr
        c = self.cond.eval(kern, None, frame.control, self.cond.width).truthy()
        then_ctrl = mgr.and_(frame.control, c)
        else_ctrl = mgr.and_(frame.control, mgr.not_(c))
        frame.prio += 2
        if then_ctrl == FALSE:
            if else_ctrl == FALSE:
                return None  # dead path
            frame.control = else_ctrl
            return self.else_target
        if else_ctrl != FALSE:
            kern.schedule(frame.process, self.else_target, 0, else_ctrl,
                          frame.prio)
        frame.control = then_ctrl
        return frame.pc + 1


class Join(Instruction):
    """Branch join — schedules the paper's *accumulation event*.

    In FULL mode a symbolic path ends here and re-enters at ``target``
    via an event with priority ``prio - 1``; same-label events merge on
    the queue, recombining the paths the matching :class:`IfSplit`
    separated.  Concrete paths (control == TRUE) and the reduced
    accumulation modes just fall through.
    """

    __slots__ = ("target", "line")

    def __init__(self, target: int = -1, line: int = 0) -> None:
        self.target = target
        self.line = line

    def execute(self, kern, frame: Frame) -> Optional[int]:
        if (
            kern.options.accumulation is AccumulationMode.FULL
            and frame.control != TRUE
        ):
            kern.schedule(frame.process, self.target, 0, frame.control,
                          frame.prio - 1)
            return None
        frame.prio -= 1
        return self.target


class PrioDec(Instruction):
    """The ``prio := prio - 1`` at an endif/endloop label (Fig. 9)."""

    __slots__ = ("line",)

    def __init__(self, line: int = 0) -> None:
        self.line = line

    def execute(self, kern, frame: Frame) -> Optional[int]:
        frame.prio -= 1
        return frame.pc + 1


class LoopSplit(Instruction):
    """Loop-head split: continue into the body or exit.

    ``exit_target`` is a :class:`Join` (to the loop-end label) so that
    exits from different iterations accumulate, and iteration re-entry
    happens through :class:`BackEdge` events that merge at the head —
    the paper's "merge in loop" case (Fig. 7).
    """

    __slots__ = ("cond", "exit_target", "line")

    def __init__(self, cond, exit_target: int = -1, line: int = 0) -> None:
        self.cond = cond
        self.exit_target = exit_target
        self.line = line

    def execute(self, kern, frame: Frame) -> Optional[int]:
        mgr = kern.mgr
        c = self.cond.eval(kern, None, frame.control, self.cond.width).truthy()
        live = mgr.and_(frame.control, c)
        exit_ctrl = mgr.and_(frame.control, mgr.not_(c))
        if live == FALSE:
            if exit_ctrl == FALSE:
                return None
            frame.control = exit_ctrl
            return self.exit_target
        if exit_ctrl != FALSE:
            kern.schedule(frame.process, self.exit_target, 0, exit_ctrl,
                          frame.prio)
        frame.control = live
        return frame.pc + 1


class BackEdge(Instruction):
    """Loop back edge to the head label.

    In FULL mode a symbolic path returns to the head via an event so
    that same-time iterations of *different* paths merge there; concrete
    paths jump directly.
    """

    __slots__ = ("target", "line")

    def __init__(self, target: int = -1, line: int = 0) -> None:
        self.target = target
        self.line = line

    def execute(self, kern, frame: Frame) -> Optional[int]:
        kern.note_loop_iteration(frame)
        if (
            kern.options.accumulation is AccumulationMode.FULL
            and frame.control != TRUE
        ):
            kern.schedule(frame.process, self.target, 0, frame.control,
                          frame.prio)
            return None
        return self.target


class PrioAdjustGoto(Instruction):
    """``disable`` jump: fix the static priority delta, then jump."""

    __slots__ = ("target", "delta", "line")

    def __init__(self, target: int = -1, delta: int = 0, line: int = 0) -> None:
        self.target = target
        self.delta = delta
        self.line = line

    def execute(self, kern, frame: Frame) -> Optional[int]:
        frame.prio += self.delta
        return self.target


class ForkSpawn(Instruction):
    """``fork``: launch the sibling branches, fall into the first.

    ``branch_targets`` are the labels of branches 2..N; each is
    scheduled as a zero-delay event with the (already raised) priority,
    so all branches start in the current time step, exactly like the
    else-branch scheme of Fig. 2 generalized to N arms.
    """

    __slots__ = ("branch_targets", "line")

    def __init__(self, branch_targets=None, line: int = 0) -> None:
        self.branch_targets = branch_targets or []
        self.line = line

    def execute(self, kern, frame: Frame) -> Optional[int]:
        frame.prio += 2
        for target in self.branch_targets:
            kern.schedule(frame.process, target, 0, frame.control, frame.prio)
        return frame.pc + 1


class BranchDone(Instruction):
    """End of one fork branch: record completion, poke the join check.

    The completion *mask* (a BDD over path assignments) accumulates in
    a shadow net's value rail; the join-check event is scheduled
    unconditionally — unlike accumulation events it is required for
    correctness, not merely merging, so it ignores the accumulation
    mode (same-label events still merge when the mode allows).
    """

    __slots__ = ("mask_net", "join_target", "line")

    def __init__(self, mask_net: str, join_target: int = -1,
                 line: int = 0) -> None:
        self.mask_net = mask_net
        self.join_target = join_target
        self.line = line

    def execute(self, kern, frame: Frame) -> Optional[int]:
        kern.accumulate_mask(self.mask_net, frame.control)
        kern.schedule(frame.process, self.join_target, 0, frame.control,
                      frame.prio - 1)
        return None


class JoinCheck(Instruction):
    """The fork's barrier: proceed only where *every* branch completed."""

    __slots__ = ("mask_nets", "line")

    def __init__(self, mask_nets=None, line: int = 0) -> None:
        self.mask_nets = mask_nets or []
        self.line = line

    def execute(self, kern, frame: Frame) -> Optional[int]:
        mgr = kern.mgr
        ready = frame.control
        for net in self.mask_nets:
            ready = mgr.and_(ready, kern.state.value(net).bits[0][0])
            if ready == FALSE:
                return None
        frame.control = ready
        # frame arrived at prio entry+1 (BranchDone scheduled at P-1);
        # the PrioDec that follows restores the entry priority.
        return frame.pc + 1


class Delay(Instruction):
    """``#d`` — suspend the path, resume at ``pc + 1`` after ``d``.

    A constant delay expression (a literal, a parameter, a folded
    constant) is evaluated once, on first execution, and its int kept.
    """

    __slots__ = ("delay_expr", "constant", "line")

    def __init__(self, delay_expr, line: int = 0) -> None:
        self.delay_expr = delay_expr
        self.constant: Optional[int] = None
        self.line = line

    def execute(self, kern, frame: Frame) -> Optional[int]:
        delay = self.constant
        if delay is None:
            delay = kern.eval_delay(self.delay_expr, frame)
            if self.delay_expr.const:
                self.constant = delay
        region = kern.REGION_INACTIVE if delay == 0 else kern.REGION_ACTIVE
        kern.schedule(frame.process, frame.pc + 1, delay, frame.control,
                      frame.prio, region=region)
        return None


class WaitEvent(Instruction):
    """``@(...)`` — register a waiter, resume at ``pc + 1`` on trigger.

    ``nets`` are the nets the triggers read, computed once whenever
    ``triggers`` is set.
    """

    __slots__ = ("_triggers", "nets", "line")

    def __init__(self, triggers, line: int = 0) -> None:
        self.triggers = triggers  # list of compiler.Trigger
        self.line = line

    @property
    def triggers(self):
        return self._triggers

    @triggers.setter
    def triggers(self, triggers) -> None:
        self._triggers = triggers
        self.nets = tuple(frozenset().union(
            *[t.cexpr.support for t in triggers]))

    def execute(self, kern, frame: Frame) -> Optional[int]:
        kern.register_waiter(frame, frame.pc + 1, self)
        return None


class WaitCond(Instruction):
    """``wait (cond)`` — level-sensitive wait.

    The part of the path on which the condition already holds proceeds
    immediately; the rest waits for the condition to become true.
    """

    __slots__ = ("cond", "line")

    def __init__(self, cond, line: int = 0) -> None:
        self.cond = cond
        self.line = line

    def execute(self, kern, frame: Frame) -> Optional[int]:
        mgr = kern.mgr
        c = self.cond.eval(kern, None, frame.control, self.cond.width).truthy()
        proceed = mgr.and_(frame.control, c)
        blocked = mgr.and_(frame.control, mgr.not_(c))
        if blocked != FALSE:
            kern.register_level_waiter(frame, frame.pc + 1, self.cond, blocked)
        if proceed == FALSE:
            return None
        frame.control = proceed
        return frame.pc + 1
