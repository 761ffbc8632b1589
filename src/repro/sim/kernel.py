"""The symbolic simulation kernel.

Executes a compiled :class:`~repro.compile.compiler.Program` under the
paper's event-driven discipline:

* process frames carry ``(pc, control, prio)`` and run until a
  ``returnToSimulator()`` (Delay / WaitEvent / Join / End);
* the scheduler merges same-label events (event accumulation, Fig. 8);
* assignments are guarded ``ite(control, rhs, old)`` writes that
  produce *symbolic change conditions*, which wake event-control
  waiters under exactly the paths on which a value change occurred;
* ``$random`` injects fresh BDD variables and logs (vector, control)
  invocation records per call site (Section 5);
* ``$error`` suspends and extracts an error trace; ``$assert``
  registers a checker evaluated at the end of every time step.

The same kernel runs *concrete resimulation*: constructed with the
``concrete_values`` of an :class:`~repro.sim.trace.ErrorTrace`, every
``$random`` pops a recorded explicit value instead of creating a
variable, turning the run into a conventional single-trace simulation.
"""

from __future__ import annotations

import time as _time
import weakref
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.bdd import FALSE, TRUE, BddManager
from repro.compile.compiler import CompiledContAssign, Program, Trigger
from repro.compile.expr import CExpr
from repro.compile.instructions import AccumulationMode, CompiledProcess, Frame
from repro.errors import (
    ResimulationError, SimulationAborted, SimulationError, SimulationHang,
    SymbolicDelayError,
)
from repro.fourval import FourVec, ops
from repro.fourval.vector import BIT_Z
from repro.obs.profiler import event_label
from repro.obs.tracer import LANE_EVENT, LANE_STEP
from repro.sim import systasks
from repro.sim.scheduler import (
    Event, REGION_ACTIVE, REGION_INACTIVE, REGION_MONITOR, REGION_NBA,
    Scheduler,
)
from repro.sim.state import SimState
from repro.sim.stats import SimStats
from repro.sim.trace import (
    RandomInvocation, Violation, build_error_trace,
)


class _FinishSignal(Exception):
    """Internal unwind for ``$finish``/``$stop``/violation stops."""


class _PathFinish(Exception):
    """One execution path hit ``$finish``; others keep running."""


@dataclass
class SimOptions:
    """Kernel configuration.

    ``accumulation`` selects the Table-1 event-accumulation level.
    ``max_step_activity`` is the zero-delay watchdog: the maximum
    number of events + loop iterations within one simulation time
    before :class:`SimulationHang` is raised.
    """

    accumulation: AccumulationMode = AccumulationMode.FULL
    max_step_activity: int = 1_000_000
    trace_stats: bool = False
    stop_on_violation: bool = True
    echo_output: bool = False
    check_unknown_assert: bool = False
    #: When set, ``$random`` returns *concrete* pseudo-random values
    #: seeded here — conventional random simulation with the identical
    #: testbench, the paper's baseline in Section 7.
    concrete_random: Optional[int] = None
    #: Write a VCD waveform here from time 0 (also reachable from the
    #: testbench via ``$dumpfile``/``$dumpvars``).  Symbolic bits dump
    #: as ``x``; concrete resimulations produce exact waveforms.
    vcd_path: Optional[str] = None
    #: Ablation switch for the paper's Section-4c priority discipline:
    #: with False, ACTIVE events run FIFO instead of depth-first, so
    #: nested statements no longer merge before enclosing ones.
    depth_first_priorities: bool = True
    #: Arena growth (in nodes) that triggers mark-and-sweep BDD garbage
    #: collection at the end-of-step safe point; ``None`` keeps the
    #: original append-only arena.
    gc_threshold: Optional[int] = None
    #: Enable dynamic sifting-based variable reordering between time
    #: steps (the paper ran with dynamic reordering disabled; this is
    #: the scaling knob CUDD would have provided).
    dyn_reorder: bool = False
    #: Nodes built (the arena plus everything GC has reclaimed) before
    #: the first sift, and the live-node floor of every later one.
    reorder_threshold: int = 4096
    #: After a sift, re-sift once a collection leaves this factor times
    #: the live nodes that sift left.
    reorder_growth: float = 2.0
    #: Optional :class:`repro.obs.Observability` bundle (tracer /
    #: metrics registry / hot-spot profiler).  With None — the default
    #: — no observability code runs: the kernel leaves its fast-path
    #: methods un-wrapped and every remaining hook is one identity
    #: check.
    obs: Optional[object] = None
    #: Optional :class:`repro.guard.ResourceBudgets` enforced at the
    #: end-of-step safe points.  Breaches drive the mitigation ladder
    #: (GC -> sift reorder -> concretize -> abort with a rescue
    #: checkpoint and a structured SimulationAborted).
    budgets: Optional[object] = None
    #: Write a rolling checkpoint every N end-of-step safe points
    #: (requires ``checkpoint_dir``).
    checkpoint_every: Optional[int] = None
    #: Directory for rolling/rescue/interrupt checkpoints.
    checkpoint_dir: Optional[str] = None
    #: Optional :class:`repro.guard.faults.FaultInjector` — a
    #: deterministic chaos plan whose faults fire at safe points.
    faults: Optional[object] = None
    #: Disable the hybrid concrete/symbolic fast paths: every operator
    #: runs the generic per-bit BDD construction.  Results are
    #: bit-identical either way; the flag exists for differential
    #: testing and for measuring the fast-path speedup (Table 1's
    #: ``FULL`` vs ``FULL/nofp`` cells, ``symsim --no-fastpath``).
    no_fastpath: bool = False
    #: Run processes through the compiled tier
    #: (:mod:`repro.compile.codegen`): instruction streams are fused
    #: into specialized block closures with compile-time-decided word
    #: fast paths.  Results are bit-identical to the interpreter —
    #: which stays available as the differential oracle behind
    #: ``symsim --no-compile`` — and the flag is operational, not
    #: semantic (batch fingerprints and journals ignore it).
    compile_tier: bool = True
    #: Write a live heartbeat status record to this file (atomically
    #: replaced) every ``heartbeat_every`` end-of-step safe points and
    #: once more at run end — the ``repro.obs.heartbeat/1`` records
    #: behind ``symsim top`` / ``symsim serve-metrics``.
    heartbeat_path: Optional[str] = None
    #: End-of-step safe points between heartbeats (default
    #: :data:`repro.obs.live.DEFAULT_EVERY` when a heartbeat sink is
    #: configured; setting only this field enables in-process
    #: heartbeats with no file sink).
    heartbeat_every: Optional[int] = None
    #: In-process heartbeat consumer: called with each status record
    #: dict.  Not picklable — single-process use only (the batch
    #: engine rejects requests carrying one).
    heartbeat_callback: Optional[Callable[[dict], None]] = None
    #: Run name stamped into heartbeat records (defaults to the design
    #: top; the batch engine stamps the request name).
    heartbeat_name: Optional[str] = None
    #: Defer SIGINT to the next safe point: the first Ctrl-C finishes
    #: the current time step, writes a checkpoint when a
    #: ``checkpoint_dir`` is configured, and returns an ``interrupted``
    #: result with all stats/metrics flushed; a second Ctrl-C raises
    #: KeyboardInterrupt immediately (mid-step state is then suspect,
    #: so no checkpoint is written).
    defer_interrupt: bool = True


class SimStatus(str, Enum):
    """Stable outcome classification shared by the CLI, the batch
    engine and any caller that aggregates :class:`SimResult` objects.

    ``HANG`` never appears on a returned :class:`SimResult` — a hang
    raises :class:`~repro.errors.SimulationHang` — but the batch
    engine folds caught hangs into the same enum so one report shape
    covers every run.
    """

    OK = "ok"
    ASSERT_FAILED = "assert_failed"
    ABORTED = "aborted"
    HANG = "hang"


#: Schema tag of :meth:`SimResult.to_dict` payloads.
RESULT_SCHEMA = "repro.sim.result/1"


@dataclass
class SimResult:
    """Outcome of a :meth:`Kernel.run` call."""

    time: int
    violations: List[Violation]
    output: List[str]
    stats: SimStats
    finished: bool
    stopped: bool
    kernel: "Kernel"
    #: True when the run was stopped by a deferred SIGINT at a safe
    #: point instead of running to completion.
    interrupted: bool = False
    #: True when this is the partial result attached to a
    #: :class:`~repro.errors.SimulationAborted` (resource guard abort).
    aborted: bool = False

    def value(self, name: str) -> FourVec:
        """Current value of a net by full hierarchical name."""
        return self.kernel.state.value(name)

    @property
    def status(self) -> SimStatus:
        """The run's :class:`SimStatus` (stable, documented in README)."""
        if self.aborted:
            return SimStatus.ABORTED
        if self.violations:
            return SimStatus.ASSERT_FAILED
        return SimStatus.OK

    def error_trace(self):
        """The first violation's :class:`~repro.sim.trace.ErrorTrace`
        (``None`` for a clean run) — the resimulation input."""
        return self.violations[0].trace if self.violations else None

    def metrics(self) -> dict:
        """Flat, JSON-able counters for this run.

        Every value is deterministic for a deterministic simulation —
        wall-clock quantities (CPU seconds, GC/reorder seconds) are
        deliberately excluded so two runs of the same program compare
        equal byte for byte (the batch determinism guarantee).
        """
        stats = self.stats
        payload = {
            "events_processed": stats.events_processed,
            "events_scheduled": stats.events_scheduled,
            "events_merged": stats.events_merged,
            "process_events": stats.process_events,
            "nba_events": stats.nba_events,
            "assign_events": stats.assign_events,
            "instructions": stats.instructions,
            "symbols_injected": stats.symbols_injected,
        }
        payload["bdd"] = {
            key: value for key, value in sorted(stats.bdd.items())
            if not key.endswith("_seconds")
        }
        return payload

    def to_dict(self) -> dict:
        """Stable JSON-able payload (``repro.sim.result/1``).

        One shape for everything that reports on a run: the CLI, batch
        aggregation, and user scripting.  Deterministic for a
        deterministic simulation (see :meth:`metrics`).
        """
        return {
            "schema": RESULT_SCHEMA,
            "status": self.status.value,
            "time": self.time,
            "finished": self.finished,
            "stopped": self.stopped,
            "interrupted": self.interrupted,
            "aborted": self.aborted,
            "output": list(self.output),
            "violations": [
                {
                    "kind": violation.kind,
                    "where": violation.where,
                    "message": violation.message,
                    "time": violation.time,
                    "trace": [
                        {
                            "callsite_index": entry.callsite_index,
                            "where": entry.where,
                            "seq": entry.seq,
                            "time": entry.time,
                            "executed": entry.executed,
                            "value": entry.value,
                        }
                        for entry in violation.trace.entries
                    ],
                }
                for violation in self.violations
            ],
            "metrics": self.metrics(),
        }


@dataclass
class _Assertion:
    cond: CExpr
    armed: int
    where: str


@dataclass(slots=True)
class _Waiter:
    kind: str  # 'event' | 'level'
    process: CompiledProcess
    pc: int
    control: int
    prio: int
    #: an event waiter's triggers (its WaitEvent's, shared) and, per
    #: trigger, the value seen last: a FourVec, or the raw word the
    #: word path keeps (see :meth:`last_vectors`)
    triggers: Sequence[Trigger] = ()
    lasts: List[Union[FourVec, int]] = field(default_factory=list)
    cond: Optional[CExpr] = None
    dead: bool = False

    def last_vectors(self, mgr: BddManager) -> List[FourVec]:
        """``lasts`` as the vectors the generic path would hold."""
        return [
            trigger.materialize(mgr, last) if type(last) is int else last
            for trigger, last in zip(self.triggers, self.lasts)
        ]


class _Fanout:
    """What a change of one net reaches: the net's waiter list (the
    same list object as ``Kernel._waiters[net]``, or None before its
    first waiter) and the continuous assigns that read it."""

    __slots__ = ("waiters", "assigns")

    def __init__(self, waiters: Optional[List[_Waiter]],
                 assigns: tuple) -> None:
        self.waiters = waiters
        self.assigns = assigns


class Kernel:
    """Event-driven symbolic simulator for one compiled program."""

    REGION_ACTIVE = REGION_ACTIVE
    REGION_INACTIVE = REGION_INACTIVE
    REGION_NBA = REGION_NBA
    REGION_MONITOR = REGION_MONITOR

    def __init__(
        self,
        program: Program,
        options: Optional[SimOptions] = None,
        mgr: Optional[BddManager] = None,
        concrete_values: Optional[Dict[int, Sequence[str]]] = None,
    ) -> None:
        self.program = program
        self.design = program.design
        self.options = options or SimOptions()
        self.mgr = mgr or BddManager()
        self.mgr.fastpath = not self.options.no_fastpath
        self.mgr.gc_threshold = self.options.gc_threshold
        self.mgr.dyn_reorder = self.options.dyn_reorder
        self.mgr.sift_threshold = self.options.reorder_threshold
        self.mgr.reorder_growth = self.options.reorder_growth
        # The kernel is the manager's root provider: at every GC or
        # reorder it enumerates/rewrites all node ids it holds.
        self.mgr.register_root_provider(self)
        # Interned constant vectors point back at their manager; empty
        # the manager's cache when this kernel is dropped, so a
        # finished simulation frees its arena by refcounting alone.
        weakref.finalize(self, self.mgr._const_vec_cache.clear)
        self.state = SimState(self.mgr, self.design)
        self.obs = self.options.obs
        self.sched = Scheduler(self.mgr, self.options.accumulation,
                               depth_first=self.options.depth_first_priorities,
                               obs=self.obs)
        self.stats = SimStats()
        self._tracer = self.obs.tracer if self.obs is not None else None
        self._profiler = self.obs.profiler if self.obs is not None else None
        self._metrics = self.obs.metrics if self.obs is not None else None
        self._step_open = False
        self._last_nba_flush = -1
        self._m_events = self._m_cpu = None
        #: [fast-path hits, generic fallbacks] of the compiled tier —
        #: per kernel, not per Program: differential runs share one
        #: Program between two kernels.
        self._ctier = [0, 0]
        self._ctables = None
        #: True when the compiled tier may take word fast paths in the
        #: kernel's reactive machinery (continuous assigns, assertion
        #: checks) — mirrors the same specialize gate the generated
        #: blocks use, so counters stay bit-identical across tiers.
        self._cspec = False
        # The hot-path entry points are chosen once, here, and kept as
        # plain functions called with the kernel (``fn(self, ...)``):
        # a bound method stored on its own instance would be a
        # reference cycle, keeping a finished simulation's BDD arena
        # alive until the cyclic collector happens to run.
        #: frame loop of the tier: interpreter or compiled blocks
        self._frame_impl = Kernel._run_frame
        if self.options.compile_tier:
            # The actual codegen is deferred to _startup() so that
            # instrumentation inserted between construction and run()
            # (tests patch instruction streams in place) is compiled
            # in, exactly as the interpreter would observe it.
            self._frame_impl = (
                Kernel._run_frame_profiled if self._profiler is not None
                else Kernel._run_frame_compiled
            )
        #: what an event pop calls, and what a resumed frame calls;
        #: instrumented twins when an Observability bundle traces or
        #: profiles, so the un-instrumented hot paths stay untouched
        #: when off.  Metrics-only bundles need no per-event hook at
        #: all: series are sampled on time advance and gauges read at
        #: the end.
        self._dispatcher = Kernel._dispatch
        self._frame_runner = self._frame_impl
        if self.obs is not None:
            if self._tracer is not None or self._profiler is not None:
                self._dispatcher = Kernel._obs_dispatch
            if self._tracer is not None:
                self._frame_runner = Kernel._obs_run_frame
            if self._metrics is not None:
                self._init_metrics()
        self.now = 0
        self.finished = False
        self.stopped = False
        self.violations: List[Violation] = []
        self.output: List[str] = []
        self.random_log: List[RandomInvocation] = []
        self._callsite_seq: Dict[int, int] = {}
        self._assertions: Dict[str, _Assertion] = {}
        self._monitor: Optional[tuple] = None
        self._monitor_last: Optional[str] = None
        self._strobes: List[tuple] = []
        #: net -> its waiters, in registration order (checkpointed)
        self._waiters: Dict[str, List[_Waiter]] = {}
        #: net -> waiters and assign subscribers (:meth:`_index_fanout`)
        self._fanout: Dict[str, _Fanout] = {}
        self._drivers: Dict[str, Dict[tuple, FourVec]] = {}
        self._step_activity = 0
        self._started = False
        self._busy = False
        self._cpu_accum = 0.0
        self._finish_control = FALSE
        self._line_open = False
        self._vcd = None
        self._vcd_stream = None
        self._vcd_path = self.options.vcd_path
        self._concrete = (
            {k: deque(v) for k, v in concrete_values.items()}
            if concrete_values is not None else None
        )
        self._rng = None
        if self.options.concrete_random is not None:
            import random as _random

            self._rng = _random.Random(self.options.concrete_random)
        self._interrupted = False
        self._sigint_flag = [False]
        self._monitor_key: Optional[str] = None
        self._hang_sites: Optional[Dict[str, int]] = None
        self._hang_support = 0
        self._guard = None
        if (self.options.budgets is not None
                or self.options.checkpoint_every is not None
                or self.options.checkpoint_dir is not None
                or self.options.faults is not None):
            from repro.guard import Guard

            self._guard = Guard(
                budgets=self.options.budgets,
                checkpoint_every=self.options.checkpoint_every,
                checkpoint_dir=self.options.checkpoint_dir,
                faults=self.options.faults,
                obs=self.obs,
            )
        self._heartbeat = None
        if (self.options.heartbeat_path is not None
                or self.options.heartbeat_every is not None
                or self.options.heartbeat_callback is not None):
            from repro.obs.live import DEFAULT_EVERY, Heartbeat

            self._heartbeat = Heartbeat(
                path=self.options.heartbeat_path,
                callback=self.options.heartbeat_callback,
                every=self.options.heartbeat_every or DEFAULT_EVERY,
                name=self.options.heartbeat_name,
            )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def is_concrete(self) -> bool:
        """True when running as a concrete resimulation or random sim."""
        return self._concrete is not None or self._rng is not None

    def run(self, until: Optional[int] = None) -> SimResult:
        """Run until the queue drains, ``$finish``, a violation (with
        ``stop_on_violation``), or simulation time exceeds ``until``.

        ``run`` may be called repeatedly with increasing ``until`` to
        continue a paused simulation.
        """
        if not self._started:
            self._startup()
        cpu_start = _time.perf_counter()
        self._busy = True
        restore_sigint = self._arm_sigint()
        if self._guard is not None:
            self._guard.on_run_start(self)
        if self._heartbeat is not None:
            self._heartbeat.on_run_start(self, until)
        abort = None
        try:
            self._event_loop(until)
        except _FinishSignal:
            self._end_of_step()
        except SimulationAborted as exc:
            # Re-raised below with the flushed partial result attached.
            abort = exc
        finally:
            if restore_sigint is not None:
                restore_sigint()
            self._busy = False
            self._cpu_accum += _time.perf_counter() - cpu_start
            self.stats.events_scheduled = self.sched.scheduled
            self.stats.events_merged = self.sched.merged
            self.stats.bdd = self.mgr.cache_stats()
            if self.options.trace_stats:
                self.stats.snapshot(self.now, self._cpu_accum)
            if self._metrics is not None:
                self._sample_series()
                self._publish_metrics()
            if self._tracer is not None and self._step_open:
                self._tracer.end("step", "step", lane=LANE_STEP,
                                 sim_time=self.now)
                self._step_open = False
            if self._vcd is not None and self._vcd_stream is not None:
                self._vcd_stream.flush()
        result = SimResult(
            time=self.now, violations=list(self.violations),
            output=list(self.output), stats=self.stats,
            finished=self.finished, stopped=self.stopped, kernel=self,
            interrupted=self._interrupted,
        )
        if abort is not None:
            result.aborted = True
        if self._heartbeat is not None:
            self._heartbeat.on_run_end(self, self._heartbeat_status(result))
        if abort is not None:
            abort.partial_result = result
            raise abort
        return result

    def _heartbeat_status(self, result: SimResult) -> str:
        """The heartbeat status string for a finished ``run()`` call."""
        if result.aborted:
            return SimStatus.ABORTED.value
        if result.interrupted:
            return "interrupted"
        if result.violations:
            return SimStatus.ASSERT_FAILED.value
        if not result.finished and self.sched.peek_time() is not None:
            # paused at an `until` bound with work still queued — the
            # run is expected to continue
            return "running"
        return SimStatus.OK.value

    def _arm_sigint(self) -> Optional[Callable]:
        """Defer Ctrl-C to the next safe point (main thread only).

        The first SIGINT only sets a flag the event loop polls between
        time steps — the manager and value store are never unwound
        mid-operation.  A second SIGINT raises immediately for users
        who really mean it.  Returns a restore callable, or ``None``
        when no handler was installed.
        """
        if not self.options.defer_interrupt:
            return None
        import signal

        flag = self._sigint_flag
        flag[0] = False

        def handler(signum, frame):
            if flag[0]:
                raise KeyboardInterrupt
            flag[0] = True

        try:
            previous = signal.signal(signal.SIGINT, handler)
        except ValueError:  # not the main thread — leave signals alone
            return None
        return lambda: signal.signal(signal.SIGINT, previous)

    @property
    def cpu_seconds(self) -> float:
        return self._cpu_accum

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def _ensure_compiled_tier(self) -> None:
        """Build (or fetch the cached) codegen tables on first run.

        Deferred past construction so instruction streams patched
        after ``open_sim`` compile in; also invoked by checkpoint
        restore, which marks the kernel started without ``_startup``.
        """
        if self.options.compile_tier and self._ctables is None:
            from repro.compile.codegen import compiled_tables

            self._ctables = compiled_tables(
                self.program, self.options.accumulation,
                specialize=not self.options.no_fastpath,
            )
            self._cspec = self._ctables.specialize

    def _startup(self) -> None:
        self._started = True
        self._ensure_compiled_tier()
        self.state.sync_with_design()
        for name, info in self.design.nets.items():
            if info.kind in ("supply0", "supply1"):
                value = 0 if info.kind == "supply0" else (1 << info.width) - 1
                self._drivers.setdefault(name, {})[("supply",)] = (
                    FourVec.from_int(self.mgr, value, info.width)
                )
                self._resolve_net(name)
        self._index_fanout()
        for assign in self.program.assigns:
            self.schedule_assign(assign.index)
        for proc in self.program.processes:
            self.schedule(proc, 0, 0, TRUE, 0)
        if self._vcd_path is not None:
            self.enable_vcd()

    def _event_loop(self, until: Optional[int]) -> None:
        cpu_mark = _time.perf_counter()
        tracer = self._tracer
        if tracer is not None and not self._step_open:
            tracer.begin("step", "step", lane=LANE_STEP, sim_time=self.now)
            self._step_open = True
        while True:
            next_time = self.sched.peek_time()
            if next_time is None:
                self._end_of_step()
                return
            if next_time > self.now:
                self._end_of_step()
                if self.finished or (
                    self.options.stop_on_violation and self.violations
                ):
                    return
                if until is not None and next_time > until:
                    return
                if self.options.trace_stats:
                    now_cpu = _time.perf_counter()
                    self._cpu_accum += now_cpu - cpu_mark
                    cpu_mark = now_cpu
                    self.stats.snapshot(self.now, self._cpu_accum)
                    if self._m_events is not None:
                        self._sample_series()
                mgr = self.mgr
                if mgr.gc_threshold is not None or mgr.dyn_reorder:
                    # End-of-step is the BDD safe point: no raw node
                    # ids live in Python locals of in-flight operators.
                    self._maintain()
                if self._guard is not None:
                    # Budgets / mitigation ladder / periodic checkpoints
                    # / injected faults all act here, at the safe point.
                    self._guard.on_safe_point(self)
                if self._heartbeat is not None:
                    self._heartbeat.on_safe_point(self)
                if self._sigint_flag[0]:
                    self._sigint_flag[0] = False
                    self._interrupted = True
                    if self._guard is not None:
                        self._guard.on_interrupt(self)
                    return
                if tracer is not None:
                    if self._step_open:
                        tracer.end("step", "step", lane=LANE_STEP,
                                   sim_time=self.now)
                    tracer.begin("step", "step", lane=LANE_STEP,
                                 sim_time=next_time)
                    self._step_open = True
                self.now = next_time
                self._step_activity = 0
                self._hang_sites = None
                self._hang_support = 0
            event = self.sched.pop()
            self._dispatcher(self, event)
            if self.finished:
                return

    def _dispatch(self, event: Event) -> None:
        stats = self.stats
        stats.events_processed += 1
        self._step_activity += 1
        if self._step_activity > self.options.max_step_activity:
            self._watchdog()
        if self._hang_sites is not None:
            self._note_hang_site(event_label(event), event.control)
        kind = event.kind
        if kind == "proc":
            stats.process_events += 1
            if event.control == FALSE:
                return
            self._frame_runner(self, Frame(event.process, event.pc,
                                           event.control, event.prio))
        elif kind == "nba":
            stats.nba_events += 1
            event.apply(self)
        elif kind == "assign":
            stats.assign_events += 1
            self._eval_assign(self.program.assigns[event.index])
        elif kind == "drive":
            stats.assign_events += 1
            self._commit_drive(self.program.assigns[event.index], event.payload)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event kind {kind!r}")

    def _run_frame(self, frame: Frame) -> None:
        instructions = frame.process.instructions
        stats = self.stats
        try:
            while True:
                stats.instructions += 1
                next_pc = instructions[frame.pc].execute(self, frame)
                if next_pc is None:
                    return
                frame.pc = next_pc
        except _PathFinish:
            return

    def _run_frame_compiled(self, frame: Frame) -> None:
        """Compiled-tier frame loop: one call per fused block.

        Blocks flush ``stats.instructions`` themselves and return the
        next label exactly like ``Instruction.execute``; labels missing
        from the table (possible only for resume points the static
        entry scan did not predict) build on demand.
        """
        tables = self._ctables
        index = frame.process.index
        blocks = tables.tables[index]
        pc = frame.pc
        block = blocks[pc] or tables.ensure(index, pc)
        try:
            while True:
                pc = block(self, frame)
                if pc is None:
                    return
                frame.pc = pc
                block = blocks[pc] or tables.ensure(index, pc)
        except _PathFinish:
            return

    def _run_frame_profiled(self, frame: Frame) -> None:
        """Compiled-tier loop with per-source-site block attribution.

        Each block carries its constituent ``(site, instructions)``
        pairs; recording them keeps the profiler's per-site hot spots
        instead of one opaque mega-site per resumed label
        (``_obs_dispatch`` passes 0 instructions in this mode so sites
        are not double-counted).  A ``$finish``/``$error`` that
        unwinds mid-block retires only a prefix of it; the
        ``stats.instructions`` delta (blocks flush inclusively before
        any unwinding call) picks the exact prefix of ``site_seq`` to
        attribute, so profiler totals equal ``stats.instructions`` on
        every path — same invariant as the interpreter.
        """
        profiler = self._profiler
        tables = self._ctables
        stats = self.stats
        index = frame.process.index
        blocks = tables.tables[index]
        pc = frame.pc
        block = blocks[pc] or tables.ensure(index, pc)
        try:
            while True:
                before = stats.instructions
                next_pc = block(self, frame)
                profiler.record_block(block.sites)
                if next_pc is None:
                    return
                frame.pc = next_pc
                block = blocks[next_pc] or tables.ensure(index, next_pc)
        except _PathFinish:
            profiler.record_block_partial(
                block.site_seq, stats.instructions - before)
            return
        except _FinishSignal:
            profiler.record_block_partial(
                block.site_seq, stats.instructions - before)
            raise

    def compile_tier_stats(self) -> Optional[dict]:
        """Compiled-tier counters, or ``None`` when interpreting:
        blocks built, how many reused a cached code object, instructions
        they cover, runtime fast-path hits/misses, and codegen wall
        time.  ``reused`` and ``build_seconds`` depend on what this
        process compiled before, so no result payload carries them."""
        if self._ctables is None:
            return None
        payload = self._ctables.stats()
        payload["tier_hits"] = self._ctier[0]
        payload["tier_misses"] = self._ctier[1]
        return payload

    # ------------------------------------------------------------------
    # observability (repro.obs) — instrumented twins of the hot paths.
    # __init__ selects these as ``_dispatcher``/``_frame_runner`` when
    # an Observability bundle is configured; otherwise the plain
    # methods above run with zero added work.
    # ------------------------------------------------------------------

    def _obs_dispatch(self, event: Event) -> None:
        tracer = self._tracer
        profiler = self._profiler
        if tracer is None and profiler is None:
            # metrics-only bundles need no per-event timing
            Kernel._dispatch(self, event)
            return
        if (tracer is not None and event.kind == "nba"
                and self.now != self._last_nba_flush):
            # first NBA update of this time step — region transition
            self._last_nba_flush = self.now
            tracer.instant("nba-flush", "sched", sim_time=self.now)
        nodes_before = self.mgr.total_nodes
        insns_before = self.stats.instructions
        started = _time.perf_counter()
        try:
            Kernel._dispatch(self, event)
        finally:
            # finally: a $finish unwind must still record its pop
            elapsed = _time.perf_counter() - started
            if profiler is not None:
                # Under the compiled tier the per-site instruction
                # counts come from record_block attribution instead.
                profiler.record_pop(
                    event, elapsed, self.mgr.total_nodes - nodes_before,
                    0 if self._ctables is not None
                    else self.stats.instructions - insns_before,
                )
            if tracer is not None:
                tracer.complete(
                    f"pop:{event.kind}", "pop", tracer.to_us(started),
                    elapsed * 1e6, lane=LANE_EVENT,
                    site=event_label(event), sim_time=self.now,
                )

    def _obs_run_frame(self, frame: Frame) -> None:
        tracer = self._tracer
        started = _time.perf_counter()
        try:
            self._frame_impl(self, frame)
        finally:
            tracer.complete(
                f"resume:{frame.process.name}", "resume",
                tracer.to_us(started),
                (_time.perf_counter() - started) * 1e6,
                lane=LANE_EVENT, sim_time=self.now, pc=frame.pc,
            )

    def _init_metrics(self) -> None:
        metrics = self._metrics
        self.mgr.attach_metrics(metrics)
        self._m_events = metrics.series(
            "sim.timeline.events",
            "cumulative processed events by simulation time")
        self._m_cpu = metrics.series(
            "sim.timeline.cpu_seconds",
            "cumulative kernel CPU seconds by simulation time")
        self._m_nodes = metrics.series(
            "sim.timeline.bdd_nodes",
            "BDD arena size by simulation time (drops show GC)")

    def _sample_series(self) -> None:
        self._m_events.sample(self.now, self.stats.events_processed)
        self._m_cpu.sample(self.now, self._cpu_accum)
        self._m_nodes.sample(self.now, self.mgr.total_nodes)

    def _publish_metrics(self) -> None:
        metrics = self._metrics
        stats = self.stats
        for name, help_, value in (
            ("sim.time", "final simulation time", self.now),
            ("sim.cpu_seconds", "kernel CPU seconds", self._cpu_accum),
            ("sim.events_processed", "events popped", stats.events_processed),
            ("sim.events_scheduled", "events enqueued",
             stats.events_scheduled),
            ("sim.events_merged", "accumulation merges",
             stats.events_merged),
            ("sim.process_events", "process resume events",
             stats.process_events),
            ("sim.nba_events", "non-blocking update events",
             stats.nba_events),
            ("sim.assign_events", "continuous-assign events",
             stats.assign_events),
            ("sim.instructions", "micro-instructions retired",
             stats.instructions),
            ("sim.symbols_injected", "symbolic BDD variables injected",
             stats.symbols_injected),
        ):
            metrics.gauge(name, help_).set(value)
        mgr = self.mgr
        fp_total = mgr.fastpath_word_ops + mgr.fastpath_symbolic_ops
        for name, help_, value in (
            ("sim.fastpath.word_ops",
             "operators evaluated word-level on concrete operands",
             mgr.fastpath_word_ops),
            ("sim.fastpath.bit_shortcuts",
             "per-bit constant-cofactor short-circuits on mixed operands",
             mgr.fastpath_bit_shortcuts),
            ("sim.fastpath.symbolic_ops",
             "operators that fell back to the generic BDD construction",
             mgr.fastpath_symbolic_ops),
            ("sim.fastpath.concrete_ratio",
             "word_ops / (word_ops + symbolic_ops)",
             mgr.fastpath_word_ops / fp_total if fp_total else 0.0),
        ):
            metrics.gauge(name, help_).set(value)
        if self._ctables is not None:
            hits, misses = self._ctier
            total = hits + misses
            for name, help_, value in (
                ("sim.compile.blocks",
                 "fused blocks built by the compiled tier",
                 self._ctables.blocks_built),
                ("sim.compile.fused_instructions",
                 "micro-instructions covered by fused blocks",
                 self._ctables.fused_instructions),
                ("sim.compile.tier_hits",
                 "compile-time fast-path dispatches taken",
                 hits),
                ("sim.compile.tier_misses",
                 "specialized dispatches that fell back to generic eval",
                 misses),
                ("sim.compile.hit_ratio",
                 "tier_hits / (tier_hits + tier_misses)",
                 hits / total if total else 0.0),
                ("sim.compile.build_seconds",
                 "codegen wall time (cached per Program)",
                 self._ctables.build_seconds),
            ):
                metrics.gauge(name, help_).set(value)

    def profile_document(self) -> dict:
        """The run's hot-spot profile (``repro.obs.profile/1``).

        Requires a profiler in the attached Observability bundle; the
        CLI saves this via ``--profile-out`` and ``symsim report``
        renders it.
        """
        if self._profiler is None:
            raise SimulationError(
                "no profiler attached; run with "
                "SimOptions(obs=Observability(profiler=HotSpotProfiler()))"
            )
        meta = {
            "design": self.design.top,
            "sim_time": self.now,
            "events_processed": self.stats.events_processed,
            "events_merged": self.stats.events_merged,
            "cpu_seconds": self._cpu_accum,
            "bdd_kernel": self.mgr.bdd_kernel,
        }
        return self._profiler.to_dict(meta=meta, bdd=self.mgr.cache_stats(),
                                      compile_stats=self.compile_tier_stats())

    # ------------------------------------------------------------------
    # end of time step: NBA already drained by region order; here we run
    # $strobe, $monitor and the paper's end-of-step assertion checks.
    # ------------------------------------------------------------------

    def _end_of_step(self) -> None:
        for args, control in self._strobes:
            self._emit(self._format(args, control))
        self._strobes.clear()
        if self._monitor is not None:
            args, control = self._monitor
            text = self._format(args, control)
            if text != self._monitor_last:
                self._monitor_last = text
                self._emit(text)
        self._check_assertions()

    def _check_assertions(self) -> None:
        for assertion in self._assertions.values():
            if assertion.armed == FALSE:
                continue
            cond = assertion.cond
            if self._cspec and cond.word is not None:
                # Compiled-tier word fast path.  A raw int means the
                # condition is fully known, so both pass/fail verdicts
                # (``truthy``/``_falsy``) collapse to terminals; mirror
                # the skipped generic evaluation's word-op count.
                raw = cond.word(self, cond.width)
                if raw is not None:
                    self.mgr._fp_word += cond.word_cost
                    if raw:
                        continue
                    violating = assertion.armed
                    self._record_violation("$assert", violating,
                                           assertion.where, "")
                    # Same op sequence as the generic arm (armed may be
                    # symbolic; and_/not_ cache traffic must match).
                    assertion.armed = self.mgr.and_(
                        assertion.armed, self.mgr.not_(violating))
                    if self.options.stop_on_violation:
                        self.finished = True
                    continue
            value = cond.eval(self, None, TRUE, cond.width)
            if self.options.check_unknown_assert:
                bad = self.mgr.not_(value.truthy())
            else:
                bad = _falsy(self.mgr, value)
            violating = self.mgr.and_(assertion.armed, bad)
            if violating == FALSE:
                continue
            self._record_violation("$assert", violating, assertion.where, "")
            assertion.armed = self.mgr.and_(assertion.armed,
                                            self.mgr.not_(violating))
            if self.options.stop_on_violation:
                self.finished = True

    # ------------------------------------------------------------------
    # scheduling services (called from instructions)
    # ------------------------------------------------------------------

    def schedule(
        self,
        process: CompiledProcess,
        pc: int,
        delay: int,
        control: int,
        prio: int,
        region: int = REGION_ACTIVE,
    ) -> None:
        """Schedule a process resume; zero-control events are dropped."""
        if control == FALSE:
            return
        self.sched.push(Event(time=self.now + delay, region=region, prio=prio,
                              kind="proc", process=process, pc=pc,
                              control=control))

    def schedule_nba(self, apply: Callable, delay: int = 0) -> None:
        self.sched.push(Event(time=self.now + delay, region=REGION_NBA,
                              prio=0, kind="nba", apply=apply))

    def schedule_assign(self, index: int, delay: int = 0) -> None:
        self.sched.push(Event(time=self.now + delay, region=REGION_ACTIVE,
                              prio=0, kind="assign", index=index))

    def eval_delay(self, delay_cexpr, frame: Frame) -> int:
        value = delay_cexpr.eval(self, None, frame.control, delay_cexpr.width)
        concrete = value.as_signed(False).to_int_or_none()
        if concrete is None:
            raise SymbolicDelayError(
                f"delay expression in {frame.process.name} is symbolic or "
                "unknown; delays must evaluate to concrete values"
            )
        return concrete

    #: After the hang watchdog trips, keep running for up to this many
    #: further events/iterations (capped at the watchdog limit itself)
    #: to sample *which* sites are spinning before raising.
    HANG_SAMPLE_WINDOW = 1000

    def note_activity(self) -> None:
        self._step_activity += 1
        if self._step_activity > self.options.max_step_activity:
            self._watchdog()

    def _watchdog(self) -> None:
        """Past the step's activity limit: sample, then raise."""
        limit = self.options.max_step_activity
        if self._hang_sites is None:
            # Watchdog tripped: open a short diagnostic window instead
            # of raising blind — the extra events identify the loop.
            self._hang_sites = {}
            self._hang_support = 0
        elif self._step_activity > limit + min(self.HANG_SAMPLE_WINDOW,
                                               limit):
            self._raise_hang()

    def _note_hang_site(self, label: str, control: int) -> None:
        sites = self._hang_sites
        sites[label] = sites.get(label, 0) + 1
        if control not in (FALSE, TRUE):
            support = len(self.mgr.support(control))
            if support > self._hang_support:
                self._hang_support = support

    def _raise_hang(self) -> None:
        top = sorted(self._hang_sites.items(),
                     key=lambda item: (-item[1], item[0]))[:3]
        hot = ", ".join(f"{label} ({count}x)" for label, count in top)
        raise SimulationHang(
            f"more than {self.options.max_step_activity} events/iterations "
            f"in one time step (time {self.now}) — zero-delay loop? "
            f"hottest sites: {hot or 'n/a'}; "
            f"max active control support: {self._hang_support} vars",
            sim_time=self.now,
            top_sites=top,
            control_support=self._hang_support,
        )

    def note_loop_iteration(self, frame: Frame) -> None:
        self.note_activity()
        if self._hang_sites is not None:
            line = frame.process.instructions[frame.pc].line
            self._note_hang_site(f"{frame.process.name}:{line}",
                                 frame.control)

    # ------------------------------------------------------------------
    # state writes + change notification
    # ------------------------------------------------------------------

    def write_net(self, name: str, value: FourVec, control: int) -> None:
        """Guarded write: ``name := ite(control, value, name)``."""
        if control == FALSE:
            return
        old = self.state.value(name)
        if value.width != old.width:
            value = value.resize(old.width)
        # Store with the declared signedness, whatever the RHS carried.
        value = value.as_signed(old.signed)
        new = value if control == TRUE else value.ite(control, old)
        if new.bits == old.bits:
            return
        self.state.set_value(name, new)
        if self._vcd is not None:
            self._vcd.record(self.now, name, new)
        # ``new.bits != old.bits``: BDDs are canonical, so some rail pair
        # differs as *functions* and the change condition cannot be
        # FALSE — no need to build it.
        self._fan_out(name)

    def write_net_raw(self, name: str, raw: int) -> None:
        """Compiled-tier write of a fully-known word under TRUE control.

        Equivalent to ``write_net(name, from_int(raw, declared_width),
        TRUE)`` — ``raw`` must already be masked to the declared width.
        The word stays an unmaterialized ``int`` in the store until a
        consumer needs bits; the no-change early-out matches the
        generic path exactly (a fully-known old value equals the new
        vector iff its ``known_int`` equals ``raw``).
        """
        state = self.state
        old = state.peek(name)
        if type(old) is int:
            if old == raw:
                return
        elif old.known_int() == raw:
            return
        state.store_raw(name, raw)
        if self._vcd is not None:
            self._vcd.record_raw(self.now, name, raw)
        self._fan_out(name)

    def write_array(
        self, name: str, index: FourVec, value: FourVec, control: int,
        low: int, high: int,
    ) -> None:
        if self.state.write_array(name, index, value, control, low, high):
            self._fan_out(name)

    # ------------------------------------------------------------------
    # BDD memory management: the kernel is its manager's root provider.
    # GC and reordering renumber node ids, so they only run at *safe
    # points* — between time steps (``_maintain``) or between ``run()``
    # calls — never while raw ids live in event-loop locals.
    # ------------------------------------------------------------------

    def reorder(self, order: Sequence[int]) -> None:
        """Re-pack every live BDD under a new static variable order.

        ``order`` is a permutation of the existing levels.  The paper
        ran with dynamic reordering disabled, but order still dominates
        BDD size; this lets a caller re-pack the space between ``run()``
        phases — e.g. interleaving related variables once their
        relationship is known.  The manager reorders in place and the
        kernel's root-provider hooks translate the value store,
        memories, net drivers, waiters, pending events (including
        delayed non-blocking updates), assertions, invocation logs,
        recorded violations and the finish control.  Simulation then
        continues unchanged (asserted by tests/integration/
        test_reorder.py).

        Raises :class:`SimulationError` when invoked from inside the
        event loop (e.g. from an instruction callback): mid-step, raw
        node ids live in Python locals that no root provider can see,
        and a reorder would silently corrupt them.
        """
        self._require_safe_point("reorder()")
        self.mgr.reorder(order)

    def collect_garbage(self) -> int:
        """Explicitly run a BDD collection (safe between ``run()`` calls)."""
        self._require_safe_point("collect_garbage()")
        return self.mgr.collect()

    def _require_safe_point(self, what: str) -> None:
        if self._busy:
            raise SimulationError(
                f"{what} is only legal at a safe point — between run() "
                "calls or time steps — not from inside the event loop; "
                "raw BDD node ids held by in-flight instructions would "
                "be corrupted"
            )

    def _maintain(self) -> None:
        """End-of-step BDD housekeeping: dynamic sifting or GC.

        A sift due before this safe point's GC replaces it (the sift
        collects first); otherwise a due GC runs and the sift trigger
        is checked again on what it left.
        """
        mgr = self.mgr
        tracer = self._tracer
        if not mgr.sift_due():
            if not mgr.gc_due():
                return
            started = _time.perf_counter()
            reclaimed = mgr.collect()
            if tracer is not None:
                tracer.complete(
                    "bdd-gc", "bdd", tracer.to_us(started),
                    (_time.perf_counter() - started) * 1e6,
                    lane=LANE_EVENT, sim_time=self.now,
                    reclaimed=reclaimed,
                )
            if not mgr.sift_due():
                return
        started = _time.perf_counter()
        saved = mgr.sift()
        if tracer is not None:
            tracer.complete(
                "bdd-reorder", "bdd", tracer.to_us(started),
                (_time.perf_counter() - started) * 1e6,
                lane=LANE_EVENT, sim_time=self.now,
                nodes_saved=saved,
            )

    def _iter_waiters(self):
        """Each live waiter exactly once (they appear per watched net)."""
        seen = set()
        for waiters in self._waiters.values():
            for waiter in waiters:
                if id(waiter) not in seen:
                    seen.add(id(waiter))
                    yield waiter

    def bdd_roots(self):
        """Root-provider hook: every node id the kernel holds."""
        yield from self.state.bdd_roots()
        yield from self.sched.bdd_roots()
        for drivers in self._drivers.values():
            for vec in drivers.values():
                for a, b in vec.bits:
                    yield a
                    yield b
        for waiter in self._iter_waiters():
            yield waiter.control
            for last in waiter.lasts:
                if type(last) is int:
                    continue  # raw word: terminal rails only
                for a, b in last.bits:
                    yield a
                    yield b
        for assertion in self._assertions.values():
            yield assertion.armed
        for invocation in self.random_log:
            yield invocation.control
            for a, b in invocation.vector.bits:
                yield a
                yield b
        for violation in self.violations:
            yield violation.condition
        if self._monitor is not None:
            yield self._monitor[1]
        for _, control in self._strobes:
            yield control
        yield self._finish_control

    def bdd_remap(self, lookup, level_map) -> None:
        """Root-provider hook: rewrite all held ids after GC/reorder."""
        self.state.bdd_remap(lookup, level_map)
        self.sched.bdd_remap(lookup, level_map)
        for drivers in self._drivers.values():
            for key, vec in drivers.items():
                drivers[key] = vec.remap(lookup)
        for waiter in self._iter_waiters():
            waiter.control = lookup(waiter.control)
            waiter.lasts = [
                last if type(last) is int else last.remap(lookup)
                for last in waiter.lasts
            ]
        for assertion in self._assertions.values():
            assertion.armed = lookup(assertion.armed)
        for invocation in self.random_log:
            invocation.control = lookup(invocation.control)
            invocation.vector = invocation.vector.remap(lookup)
            if level_map is not None and invocation.levels:
                invocation.levels = tuple(
                    level_map[level] for level in invocation.levels
                )
        for violation in self.violations:
            violation.condition = lookup(violation.condition)
            if level_map is not None:
                # error-trace witness cubes are keyed by variable level
                violation.trace.witness = {
                    level_map[level]: value
                    for level, value in violation.trace.witness.items()
                }
        if self._monitor is not None:
            self._monitor = (self._monitor[0], lookup(self._monitor[1]))
        self._strobes = [(args, lookup(control))
                         for args, control in self._strobes]
        self._finish_control = lookup(self._finish_control)

    # ------------------------------------------------------------------
    # VCD dumping
    # ------------------------------------------------------------------

    def set_vcd_path(self, path: str) -> None:
        """``$dumpfile`` — remember where ``$dumpvars`` should write."""
        self._vcd_path = path

    def enable_vcd(self) -> None:
        """``$dumpvars`` — start dumping every named (non-shadow) net."""
        if self._vcd is not None:
            return
        from repro.sim.vcd import VcdWriter

        self._vcd_stream = open(self._vcd_path or "dump.vcd", "w",
                                encoding="ascii")
        self._vcd = VcdWriter(self._vcd_stream)
        for name, info in self.design.nets.items():
            if info.array is None and not name.startswith("$shadow"):
                self._vcd.declare(name, info.width)
        self._vcd.write_header(self.design.top)
        self._vcd.dump_all(
            self.now,
            lambda name: self.state.value(name),
        )

    def _close_vcd(self) -> None:
        if self._vcd is not None:
            self._vcd.close()
            self._vcd_stream.close()
            self._vcd = None
            self._vcd_stream = None

    def set_mask(self, name: str, mask: int) -> None:
        """Overwrite a fork-completion mask shadow (no notifications)."""
        self.state.set_value(name, FourVec(self.mgr, [(mask, FALSE)]))

    def accumulate_mask(self, name: str, control: int) -> None:
        """OR a path control into a fork-completion mask shadow."""
        current = self.state.value(name).bits[0][0]
        self.set_mask(name, self.mgr.or_(current, control))

    def _fan_out(self, name: str) -> None:
        """A change of ``name``: wake its waiters, then schedule the
        continuous assigns that read it."""
        fanout = self._fanout.get(name)
        if fanout is not None:
            if fanout.waiters:
                self._wake_waiters(fanout.waiters)
            for index in fanout.assigns:
                self.schedule_assign(index)

    def _index_fanout(self) -> None:
        """Build the fan-out table from the program's assigns and the
        waiter registry (at startup, and after a checkpoint restore)."""
        subs: Dict[str, List[int]] = {}
        for assign in self.program.assigns:
            for net in assign.support:
                subs.setdefault(net, []).append(assign.index)
        self._fanout = {net: _Fanout(None, tuple(indices))
                        for net, indices in subs.items()}
        for net, waiters in self._waiters.items():
            self._fanout_of(net).waiters = waiters

    def _fanout_of(self, net: str) -> _Fanout:
        fanout = self._fanout.get(net)
        if fanout is None:
            fanout = self._fanout[net] = _Fanout(None, ())
        return fanout

    # ------------------------------------------------------------------
    # event-control waiters
    # ------------------------------------------------------------------

    def register_waiter(self, frame: Frame, pc: int, wait) -> None:
        """Arm the event control of WaitEvent ``wait`` for ``frame``.

        On the word path (compiled tier, fast paths on, TRUE control)
        a trigger whose word twin answers keeps its raw word as
        ``last``, counting the ``word_cost`` its generic evaluation
        would have counted.
        """
        triggers = wait.triggers
        if self._cspec and frame.control == TRUE:
            mgr = self.mgr
            lasts = []
            for trigger in triggers:
                raw = (None if trigger.word is None
                       else trigger.word(self, trigger.width))
                if raw is None:
                    lasts.append(trigger.cexpr.eval(self, None, TRUE,
                                                    trigger.width))
                else:
                    mgr._fp_word += trigger.cexpr.word_cost
                    lasts.append(raw)
        else:
            lasts = [t.cexpr.eval(self, None, TRUE, t.width)
                     for t in triggers]
        self._add_waiter(
            _Waiter("event", frame.process, pc, frame.control, frame.prio,
                    triggers, lasts),
            wait.nets)

    def register_level_waiter(self, frame: Frame, pc: int, cond,
                              control: int) -> None:
        waiter = _Waiter(kind="level", process=frame.process, pc=pc,
                         control=control, prio=frame.prio, cond=cond)
        self._add_waiter(waiter, cond.support)

    def _add_waiter(self, waiter: _Waiter, nets) -> None:
        registry = self._waiters
        for net in nets:
            waiters = registry.get(net)
            if waiters is None:
                waiters = registry[net] = []
                self._fanout_of(net).waiters = waiters
            waiters.append(waiter)

    def _wake_waiters(self, waiters: List[_Waiter]) -> None:
        """Check every live waiter of one net; drop the dead ones."""
        any_dead = False
        for waiter in waiters:
            if waiter.dead:
                any_dead = True
                continue
            self._check_waiter(waiter)
            any_dead = any_dead or waiter.dead
        if any_dead:
            waiters[:] = [w for w in waiters if not w.dead]

    def _check_waiter(self, waiter: _Waiter) -> None:
        mgr = self.mgr
        if waiter.kind == "level":
            value = waiter.cond.eval(self, None, TRUE, waiter.cond.width)
            fire = value.truthy()
        else:
            words = self._cspec and waiter.control == TRUE
            fire = self._trigger_fire(waiter, words)
            if words and fire <= TRUE:
                # Terminal condition under a TRUE control: exactly what
                # the and_/not_ below reduce to, without calling them.
                if fire == TRUE:
                    self.schedule(waiter.process, waiter.pc, 0, TRUE,
                                  waiter.prio)
                    waiter.control = FALSE
                    waiter.dead = True
                return
        wake = mgr.and_(waiter.control, fire)
        if wake == FALSE:
            return
        self.schedule(waiter.process, waiter.pc, 0, wake, waiter.prio)
        waiter.control = mgr.and_(waiter.control, mgr.not_(fire))
        if waiter.control == FALSE:
            waiter.dead = True

    def _trigger_fire(self, waiter: _Waiter, words: bool) -> int:
        """OR of an event waiter's trigger conditions; advances each
        trigger's ``last`` to the value it reads now.

        Word path (``words``: compiled tier, fast paths on, TRUE
        control): a trigger whose word twin answers, and whose
        ``last`` is fully known, is tested on ints — posedge ``0 -> 1``
        and negedge ``1 -> 0`` on bit 0, any change on the whole word.
        That is all the generic conditions can produce on known
        values; the fast-path counters get what the generic evaluation
        and edge test count (``Trigger.cost``).  Any other trigger
        takes the generic path, with a raw ``last`` materialized first.
        """
        mgr = self.mgr
        lasts = waiter.lasts
        fire = FALSE
        for i, trigger in enumerate(waiter.triggers):
            last = lasts[i]
            if words and trigger.word is not None:
                new = trigger.word(self, trigger.width)
                old = last if type(last) is int else last.known_int()
                if new is not None and old is not None:
                    mgr._fp_word += trigger.cost
                    lasts[i] = new
                    edge = trigger.edge
                    if edge is None:
                        hit = old != new
                    elif edge == "posedge":
                        hit = not old & 1 and new & 1
                    else:
                        hit = old & 1 and not new & 1
                    if hit:
                        fire = TRUE if fire <= TRUE else mgr.or_(fire, TRUE)
                    elif fire > TRUE:
                        fire = mgr.or_(fire, FALSE)
                    continue
            if type(last) is int:
                last = trigger.materialize(mgr, last)
            new = trigger.cexpr.eval(self, None, TRUE, trigger.width)
            if trigger.edge == "posedge":
                cond = ops.posedge_condition(last, new)
            elif trigger.edge == "negedge":
                cond = ops.negedge_condition(last, new)
            else:
                cond = last.change_condition(new)
            lasts[i] = new
            fire = mgr.or_(fire, cond)
        return fire

    # ------------------------------------------------------------------
    # continuous assigns / net resolution
    # ------------------------------------------------------------------

    def _eval_assign(self, assign: CompiledContAssign) -> None:
        rhs = assign.rhs
        if self._cspec and rhs.word is not None:
            # Compiled-tier word fast path: the rhs promises that when
            # it returns a raw int, generic evaluation would have
            # produced exactly that fully-known vector while bumping
            # the word-op counter ``word_cost`` times — mirror it so
            # metrics stay bit-identical with the interpreter tier.
            raw = rhs.word(self, assign.total_width)
            if raw is not None:
                self.mgr._fp_word += rhs.word_cost
                value = FourVec.from_int(self.mgr, raw, assign.total_width)
                if assign.delay:
                    self.sched.push(Event(
                        time=self.now + assign.delay, region=REGION_ACTIVE,
                        prio=0, kind="drive", index=assign.index,
                        payload=value))
                else:
                    self._commit_drive(assign, value, raw)
                return
        value = rhs.eval(self, None, TRUE, assign.total_width)
        if assign.delay:
            self.sched.push(Event(time=self.now + assign.delay,
                                  region=REGION_ACTIVE, prio=0, kind="drive",
                                  index=assign.index, payload=value))
        else:
            self._commit_drive(assign, value)

    def _commit_drive(self, assign: CompiledContAssign, value: FourVec,
                      raw: Optional[int] = None) -> None:
        """Drive ``value`` (``raw``: the same value as a known word)."""
        if assign.direct and self.mgr.fastpath:
            # Sole whole-net driver of a plain wire: the resolved value
            # is the driven one, and the net only ever changes here, so
            # the write's no-change test is the driver slot's.  The
            # slot is still kept, unsigned as the padded copy would be,
            # for checkpoints and the GC root walk.
            net = assign.targets[0].net
            drivers = self._drivers.get(net)
            if drivers is None:
                drivers = self._drivers[net] = {}
            drivers[(assign.index, 0)] = value.as_signed(False)
            if raw is None:
                self.write_net(net, value, TRUE)
            else:
                self.write_net_raw(net, raw)
            return
        offset = assign.total_width
        for target_index, target in enumerate(assign.targets):
            offset -= target.width
            piece = value.slice(offset, target.width)
            info = self.design.net(target.net)
            bits = [BIT_Z] * info.width
            for i in range(target.width):
                position = target.offset + i
                if 0 <= position < info.width:
                    bits[position] = piece.bits[i]
            padded = FourVec(self.mgr, bits)
            drivers = self._drivers.setdefault(target.net, {})
            key = (assign.index, target_index)
            if key in drivers and drivers[key].bits == padded.bits:
                continue
            drivers[key] = padded
            self._resolve_net(target.net)

    def _resolve_net(self, name: str) -> None:
        info = self.design.net(name)
        resolve = {
            "wand": ops.resolve_wand,
            "wor": ops.resolve_wor,
        }.get(info.kind, ops.resolve_wire)
        resolved: Optional[FourVec] = None
        for driver in self._drivers.get(name, {}).values():
            resolved = driver if resolved is None else resolve(
                resolved, driver
            )
        if resolved is None:
            resolved = FourVec.all_z(self.mgr, info.width)
        if info.kind in ("tri0", "tri1"):
            resolved = ops.pull_z(resolved, pull_to_one=info.kind == "tri1")
        self.write_net(name, resolved, TRUE)

    # ------------------------------------------------------------------
    # $random — symbolic variable injection (Sections 3.1 and 5)
    # ------------------------------------------------------------------

    def new_symbol(self, callsite, width: int, four_valued: bool,
                   control: int) -> FourVec:
        seq = self._callsite_seq.get(callsite.index, 0)
        self._callsite_seq[callsite.index] = seq + 1
        if self._rng is not None:
            return FourVec.from_int(self.mgr, self._rng.getrandbits(width),
                                    width)
        if self._concrete is not None:
            values = self._concrete.get(callsite.index)
            if not values:
                raise ResimulationError(
                    f"resimulation executed {callsite.where} more often than "
                    "the error trace recorded"
                )
            bits = values.popleft()
            return FourVec.from_verilog_bits(self.mgr, bits).resize(width)
        name = f"{callsite.kind[1:]}{callsite.index}.{seq}@t{self.now}"
        before = self.mgr.var_count
        vector = FourVec.fresh_symbol(self.mgr, width, name, four_valued)
        self.random_log.append(
            RandomInvocation(callsite_index=callsite.index, seq=seq,
                             time=self.now, vector=vector, control=control,
                             levels=tuple(range(before, self.mgr.var_count)))
        )
        self.stats.symbols_injected += width * (2 if four_valued else 1)
        return vector

    # ------------------------------------------------------------------
    # violations
    # ------------------------------------------------------------------

    def report_error(self, control: int, where: str, message: str) -> None:
        if control == FALSE:
            return
        self._record_violation("$error", control, where, message)
        if self.options.stop_on_violation:
            self.finish(stopped=False)

    def register_assertion(self, assertion_id: str, cond: CExpr, control: int,
                           where: str) -> None:
        existing = self._assertions.get(assertion_id)
        if existing is None:
            self._assertions[assertion_id] = _Assertion(cond=cond,
                                                        armed=control,
                                                        where=where)
        else:
            existing.armed = self.mgr.or_(existing.armed, control)

    def _record_violation(self, kind: str, condition: int, where: str,
                          message: str) -> None:
        where_map = {c.index: c.where for c in self.program.callsites}
        trace = build_error_trace(self.mgr, condition, self.random_log,
                                  where_map)
        self.violations.append(
            Violation(kind=kind, where=where, message=message, time=self.now,
                      condition=condition, trace=trace)
        )

    # ------------------------------------------------------------------
    # output tasks
    # ------------------------------------------------------------------

    def display(self, args, control: int, strobe: bool = False,
                newline: bool = True, env=None) -> None:
        if control == FALSE:
            return
        if strobe:
            self._strobes.append((args, control))
            return
        text = self._format(args, control, env)
        self._emit(text if newline else text, newline)

    def set_monitor(self, args, control: int,
                    key: Optional[str] = None) -> None:
        self._monitor = (args, control)
        self._monitor_key = key
        self._monitor_last = None

    def _format(self, args, control: int, env=None) -> str:
        def evaluate(cexpr):
            return cexpr.eval(self, env, control, cexpr.width)

        return systasks.format_display(args, evaluate,
                                       scope_name=self.design.top)

    def _emit(self, text: str, newline: bool = True) -> None:
        if self._line_open and self.output:
            self.output[-1] += text
        else:
            self.output.append(text)
        self._line_open = not newline
        if self.options.echo_output:
            print(text, end="\n" if newline else "", flush=True)

    def finish(self, stopped: bool = False, control: int = TRUE) -> None:
        """Handle ``$finish``/``$stop`` under a path condition.

        Simulation as a whole ends only once *every* execution path has
        finished (the finish controls OR up to TRUE); until then only
        the current path dies, so slower symbolic paths keep running to
        their own checks — without this, the first path to reach
        ``$finish`` would silently discard the coverage of all others.
        """
        self._finish_control = self.mgr.or_(self._finish_control, control)
        self.stopped = self.stopped or stopped
        if self._finish_control == TRUE:
            self.finished = True
            raise _FinishSignal()
        raise _PathFinish()


def _falsy(mgr: BddManager, value: FourVec) -> int:
    """BDD: the value is *known* false (every bit a known 0)."""
    result = TRUE
    for a, b in value.bits:
        result = mgr.and_(result, mgr.nor(a, b))
    return result
