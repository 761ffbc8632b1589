"""Resource budgets and the graceful-degradation ladder.

Symbolic simulation fails non-linearly: one `$random` too many and the
BDDs blow up, the run eats all RAM and dies with a useless MemoryError
an hour in.  :class:`Guard` turns that cliff into a staircase.  At every
end-of-step safe point it checks the configured
:class:`ResourceBudgets`; on a memory-shaped breach it climbs a
mitigation ladder of increasing aggression, re-checking after each rung:

1. **force a BDD garbage collection** — free dead nodes now instead of
   waiting for the GC threshold;
2. **force a sifting reorder** — spend CPU to shrink the live graph;
3. **concretize** — pick the symbolic ``$random`` variable whose level
   owns the most live nodes and restrict every live BDD to one constant
   value for it (choosing the cheaper branch).  This is the paper's
   symbolic/concrete trade-off applied in reverse: the run continues
   soundly but explores half the input space per concretized bit.  The
   choice is recorded in the manager, logged into the simulation
   output, and counted in ``sim.guard.concretized`` so reported
   violations can be audited against the narrowed space.  Error traces
   remain sound: controls, injected vectors and violation conditions
   are all restricted consistently through the Section-5 invocation
   machinery (the root-provider remap), so a witness extracted later
   still drives a valid concrete resimulation.
4. **abort, usefully** — write a rescue checkpoint and raise
   :class:`~repro.errors.SimulationAborted` carrying the partial
   :class:`~repro.sim.kernel.SimResult` and a :class:`BudgetReport`,
   instead of an opaque MemoryError or a hung process.

Hard budgets (wall-clock deadline, total event count) skip the ladder —
no amount of BDD shrinking buys back time — and go straight to the
rescue-checkpoint abort.  Budget checks are O(1) reads of existing
counters; with no guard configured the kernel's safe-point hook is a
single identity check.
"""

from __future__ import annotations

import os
import time as _time
from dataclasses import dataclass, field
from typing import List, Optional

_PAGE_SIZE = None


def process_rss_mb() -> Optional[float]:
    """Resident set size in MiB via ``/proc`` (None off Linux)."""
    global _PAGE_SIZE
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        if _PAGE_SIZE is None:
            _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
        return int(fields[1]) * _PAGE_SIZE / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError):
        return None


@dataclass
class ResourceBudgets:
    """Limits enforced at end-of-step safe points.

    All default to None (unlimited).  ``max_live_nodes`` and
    ``max_rss_mb`` are *soft* limits — breaching them runs the
    mitigation ladder before giving up; ``wall_seconds`` and
    ``max_events`` are hard deadlines.
    """

    #: Wall-clock budget for the whole run (measured from the first
    #: ``run()`` call; survives multiple ``run()`` phases).
    wall_seconds: Optional[float] = None
    #: Ceiling on live BDD nodes after the GC rung has run.
    max_live_nodes: Optional[int] = None
    #: Ceiling on process resident set size (MiB); ignored when
    #: ``/proc/self/statm`` is unavailable.
    max_rss_mb: Optional[float] = None
    #: Ceiling on total processed events.
    max_events: Optional[int] = None
    #: How many ``$random`` variables the concretize rung may burn
    #: through (per breach episode) before aborting.
    max_concretizations: int = 8


@dataclass
class BudgetReport:
    """What breached, what the guard did about it, and where the rescue
    checkpoint went.  Attached to :class:`SimulationAborted`."""

    breached: str
    limit: object
    observed: object
    sim_time: int
    actions: List[str] = field(default_factory=list)
    concretized: List[str] = field(default_factory=list)
    checkpoint_path: Optional[str] = None

    def describe(self) -> str:
        lines = [
            f"budget breached: {self.breached} "
            f"(limit {self.limit}, observed {self.observed}) "
            f"at simulation time {self.sim_time}",
        ]
        if self.actions:
            lines.append("mitigations attempted: " + "; ".join(self.actions))
        if self.concretized:
            lines.append("concretized variables: "
                         + ", ".join(self.concretized))
        if self.checkpoint_path:
            lines.append(f"rescue checkpoint: {self.checkpoint_path}")
        return "\n".join(lines)


class Guard:
    """Safe-point supervisor: budgets, checkpoints, fault injection.

    Constructed by the kernel when any of
    :class:`~repro.sim.kernel.SimOptions` ``budgets`` /
    ``checkpoint_every`` / ``faults`` is set.  All work happens in
    :meth:`on_safe_point`; the contract with the kernel is that *every*
    failure inside the guard surfaces as a structured
    :class:`SimulationAborted` — never a bare traceback out of the
    event loop.
    """

    def __init__(self, budgets: Optional[ResourceBudgets] = None,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_dir: Optional[str] = None,
                 faults=None, obs=None) -> None:
        from repro.errors import SimulationError

        if checkpoint_every is not None and checkpoint_dir is None:
            raise SimulationError(
                "checkpoint_every requires checkpoint_dir"
            )
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise SimulationError("checkpoint_every must be positive")
        self.budgets = budgets
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.faults = faults
        self._deadline: Optional[float] = None
        self._safe_points = 0
        self._concretized: List[str] = []
        self._m_concretized = None
        self._m_checkpoints = None
        self._tracer = obs.tracer if obs is not None else None
        if obs is not None and obs.metrics is not None:
            self._m_concretized = obs.metrics.counter(
                "sim.guard.concretized",
                "symbolic variables concretized by the mitigation ladder")
            self._m_checkpoints = obs.metrics.counter(
                "sim.guard.checkpoints", "checkpoints written by the guard")

    # ------------------------------------------------------------------
    # kernel hooks
    # ------------------------------------------------------------------

    def on_run_start(self, kern) -> None:
        budgets = self.budgets
        if (budgets is not None and budgets.wall_seconds is not None
                and self._deadline is None):
            self._deadline = _time.perf_counter() + budgets.wall_seconds
        if self.faults is not None:
            self.faults.on_run_start(self, kern)

    def on_safe_point(self, kern) -> None:
        """Fault injection, then budgets/ladder, then rolling checkpoint."""
        from repro.errors import SimulationAborted

        try:
            self._safe_points += 1
            if self.faults is not None:
                self.faults.on_safe_point(self, kern)
            if self.budgets is not None:
                self._check_budgets(kern)
            self._periodic_checkpoint(kern)
        except SimulationAborted:
            raise
        except Exception as exc:
            # The no-bare-traceback contract: anything that goes wrong
            # inside the guard machinery (including injected safe-point
            # faults) aborts with structure, not a stack dump.
            report = BudgetReport(
                breached="guard-failure", limit=None,
                observed=f"{type(exc).__name__}: {exc}",
                sim_time=kern.now,
                concretized=list(self._concretized),
            )
            report.checkpoint_path = self._try_rescue(kern, report)
            raise SimulationAborted(
                f"guard failure at safe point: {exc}",
                budget_report=report,
            ) from exc

    def on_interrupt(self, kern) -> None:
        """Deferred SIGINT reached the safe point: save, if configured."""
        if self.checkpoint_dir is not None:
            path = os.path.join(self.checkpoint_dir, "interrupt.ckpt")
            try:
                self._save(kern, path)
                kern._emit(f"[guard] interrupt checkpoint written: {path}")
            except Exception as exc:
                kern._emit(f"[guard] interrupt checkpoint failed: {exc}")

    # ------------------------------------------------------------------
    # budgets + ladder
    # ------------------------------------------------------------------

    def _check_budgets(self, kern) -> None:
        budgets = self.budgets
        if self._deadline is not None:
            now = _time.perf_counter()
            if now > self._deadline:
                overrun = now - (self._deadline - budgets.wall_seconds)
                self._abort(kern, BudgetReport(
                    breached="wall_seconds", limit=budgets.wall_seconds,
                    observed=round(overrun, 3), sim_time=kern.now,
                ))
        if (budgets.max_events is not None
                and kern.stats.events_processed > budgets.max_events):
            self._abort(kern, BudgetReport(
                breached="max_events", limit=budgets.max_events,
                observed=kern.stats.events_processed, sim_time=kern.now,
            ))
        if budgets.max_live_nodes is None and budgets.max_rss_mb is None:
            return
        breach = self._memory_breach(kern)
        if breach is not None:
            self._run_ladder(kern, breach)

    def _memory_breach(self, kern) -> Optional[BudgetReport]:
        budgets = self.budgets
        if (budgets.max_live_nodes is not None
                and kern.mgr.total_nodes > budgets.max_live_nodes):
            return BudgetReport(
                breached="max_live_nodes", limit=budgets.max_live_nodes,
                observed=kern.mgr.total_nodes, sim_time=kern.now,
            )
        if budgets.max_rss_mb is not None:
            rss = process_rss_mb()
            if rss is not None and rss > budgets.max_rss_mb:
                return BudgetReport(
                    breached="max_rss_mb", limit=budgets.max_rss_mb,
                    observed=round(rss, 1), sim_time=kern.now,
                )
        return None

    def _run_ladder(self, kern, report: BudgetReport) -> None:
        """GC -> sift -> concretize -> abort, re-checking between rungs."""
        mgr = kern.mgr

        reclaimed = mgr.collect()
        report.actions.append(f"gc reclaimed {reclaimed} nodes")
        if self._memory_breach(kern) is None:
            return

        saved = mgr.sift()
        report.actions.append(f"sift reorder saved {saved} nodes")
        if self._memory_breach(kern) is None:
            return

        for _ in range(self.budgets.max_concretizations):
            if not self._concretize_one(kern, report):
                break
            if self._memory_breach(kern) is None:
                return

        self._abort(kern, report)

    def _concretize_one(self, kern, report: BudgetReport) -> bool:
        """Concretize the heaviest un-concretized ``$random`` variable.

        Returns False when no symbolic variable is left to burn.
        """
        mgr = kern.mgr
        candidates = set()
        for invocation in kern.random_log:
            candidates.update(invocation.levels)
        candidates.difference_update(mgr.concretized)
        if not candidates:
            report.actions.append("no symbolic $random variables left "
                                  "to concretize")
            return False
        # One arena pass: live nodes per variable level (arena was just
        # compacted by the GC rung, so every slot >= 2 is live).
        weight = mgr.arena.level_counts(mgr.var_count)
        level = max(candidates, key=lambda lvl: (weight[lvl], -lvl))
        name = mgr.var_name(level)
        started = _time.perf_counter()
        value = mgr.concretize(level)
        label = f"{name}={int(value)}"
        self._concretized.append(label)
        report.concretized.append(label)
        report.actions.append(
            f"concretized {label} ({weight[level]} nodes at its level)")
        kern._emit(
            f"[guard] budget pressure: concretized $random variable "
            f"{label} at time {kern.now}; error traces now cover the "
            f"narrowed input space"
        )
        if self._m_concretized is not None:
            self._m_concretized.inc()
        if self._tracer is not None:
            self._tracer.complete(
                "guard-concretize", "guard", self._tracer.to_us(started),
                (_time.perf_counter() - started) * 1e6,
                variable=name, value=int(value), sim_time=kern.now,
            )
        return True

    def _abort(self, kern, report: BudgetReport) -> None:
        from repro.errors import SimulationAborted

        report.concretized = list(self._concretized)
        report.checkpoint_path = self._try_rescue(kern, report)
        raise SimulationAborted(
            f"resource budget exceeded — {report.describe()}",
            budget_report=report,
        )

    def _try_rescue(self, kern, report: BudgetReport) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        path = os.path.join(self.checkpoint_dir, "abort.ckpt")
        try:
            return self._save(kern, path)
        except Exception:
            return None

    # ------------------------------------------------------------------
    # rolling checkpoints
    # ------------------------------------------------------------------

    def _periodic_checkpoint(self, kern) -> None:
        if (self.checkpoint_every is None
                or self._safe_points % self.checkpoint_every != 0):
            return
        path = os.path.join(self.checkpoint_dir, "latest.ckpt")
        started = _time.perf_counter()
        self._save(kern, path)
        if self._tracer is not None:
            self._tracer.complete(
                "guard-checkpoint", "guard", self._tracer.to_us(started),
                (_time.perf_counter() - started) * 1e6,
                path=path, sim_time=kern.now,
            )

    def _save(self, kern, path: str) -> str:
        from repro.guard.checkpoint import save_checkpoint

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        result = save_checkpoint(kern, path)
        if self._m_checkpoints is not None:
            self._m_checkpoints.inc()
        return result
