"""The stratified, priority-ordered event queue with accumulation.

The queue implements two orthogonal orderings:

* IEEE-1364 stratification: within one simulation time, ACTIVE events
  run before INACTIVE (``#0``) events, which run before non-blocking
  update events, which run before the MONITOR region (``$monitor``,
  ``$strobe`` and the paper's end-of-step ``$assert`` checks).
* the paper's priority discipline (Section 4c): within the ACTIVE
  region, events carry an integer priority; higher priorities run
  first, so events of nested control statements complete (and merge)
  before events of enclosing statements — depth-first processing.

*Event accumulation* (Fig. 8) is the ``schedule`` fast path: an event
with the same (time, region, priority, process, label) as a pending
event is merged by OR-ing the control expressions instead of being
enqueued.  :class:`repro.sim.kernel.SimOptions.accumulation` selects
the Table-1 levels: ``FULL`` (merge + accumulation events),
``QUEUE_MERGE_ONLY`` (merge, but join instructions fall through) and
``NONE`` (every schedule call enqueues a fresh event).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.compile.instructions import AccumulationMode, CompiledProcess

REGION_ACTIVE = 0
REGION_INACTIVE = 1
REGION_NBA = 2
REGION_MONITOR = 3


@dataclass(slots=True)
class Event:
    """One scheduled event.

    ``kind`` is ``'proc'`` (resume a process frame at label ``pc`` with
    ``control``/``prio``), ``'nba'`` (apply a captured non-blocking
    update), ``'assign'`` (re-evaluate continuous assign ``index``) or
    ``'drive'`` (commit a delayed continuous-assign value).  ``key`` is
    the event's merge-table key while it is queued (:func:`merge_key`).
    """

    time: int
    region: int
    prio: int
    kind: str
    process: Optional[CompiledProcess] = None
    pc: int = 0
    control: int = 0
    apply: Optional[Callable] = None
    index: int = -1
    payload: Any = None
    key: Optional[tuple] = None


def merge_key(event: Event) -> Optional[tuple]:
    """The key under which ``event`` merges with a pending event (Fig. 8).

    Process resumes merge per (time, region, priority, process, label);
    continuous-assign re-evaluations per (time, assign); NBA and drive
    events never merge.
    """
    if event.kind == "proc":
        return ("proc", event.time, event.region, event.prio,
                event.process.index, event.pc)
    if event.kind == "assign":
        return ("assign", event.time, event.index)
    return None


class Scheduler:
    """Heap-backed stratified queue with accumulation merging."""

    def __init__(self, mgr, mode: AccumulationMode,
                 depth_first: bool = True, obs=None) -> None:
        self.mgr = mgr
        self.mode = mode
        #: Optional :class:`repro.obs.Observability` bundle; when set,
        #: every accumulation merge is reported via ``obs.on_merge``
        #: (trace instant + profiler merge attribution + counter).
        self.obs = obs
        #: When False, the paper's priority discipline (Section 4c) is
        #: ablated: ACTIVE events run FIFO regardless of priority, so
        #: inner-statement paths no longer complete (and merge) before
        #: enclosing statements process.  Semantics are unaffected —
        #: only merge opportunity is lost.
        self.depth_first = depth_first
        self._heap: List[Tuple[int, int, int, int, Event]] = []
        self._pending: Dict[tuple, Event] = {}
        self._seq = 0
        self.scheduled = 0
        self.merged = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> bool:
        """Enqueue ``event``; returns True if it merged into a pending one.

        Merging ORs the ``control`` expressions (Fig. 8); ``assign``
        events are control-free, so merging is pure deduplication.
        """
        if self.mode is not AccumulationMode.NONE:
            key = merge_key(event)
            if key is not None:
                existing = self._pending.get(key)
                if existing is not None:
                    if event.kind == "proc":
                        existing.control = self.mgr.or_(
                            existing.control, event.control
                        )
                    self.merged += 1
                    if self.obs is not None:
                        self.obs.on_merge(event)
                    return True
                event.key = key
                self._pending[key] = event
        self._seq += 1
        self.scheduled += 1
        rank = -event.prio if self.depth_first else 0
        heapq.heappush(
            self._heap,
            (event.time, event.region, rank, self._seq, event),
        )
        return False

    def pop(self) -> Event:
        """Remove and return the next event in (time, region, -prio) order."""
        event = heapq.heappop(self._heap)[4]
        if event.key is not None:
            self._pending.pop(event.key, None)
        return event

    def peek_time(self) -> Optional[int]:
        """Time of the next event, or None when the queue is empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    # ------------------------------------------------------------------
    # BDD root-provider protocol (GC / in-place reordering)
    # ------------------------------------------------------------------

    def bdd_roots(self):
        """Every BDD node id held by a queued event."""
        for _, _, _, _, event in self._heap:
            kind = event.kind
            if kind == "proc":
                yield event.control
            elif kind == "nba":
                yield from event.apply.bdd_roots()
            elif kind == "drive" and event.payload is not None:
                for a, b in event.payload.bits:
                    yield a
                    yield b

    def bdd_remap(self, lookup, level_map) -> None:
        """Rewrite queued events after an arena compaction/reorder.

        ``_pending`` aliases the same :class:`Event` objects as the
        heap, so rewriting the heap entries covers both.
        """
        for _, _, _, _, event in self._heap:
            kind = event.kind
            if kind == "proc":
                event.control = lookup(event.control)
            elif kind == "nba":
                event.apply.bdd_remap(lookup)
            elif kind == "drive" and event.payload is not None:
                event.payload = event.payload.remap(lookup)

    def peek_region(self) -> Optional[int]:
        if not self._heap:
            return None
        return self._heap[0][1]

    # ------------------------------------------------------------------
    # checkpoint support (repro.guard)
    # ------------------------------------------------------------------

    def snapshot_events(self) -> List[Event]:
        """The queued events in exact pop order.

        Heap entries are ``(time, region, rank, seq, event)`` with a
        unique ``seq``, so sorting them *is* the pop order — the
        checkpoint layer serializes events in this order and
        :meth:`restore_events` replays it, giving a resumed run the
        identical event schedule.
        """
        return [entry[4] for entry in sorted(self._heap)]

    def restore_events(self, events: List[Event]) -> None:
        """Rebuild the queue from a :meth:`snapshot_events` list.

        Events are re-sequenced in list order, which preserves the
        original pop order; the merge table is rebuilt so accumulation
        keeps working on the resumed run.
        """
        self._heap.clear()
        self._pending.clear()
        self._seq = 0
        merging = self.mode is not AccumulationMode.NONE
        for event in events:
            self._seq += 1
            rank = -event.prio if self.depth_first else 0
            heapq.heappush(
                self._heap,
                (event.time, event.region, rank, self._seq, event),
            )
            if merging:
                key = event.key = merge_key(event)
                if key is not None:
                    self._pending[key] = event
