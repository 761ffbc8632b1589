"""The batch engine — fan :class:`RunRequest`\\ s across a worker pool.

Controller-side flow:

1. **Compile once.**  Every unique ``(source, top, defines)`` among the
   requests is parsed/elaborated/compiled exactly once, in the
   controller (:class:`DesignCatalog`).  A worker forked after a
   design entered the catalog inherits its compiled ``Program``.  A
   design added later (a serve submission), or any design under a
   start method other than ``fork``, ships as its *pickled program* (a
   pre-compile design image that recompiles deterministically on
   unpickle — see ``Program.__reduce__``) with the first job that needs
   it on that worker.  Workers never receive source text.
2. **Fan out, durably.**  The :class:`Dispatcher` owns a
   :class:`~repro.batch.queue.JobQueue` and a pool of long-lived
   worker processes, one in-flight run per worker under a
   :class:`~repro.batch.queue.Lease`.  A worker death (OOM kill,
   segfault, ``kill -9``) costs exactly the one leased run — it is
   requeued with capped, seeded-jitter exponential backoff while a
   replacement worker spawns; the rest of the batch never notices.  A
   run whose heartbeat goes silent past the policy's ``lease_timeout``
   is escalated stall → kill → requeue.  A run that keeps failing is
   **quarantined** after ``max_attempts`` with its full per-attempt
   failure history attached, so one poison run cannot starve the pool.
3. **Journal.**  Scheduling events and terminal outcomes append to
   ``<out_dir>/journal.jsonl`` (``BATCHJRNL/1``, see
   :mod:`repro.batch.journal`); ``run_batch(..., resume=True)``
   restores journaled terminal runs — after re-verifying request
   fingerprints and the design-catalog hash — and re-executes only the
   rest.
4. **Stream + aggregate.**  Terminal outcomes stream to an
   ``on_result`` callback as they land; after the queue drains, worker
   trace shards merge into one Chrome trace with a lane per worker,
   and an aggregated :class:`~repro.obs.MetricsRegistry` summarises
   the batch (``batch.*`` families, per-run labeled children).

The :class:`Dispatcher` is the one scheduling loop in the package:
:func:`run_batch` feeds it a fixed manifest, and the
:mod:`repro.serve` scheduler feeds it live submissions.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection as _mpconn
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.batch.journal import (
    JOURNAL_NAME, BatchJournal, catalog_sha, read_journal,
    request_fingerprint,
)
from repro.batch.queue import JobQueue, Lease, RetryPolicy
from repro.batch.request import RunRequest
from repro.batch.worker import _worker_main
from repro.errors import BatchError, QuarantinedRunError
from repro.obs import MetricsRegistry, merge_shards
from repro.obs.live import (
    DEFAULT_EVERY, RunHealth, assess_health, assess_lease, read_status,
    scan_status,
)
from repro.sim.kernel import SimStatus

#: Schema tag of :meth:`BatchResult.to_dict` payloads.
BATCH_SCHEMA = "repro.batch.result/1"


@dataclass
class RunOutcome:
    """What happened to one request — success or any flavour of failure."""

    name: str
    status: SimStatus
    #: ``SimResult.to_dict()`` payload (present for OK / ASSERT_FAILED
    #: runs and for aborts that salvaged a partial result).
    result: Optional[dict] = None
    #: Human-readable failure description for non-OK statuses.
    error: Optional[str] = None
    wall_seconds: float = 0.0
    worker_pid: Optional[int] = None
    #: Path of the per-run VCD when the request asked for one.
    vcd_path: Optional[str] = None
    #: Attempts this run consumed (1 = first try succeeded or was
    #: terminal; >1 = the durable queue retried it).
    attempts: int = 1
    #: True when the run exhausted its retry budget — ``status`` then
    #: reflects the *last* attempt and :attr:`failure_history` records
    #: every failed one.
    quarantined: bool = False
    #: Per-attempt failure records ``{"attempt", "kind", "error",
    #: "worker_pid"}`` for every attempt that did not finish cleanly.
    failure_history: List[dict] = field(default_factory=list)
    #: True when this outcome was restored from a batch journal by
    #: ``run_batch(..., resume=True)`` instead of executing now.
    resumed: bool = False
    #: True when the terminal attempt resumed mid-simulation from the
    #: run's rolling REPROCKPT checkpoint instead of restarting at 0.
    resumed_from_checkpoint: bool = False

    @property
    def ok(self) -> bool:
        return self.status is SimStatus.OK

    def quarantine_error(self) -> Optional[QuarantinedRunError]:
        """The structured error for a quarantined run (else None)."""
        if not self.quarantined:
            return None
        return QuarantinedRunError(
            f"run {self.name!r} {self.error}",
            name=self.name, attempts=self.attempts,
            failure_history=list(self.failure_history))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status.value,
            "ok": self.ok,
            "error": self.error,
            "wall_seconds": self.wall_seconds,
            "worker_pid": self.worker_pid,
            "vcd_path": self.vcd_path,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "failure_history": list(self.failure_history),
            "resumed": self.resumed,
            "resumed_from_checkpoint": self.resumed_from_checkpoint,
            "result": self.result,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunOutcome":
        """Rebuild an outcome from a journaled ``to_dict`` payload."""
        try:
            return cls(
                name=payload["name"],
                status=SimStatus(payload["status"]),
                result=payload.get("result"),
                error=payload.get("error"),
                wall_seconds=payload.get("wall_seconds", 0.0),
                worker_pid=payload.get("worker_pid"),
                vcd_path=payload.get("vcd_path"),
                attempts=payload.get("attempts", 1),
                quarantined=payload.get("quarantined", False),
                failure_history=list(payload.get("failure_history", [])),
                resumed_from_checkpoint=payload.get(
                    "resumed_from_checkpoint", False),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BatchError(
                f"malformed journaled outcome: {exc!r}") from exc


@dataclass
class BatchResult:
    """Everything a drained batch produced, in request order."""

    outcomes: List[RunOutcome]
    out_dir: str
    workers: int
    wall_seconds: float
    designs_compiled: int
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Directory of per-run heartbeat status files (``symsim top`` tails
    #: it); None when heartbeats were disabled.
    status_dir: Optional[str] = None
    #: Run names the stall watcher flagged mid-batch (a stalled run may
    #: still finish — this records the observation, not a verdict).
    stalled_runs: List[str] = field(default_factory=list)
    #: Path of the ``BATCHJRNL/1`` journal (None with ``journal=False``).
    journal_path: Optional[str] = None
    #: Attempts beyond each run's first that were actually dispatched.
    retries: int = 0
    #: Times any run went back to the queue (retry + stall-kill).
    requeued: int = 0
    #: Runs that exhausted ``max_attempts`` (sorted).
    quarantined_runs: List[str] = field(default_factory=list)
    #: Runs restored from the journal by ``resume=True`` (sorted).
    resumed_runs: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every run finished with :attr:`SimStatus.OK`."""
        return all(outcome.ok for outcome in self.outcomes)

    def counts(self) -> Dict[str, int]:
        """Run count per status value (only statuses that occurred)."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status.value] = \
                counts.get(outcome.status.value, 0) + 1
        return counts

    def check_quarantine(self) -> None:
        """Raise :class:`~repro.errors.QuarantinedRunError` for the
        first quarantined run, if any (callers that prefer exceptions
        over scanning outcome rows)."""
        for outcome in self.outcomes:
            if outcome.quarantined:
                raise outcome.quarantine_error()

    def __getitem__(self, name: str) -> RunOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(name)

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    def summary(self) -> str:
        """One-paragraph human summary (the CLI's closing lines)."""
        counts = ", ".join(f"{status}={count}"
                           for status, count in sorted(self.counts().items()))
        lines = [
            f"batch: {len(self.outcomes)} runs on {self.workers} workers "
            f"in {self.wall_seconds:.2f}s ({counts}; "
            f"{self.designs_compiled} designs compiled once)"
        ]
        if self.resumed_runs:
            lines[0] += (f" — resumed: {len(self.resumed_runs)} run(s) "
                         "restored from the journal")
        for outcome in self.outcomes:
            mark = "ok " if outcome.ok else outcome.status.value
            line = (f"  [{mark:>13}] {outcome.name} "
                    f"({outcome.wall_seconds:.2f}s)")
            if outcome.resumed:
                line += " [resumed]"
            if outcome.attempts > 1:
                line += f" [attempts={outcome.attempts}]"
            if outcome.quarantined:
                line += " [quarantined]"
            if outcome.error:
                line += f" — {outcome.error}"
            lines.append(line)
        if self.retries or self.quarantined_runs:
            lines.append(
                f"  durability: {self.retries} retr"
                f"{'y' if self.retries == 1 else 'ies'}, "
                f"{self.requeued} requeue(s), "
                f"{len(self.quarantined_runs)} quarantined")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema": BATCH_SCHEMA,
            "ok": self.ok,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "designs_compiled": self.designs_compiled,
            "counts": self.counts(),
            "out_dir": self.out_dir,
            "trace_path": self.trace_path,
            "metrics_path": self.metrics_path,
            "status_dir": self.status_dir,
            "stalled_runs": list(self.stalled_runs),
            "journal_path": self.journal_path,
            "retries": self.retries,
            "requeued": self.requeued,
            "quarantined_runs": list(self.quarantined_runs),
            "resumed_runs": list(self.resumed_runs),
            "runs": [outcome.to_dict() for outcome in self.outcomes],
        }


def _validate(requests: Sequence[RunRequest]) -> None:
    if not requests:
        raise BatchError("batch needs at least one RunRequest")
    seen = set()
    for request in requests:
        if not isinstance(request, RunRequest):
            raise BatchError(
                f"expected a RunRequest, got {type(request).__name__}")
        if request.name in seen:
            raise BatchError(f"duplicate run name {request.name!r} — run "
                             "names key batch artifacts and must be unique")
        seen.add(request.name)
        if request.options.obs is not None:
            raise BatchError(
                f"run {request.name!r} carries an obs bundle; observability "
                "instruments hold open files and cannot cross process "
                "boundaries — use run_batch(trace=...) instead")
        if request.options.heartbeat_callback is not None:
            raise BatchError(
                f"run {request.name!r} sets heartbeat_callback; callables "
                "cannot cross process boundaries — batch runs heartbeat to "
                "per-run status files under <out_dir>/status/ instead")


class DesignCatalog:
    """Compile-once designs, content-addressed by design key.

    :attr:`programs` maps a design fingerprint to its compiled
    ``Program`` — what a forked worker inherits — and :attr:`images`
    to its pickled program, what any other worker receives.
    :meth:`add` compiles a request's design the first time its
    ``(source, top, defines)`` key is seen, unless the caller hands
    over the program it already compiled.
    """

    def __init__(self) -> None:
        self.programs: Dict[str, object] = {}
        self.images: Dict[str, bytes] = {}
        self._by_key: Dict[tuple, str] = {}

    def add(self, request: RunRequest, program=None) -> str:
        """The fingerprint of ``request``'s design, compiled once.

        ``program``, if given, is ``request``'s design already compiled
        by the caller; it is stored instead of compiling again.
        """
        from repro.compile import compile_design
        from repro.frontend import elaborate, parse_source

        key = request.design_key()
        fingerprint = self._by_key.get(key)
        if fingerprint is None:
            source, top, defines = key
            # Content-address the catalog by the full design key, NOT
            # by the structural design_fingerprint(): structure (net
            # table + instruction counts) cannot tell apart designs
            # that differ only in an operator or a constant — exactly
            # the shape of a mutation campaign's mutants — and a
            # collision here would silently run one design in place of
            # another.
            fingerprint = hashlib.sha256(
                repr(key).encode("utf-8")).hexdigest()
            if program is None:
                modules = parse_source(source, defines=dict(defines) or None)
                program = compile_design(elaborate(modules, top=top))
            self.images[fingerprint] = pickle.dumps(program)
            self.programs[fingerprint] = program
            self._by_key[key] = fingerprint
        return fingerprint


def _aggregate_metrics(result: BatchResult) -> MetricsRegistry:
    """Fold per-run payloads into the batch's ``batch.*`` families."""
    registry = result.metrics
    registry.gauge("batch.workers", "pool width").set(result.workers)
    registry.gauge("batch.wall_seconds",
                   "controller wall time for the whole batch") \
        .set(result.wall_seconds)
    registry.counter("batch.designs_compiled",
                     "unique designs compiled (each exactly once)") \
        .inc(result.designs_compiled)
    registry.counter("batch.stalled_runs",
                     "runs flagged by the stall watcher mid-batch") \
        .inc(len(result.stalled_runs))
    registry.counter("batch.retries",
                     "retry attempts dispatched beyond each run's first") \
        .inc(result.retries)
    registry.counter("batch.requeued",
                     "requeue events (failure retries + stall kills)") \
        .inc(result.requeued)
    registry.counter("batch.quarantined",
                     "runs quarantined after exhausting max_attempts") \
        .inc(len(result.quarantined_runs))
    registry.counter("batch.resumed_runs",
                     "runs restored from the batch journal") \
        .inc(len(result.resumed_runs))
    runs = registry.counter("batch.runs", "runs by outcome",
                            labels=("status",))
    attempts = registry.counter("batch.attempts",
                                "attempts consumed per run",
                                labels=("run",))
    wall = registry.gauge("batch.run_wall_seconds",
                          "per-run wall time in its worker",
                          labels=("run",))
    events = registry.counter("batch.run_events_processed",
                              "kernel events processed per run",
                              labels=("run",))
    nodes = registry.gauge("batch.run_bdd_nodes",
                           "final BDD arena size per run", labels=("run",))
    sim_time = registry.gauge("batch.run_sim_time",
                              "final simulation time per run",
                              labels=("run",))
    for outcome in result.outcomes:
        runs.labels(status=outcome.status.value).inc()
        attempts.labels(run=outcome.name).inc(outcome.attempts)
        wall.labels(run=outcome.name).set(outcome.wall_seconds)
        if outcome.result is not None:
            metrics = outcome.result.get("metrics", {})
            events.labels(run=outcome.name).inc(
                metrics.get("events_processed", 0))
            nodes.labels(run=outcome.name).set(
                metrics.get("bdd", {}).get("nodes", 0))
            sim_time.labels(run=outcome.name).set(
                outcome.result.get("time", 0))
    return registry


def _watch_stalls(
    status_dir: str,
    in_flight: Sequence[str],
    stalled_seen: set,
    stall_after: float,
    on_stall: Optional[Callable[[RunHealth], None]],
) -> None:
    """One poll of the status directory; fires ``on_stall`` once per run.

    A run is stalled when its latest heartbeat still says ``running``
    but is older than ``stall_after`` seconds — the worker is wedged in
    one giant step, thrashing in the BDD, or dead without a terminal
    record.  This is the observability half of hang isolation: the
    in-kernel guard (``ResourceBudgets.hang_*``) kills a wedged run
    from the inside; the watcher spots it from the outside and tells
    the controller *which* run to blame before the pool drains.  The
    engine calls this on **every** scheduling iteration — gating it on
    quiet poll windows would let a steady trickle of completions starve
    stall detection forever.
    """
    pending_names = set(in_flight)
    for health in assess_health(scan_status([status_dir]),
                                stall_after=stall_after):
        if not health.stalled or health.name in stalled_seen:
            continue
        if health.name not in pending_names:
            continue  # already reaped; terminal record just lagged
        stalled_seen.add(health.name)
        if on_stall is not None:
            on_stall(health)


# ---------------------------------------------------------------------
# the worker pool: one process per slot, one leased run per process
# ---------------------------------------------------------------------


class _Worker:
    """One pool slot: a process, its pipes, its current lease, and the
    designs whose programs it already holds."""

    __slots__ = ("id", "process", "task_send", "result_recv", "lease",
                 "designs", "controller_killed")

    def __init__(self, worker_id: int, ctx, init_args: tuple,
                 siblings: Sequence["_Worker"],
                 programs: Dict[str, object]) -> None:
        self.id = worker_id
        task_recv, self.task_send = ctx.Pipe(duplex=False)
        self.result_recv, result_send = ctx.Pipe(duplex=False)
        # A forked child inherits every pipe end the controller holds:
        # its own controller-side ends and those of each live sibling.
        # The child closes them first thing, so the controller's copies
        # are the only ones and a dead controller reads as EOF.  It
        # also inherits the catalog's compiled programs as they stand
        # now; nothing is pickled.  Under any other start method the
        # programs would be pickled, which recompiles them, so they
        # ship as images with the first job that needs them instead.
        inherited: tuple = ()
        if ctx.get_start_method() == "fork":
            inherited = tuple(
                conn for worker in (*siblings, self)
                for conn in (worker.task_send, worker.result_recv))
            programs = dict(programs)
        else:
            programs = {}
        self.process = ctx.Process(
            target=_worker_main,
            args=(task_recv, result_send, inherited, programs) + init_args,
            daemon=True, name=f"repro-batch-w{worker_id}")
        self.process.start()
        # the controller holds only its own pipe ends
        task_recv.close()
        result_send.close()
        self.lease: Optional[Lease] = None
        self.designs: set = set(programs)
        self.controller_killed = False

    def alive(self) -> bool:
        return self.process.is_alive()

    def close(self) -> None:
        for conn in (self.task_send, self.result_recv):
            try:
                conn.close()
            except OSError:
                pass


class _WorkerPool:
    """Fixed-width pool of :class:`_Worker` slots with respawn.

    ``programs`` is the catalog's live fingerprint → ``Program`` dict;
    each worker starts with the programs it holds when the worker
    spawns (or respawns).
    """

    def __init__(self, width: int, init_args: tuple,
                 programs: Dict[str, object]) -> None:
        self._ctx = multiprocessing.get_context()
        self._init_args = init_args
        self._programs = programs
        self._next_id = 0
        self.width = width
        self.workers: List[_Worker] = []

    def spawn(self, count: int) -> None:
        for _ in range(count):
            if len(self.workers) >= self.width:
                return
            worker = _Worker(self._next_id, self._ctx, self._init_args,
                             self.workers, self._programs)
            self._next_id += 1
            self.workers.append(worker)

    def idle(self) -> List[_Worker]:
        return [worker for worker in self.workers
                if worker.lease is None and worker.alive()]

    def wait(self, timeout: Optional[float]) -> List[_Worker]:
        """Block until a worker has a result or died; returns workers
        whose result pipe is readable (deaths are discovered by the
        caller scanning :meth:`dead`)."""
        objects = []
        by_object = {}
        for worker in self.workers:
            objects.append(worker.result_recv)
            by_object[worker.result_recv] = worker
            objects.append(worker.process.sentinel)
            by_object[worker.process.sentinel] = worker
        if not objects:
            if timeout:
                time.sleep(min(timeout, 0.05))
            return []
        ready = _mpconn.wait(objects, timeout)
        seen = []
        for obj in ready:
            worker = by_object[obj]
            if obj is worker.result_recv and worker not in seen:
                seen.append(worker)
        return seen

    def dead(self) -> List[_Worker]:
        return [worker for worker in self.workers if not worker.alive()]

    def reap(self, worker: _Worker) -> None:
        """Forget a dead worker (close pipes, join the corpse)."""
        worker.close()
        worker.process.join(timeout=1.0)
        self.workers.remove(worker)

    def kill(self, worker: _Worker) -> None:
        """SIGKILL a worker (lease-timeout escalation)."""
        worker.controller_killed = True
        try:
            worker.process.kill()
        except (OSError, ValueError):
            pass

    def shutdown(self) -> None:
        for worker in self.workers:
            if worker.alive() and worker.lease is None:
                try:
                    worker.task_send.send(None)
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.perf_counter() + 5.0
        for worker in self.workers:
            worker.process.join(
                timeout=max(deadline - time.perf_counter(), 0.1))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=1.0)
            worker.close()
        self.workers.clear()


# ---------------------------------------------------------------------
# the controller
# ---------------------------------------------------------------------


class Dispatcher:
    """The scheduling loop: dispatch, wait, reap, retry, escalate.

    Owns the worker pool, the leases of ``queue``, its
    :class:`~repro.batch.queue.RetryPolicy` (requeue with backoff,
    quarantine, lease-timeout kill) and the flag-only stall watch, and
    writes every scheduling event and terminal outcome to ``journal``.
    Feeders put runs into ``queue`` and their designs into ``catalog``
    (a :class:`DesignCatalog`).  A worker starts with the programs the
    catalog holds when it spawns; any other design's image ships with
    the first job that needs it on that worker.  Terminal outcomes go
    to ``on_result``.

    :meth:`run` holds ``lock`` except while it is blocked waiting on
    the pool, so a feeder thread may add runs under the same lock;
    ``poll`` caps that wait so such additions are noticed.  With no
    timer armed and no ``poll`` the wait blocks until a worker reports
    or dies.
    """

    def __init__(self, queue: JobQueue, catalog: DesignCatalog,
                 workers: int, out_dir: str, trace: bool,
                 heartbeat_every: Optional[int],
                 journal: Optional[BatchJournal] = None,
                 on_result: Optional[Callable[[RunOutcome], None]] = None,
                 stall_after: Optional[float] = None,
                 on_stall: Optional[Callable[[RunHealth], None]] = None,
                 lock: Optional[threading.Lock] = None,
                 poll: Optional[float] = None) -> None:
        self.queue = queue
        self.policy = queue.policy
        self.images = catalog.images
        self.journal = journal
        self.on_result = on_result
        self.stall_after = stall_after
        self.on_stall = on_stall
        self.lock = lock if lock is not None else threading.Lock()
        self.poll = poll
        self.status_dir = os.path.join(out_dir, "status") \
            if heartbeat_every else None
        self.pool = _WorkerPool(
            workers, (out_dir, trace, heartbeat_every or None),
            catalog.programs)
        #: worker pid -> (trace shard path, shard t0) for merging.
        self.shards: Dict[int, Tuple[str, float]] = {}
        #: Runs the stall watcher or the lease timeout flagged.
        self.stalled: set = set()

    def run(self, done: Callable[[], bool]) -> None:
        """Schedule until ``done()`` (checked under the lock)."""
        with self.lock:
            while not done():
                self._top_up()
                self._dispatch()
                timeout = self._timeout()
                self.lock.release()
                try:
                    ready = self.pool.wait(timeout)
                finally:
                    self.lock.acquire()
                for worker in ready:
                    self._reap_result(worker)
                self._reap_dead()
                # flag-only stall watch — every iteration, never
                # starved by a steady trickle of completions
                if self.status_dir is not None \
                        and self.stall_after is not None:
                    _watch_stalls(self.status_dir,
                                  self.queue.pending_names(),
                                  self.stalled, self.stall_after,
                                  self.on_stall)
                if self.policy.lease_timeout is not None:
                    self._escalate()

    def close(self) -> None:
        self.pool.shutdown()

    def _top_up(self) -> None:
        """Keep one worker per pending run, up to the pool width."""
        want = min(self.pool.width, self.queue.pending())
        if len(self.pool.workers) < want:
            try:
                self.pool.spawn(want - len(self.pool.workers))
            except Exception as exc:  # pool start is controller-side
                raise BatchError(
                    f"could not start worker pool: {exc}") from exc

    def _dispatch(self) -> None:
        for worker in self.pool.idle():
            lease = self.queue.lease(worker.id, worker.process.pid or -1)
            if lease is None:
                break
            job = self.queue.job(lease.name)
            image = None if job.fingerprint in worker.designs \
                else self.images[job.fingerprint]
            try:
                worker.task_send.send(
                    (job.request, job.fingerprint, lease.attempt, image))
            except (BrokenPipeError, OSError):
                # the worker died between polls; put the run back
                # unblamed — the death itself is reaped later
                self.queue.release(lease.name)
                continue
            worker.designs.add(job.fingerprint)
            worker.lease = lease
            if self.journal is not None:
                self.journal.attempt(lease.name, lease.attempt, "start",
                                     worker_pid=lease.worker_pid)

    def _timeout(self) -> Optional[float]:
        timeouts = []
        if self.poll is not None:
            timeouts.append(self.poll)
        if self.stall_after is not None:
            timeouts.append(min(self.stall_after / 2.0, 2.0))
        if self.policy.lease_timeout is not None:
            timeouts.append(min(self.policy.lease_timeout / 2.0, 2.0))
        delay = self.queue.next_delay()
        if delay is not None:
            timeouts.append(max(delay, 0.01))
        return min(timeouts) if timeouts else None

    def _take_lease(self, worker: _Worker) -> Optional[Lease]:
        """Clear the worker's lease; return it if the queue still holds
        it (a cancelled or escalated run's late report is stray)."""
        lease, worker.lease = worker.lease, None
        if lease is None or self.queue.leases.get(lease.name) is not lease:
            return None
        return lease

    def _reap_result(self, worker: _Worker) -> None:
        try:
            raw = worker.result_recv.recv()
        except (EOFError, OSError):
            return  # died after readiness; reaped as a dead worker
        lease = self._take_lease(worker)
        if lease is None:
            return
        if raw.get("shard_path") is not None:
            self.shards[raw["worker_pid"]] = (
                raw["shard_path"], raw["t0_unix_us"])
        outcome = RunOutcome(
            name=raw["name"],
            status=SimStatus(raw["status"]),
            result=raw["result"],
            error=raw["error"],
            wall_seconds=raw["wall_seconds"],
            worker_pid=raw["worker_pid"],
            vcd_path=raw["vcd_path"],
            attempts=lease.attempt,
            resumed_from_checkpoint=raw.get(
                "resumed_from_checkpoint", False),
        )
        if outcome.status.value in self.policy.retry_statuses:
            self._fail(outcome.name, "status",
                       raw["error"] or outcome.status.value,
                       raw["worker_pid"], outcome)
        else:
            self._finalize(outcome)

    def _reap_dead(self) -> None:
        """Requeue exactly the runs dead workers held."""
        for worker in self.pool.dead():
            lease = self._take_lease(worker)
            if lease is not None and not worker.controller_killed:
                exitcode = worker.process.exitcode
                self._fail(lease.name, "worker-lost",
                           f"worker lost: pid {lease.worker_pid} died "
                           f"(exit {exitcode}) holding attempt "
                           f"{lease.attempt}",
                           lease.worker_pid, None)
            self.pool.reap(worker)

    def _escalate(self) -> None:
        """Lease-timeout escalation: stall -> kill -> requeue."""
        now_unix = time.time()
        now_mono = time.perf_counter()
        for worker in list(self.pool.workers):
            lease = worker.lease
            if lease is None or not worker.alive():
                continue
            record = read_status(os.path.join(
                self.status_dir, f"{lease.name}.json")) \
                if self.status_dir is not None else None
            health = assess_lease(
                lease.name, lease.worker_pid,
                lease.age(now_mono), record,
                kill_after=self.policy.lease_timeout,
                now_unix=now_unix,
                started_unix=lease.started_unix)
            if not health.expired:
                continue
            worker.lease = None
            self.pool.kill(worker)
            self.stalled.add(lease.name)
            heartbeat_age = "n/a" if health.heartbeat_age is None \
                else f"{health.heartbeat_age:.1f}s"
            self._fail(lease.name, "stall-kill",
                       f"lease expired after {health.lease_age:.1f}s "
                       f"(heartbeat age {heartbeat_age}); "
                       f"worker pid {lease.worker_pid} killed",
                       lease.worker_pid, None)

    def _finalize(self, outcome: RunOutcome) -> None:
        self.queue.complete(outcome.name, outcome)
        if self.journal is not None:
            self.journal.terminal(outcome.name, outcome.to_dict())
        if self.on_result is not None:
            self.on_result(outcome)

    def _fail(self, name: str, kind: str, error: str,
              worker_pid: Optional[int],
              last: Optional[RunOutcome]) -> None:
        """Route a retryable failure; quarantine on exhaustion."""
        disposition = self.queue.fail(name, kind, error, worker_pid)
        if disposition["action"] == "requeue":
            if self.journal is not None:
                self.journal.attempt(name, disposition["attempt"],
                                     "requeue", failure_kind=kind,
                                     error=error, worker_pid=worker_pid,
                                     delay=disposition["delay"])
            return
        outcome = last if last is not None else RunOutcome(
            name=name, status=SimStatus.ABORTED, error=error,
            worker_pid=worker_pid)
        outcome.quarantined = True
        outcome.error = (f"quarantined after "
                         f"{disposition['attempt']} attempt(s): {error}")
        if self.journal is not None:
            self.journal.attempt(name, disposition["attempt"],
                                 "quarantine", failure_kind=kind,
                                 error=error, worker_pid=worker_pid)
        self._finalize(outcome)


def run_batch(
    requests: Sequence[RunRequest],
    workers: int = 1,
    out_dir: Optional[str] = None,
    on_result: Optional[Callable[[RunOutcome], None]] = None,
    trace: bool = True,
    write_metrics: bool = True,
    heartbeat_every: Optional[int] = DEFAULT_EVERY,
    stall_after: Optional[float] = None,
    on_stall: Optional[Callable[[RunHealth], None]] = None,
    retry: Optional[RetryPolicy] = None,
    journal: bool = True,
    resume: bool = False,
    catalog: Optional[DesignCatalog] = None,
) -> BatchResult:
    """Run every request on a durable pool of ``workers`` processes.

    ``on_result`` (if given) is called in the controller with each
    *terminal* :class:`RunOutcome` as it lands — completion order, not
    request order; the returned :class:`BatchResult` restores request
    order.  ``trace=True`` gives each worker a JSONL shard and merges
    them into ``<out_dir>/trace.json`` with one Chrome lane per worker.
    ``heartbeat_every`` makes each run emit a live status file to
    ``<out_dir>/status/<name>.json`` every N safe points (``symsim
    top`` tails these; pass ``None``/0 to disable).  ``stall_after``
    (seconds) turns on the flag-only stall watcher: runs whose
    heartbeat goes quiet are reported once each through ``on_stall``
    and in :attr:`BatchResult.stalled_runs`.

    ``retry`` is the :class:`~repro.batch.queue.RetryPolicy` governing
    leases, retries, backoff, quarantine and the (optional)
    lease-timeout kill escalation; the default policy retries
    infrastructure failures (worker death, stall kills) up to 3
    attempts and treats run-level statuses as terminal.  ``journal``
    appends scheduling events and terminal outcomes to
    ``<out_dir>/journal.jsonl`` (``BATCHJRNL/1``); ``resume=True``
    reads that journal, re-verifies request fingerprints and the
    design-catalog hash, restores journaled terminal runs, and
    executes only the rest.

    ``catalog`` may carry designs the caller has already compiled
    (:meth:`DesignCatalog.add` with a ``program``); they are not
    compiled again.

    Individual run failures never raise; :class:`BatchError` covers
    controller-side problems only (bad requests, pool startup, a
    journal that does not match the manifest).
    """
    _validate(requests)
    if workers < 1:
        raise BatchError(f"workers must be >= 1, got {workers}")
    if stall_after is not None and not heartbeat_every:
        raise BatchError("stall_after needs heartbeats — "
                         "set heartbeat_every")
    if resume and not journal:
        raise BatchError("resume=True needs the journal — "
                         "drop journal=False")
    if resume and out_dir is None:
        raise BatchError("resume=True needs the out_dir of the "
                         "journaled batch")
    policy = retry if retry is not None else RetryPolicy()
    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="repro-batch-")
    else:
        os.makedirs(out_dir, exist_ok=True)

    wall_start = time.perf_counter()
    if catalog is None:
        catalog = DesignCatalog()
    by_run = {request.name: catalog.add(request) for request in requests}
    fingerprints = {request.name: request_fingerprint(request,
                                                      by_run[request.name])
                    for request in requests}
    cat_sha = catalog_sha(catalog.images)

    journal_path = os.path.join(out_dir, JOURNAL_NAME) if journal else None
    restored: Dict[str, RunOutcome] = {}
    jrnl: Optional[BatchJournal] = None
    if resume:
        state = read_journal(journal_path)
        state.verify(fingerprints, cat_sha)
        for name, payload in state.terminal.items():
            outcome = RunOutcome.from_dict(payload)
            outcome.resumed = True
            restored[name] = outcome
        jrnl = BatchJournal.reopen(journal_path, len(restored))
    elif journal:
        jrnl = BatchJournal.create(journal_path, fingerprints, cat_sha)

    queue = JobQueue(
        [(request, by_run[request.name]) for request in requests
         if request.name not in restored],
        policy)
    dispatcher = Dispatcher(
        queue, catalog, workers, out_dir, trace, heartbeat_every,
        journal=jrnl, on_result=on_result, stall_after=stall_after,
        on_stall=on_stall)
    try:
        dispatcher.run(queue.finished)
    finally:
        dispatcher.close()
        if jrnl is not None:
            jrnl.close()

    outcomes = dict(restored)
    outcomes.update(queue.outcomes)
    result = BatchResult(
        outcomes=[outcomes[request.name] for request in requests],
        out_dir=out_dir,
        workers=workers,
        wall_seconds=time.perf_counter() - wall_start,
        designs_compiled=len(catalog.images),
        status_dir=dispatcher.status_dir,
        stalled_runs=sorted(dispatcher.stalled),
        journal_path=journal_path,
        retries=queue.retries,
        requeued=queue.requeued,
        quarantined_runs=sorted(queue.quarantined),
        resumed_runs=sorted(restored),
    )
    if dispatcher.shards:
        result.trace_path = os.path.join(out_dir, "trace.json")
        merge_shards(dispatcher.shards, result.trace_path)
    _aggregate_metrics(result)
    if write_metrics:
        result.metrics_path = os.path.join(out_dir, "metrics.json")
        result.metrics.write_json(result.metrics_path)
    return result
