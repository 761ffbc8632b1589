"""The serve scheduler: a multi-tenant feeder of the batch dispatcher.

This is the controller side of the :mod:`repro.serve` front door.  It
runs the same :class:`~repro.batch.engine.Dispatcher` that drains
``symsim batch`` — worker pool, leases, retries, lease-timeout kills,
journal — on a controller thread, and feeds it submissions as they
arrive over HTTP instead of a fixed manifest:

* **Admission** (:meth:`Scheduler.submit`, called from HTTP handler
  threads): parse the body through :func:`repro.api.parse_run`, clamp
  the request's guard budgets to the tenant's :class:`TenantQuota`
  ceilings, compile the design into the shared
  :class:`~repro.batch.engine.DesignCatalog` (once per unique design),
  fingerprint the request, and either serve it from the result cache,
  coalesce it onto an identical in-flight run, or queue it.  The
  catalog keeps each compiled ``Program`` for the server's life: the
  pool forks at :meth:`Scheduler.start`, so a running worker receives
  a submitted design as a pickled image and recompiles it once, while
  a worker respawned after a death inherits every program admitted so
  far.
* **Fairness**: the dispatcher leases through a tenant round-robin
  ``next_ready`` hook — a tenant burst-submitting hundreds of runs
  delays its own runs, not its neighbours'.  Per-tenant
  ``max_in_flight`` caps pool share; ``max_pending`` bounds queue
  depth (:class:`QuotaExceeded` → HTTP 429 with ``Retry-After``).
* **Dedup**: the result cache is keyed by the PR 8 *request
  fingerprint* — design content hash + seed + every semantic option
  (:func:`repro.batch.journal.request_fingerprint`), so a resubmission
  differing only in operational knobs (``heartbeat_every``, paths,
  ``compile_tier``) still hits.  Hits are served **byte-identically**:
  the cold run's rendered outcome payload is stored and replayed
  verbatim (the ``cached`` marker lives in the run *status* and the
  ``X-Serve-Cache`` header, never inside the payload).  Only verdict
  statuses (``ok``, ``assert_failed``) are cached — aborts, hangs and
  quarantines may be environmental and always re-execute.
* **Durability**: the dispatcher applies the whole
  :class:`~repro.batch.queue.RetryPolicy` — worker deaths and
  lease-timeout kills requeue with backoff until ``max_attempts``,
  then quarantine.  Submissions, attempts and terminal outcomes
  append to ``<out_dir>/journal.jsonl`` in the ``BATCHJRNL/1``
  vocabulary (see :mod:`repro.batch.journal`).
* **Drain**: :meth:`Scheduler.close` stops admission, cancels queued
  runs (journaled as ``cancelled``), lets in-flight runs finish to
  journaled completion, then shuts the pool down.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import parse_run
from repro.batch.engine import DesignCatalog, Dispatcher, RunOutcome
from repro.batch.journal import (
    JOURNAL_NAME, BatchJournal, catalog_sha, request_fingerprint,
)
from repro.batch.queue import JobQueue, RetryPolicy
from repro.errors import ReproError
from repro.guard import ResourceBudgets
from repro.obs import MetricsRegistry
from repro.obs.live import DEFAULT_EVERY, read_status, scan_status

#: Longest the controller thread waits on the pool before it looks
#: for new submissions (they arrive from other threads).
POLL_SECONDS = 0.1

#: Statuses whose outcomes enter the result cache.  Verdicts only:
#: an abort/hang/quarantine may be environmental (memory pressure,
#: infrastructure) and must re-execute on resubmission.
CACHEABLE_STATUSES = frozenset({"ok", "assert_failed"})


class QuotaExceeded(ReproError):
    """A tenant's queue is full — HTTP 429 with ``Retry-After``."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServeUnavailable(ReproError):
    """The scheduler is draining/closed — HTTP 503."""


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission limits and guard-budget ceilings."""

    #: Pool slots this tenant may hold simultaneously.
    max_in_flight: int = 2
    #: Non-terminal runs (queued + running) this tenant may have before
    #: submissions are rejected with 429.
    max_pending: int = 16
    #: Ceilings clamped onto every submission's
    #: :class:`~repro.guard.ResourceBudgets` — a tenant may ask for
    #: *less* than its ceiling, never more.  None leaves requests
    #: unclamped.
    budgets: Optional[ResourceBudgets] = None

    def clamp(self, options):
        """Options with budgets folded under this tenant's ceilings.

        Field-wise ``min`` with None-is-unlimited semantics; a request
        without budgets inherits the ceilings outright.  Clamping
        happens *before* fingerprinting, so dedup keys on the budgets
        a run actually executes under.
        """
        if self.budgets is None:
            return options
        requested = options.budgets
        fields = {}
        for name in ("wall_seconds", "max_live_nodes", "max_rss_mb",
                     "max_events"):
            ceiling = getattr(self.budgets, name)
            asked = getattr(requested, name) if requested is not None \
                else None
            if ceiling is None:
                fields[name] = asked
            elif asked is None:
                fields[name] = ceiling
            else:
                fields[name] = min(asked, ceiling)
        asked_conc = requested.max_concretizations \
            if requested is not None else self.budgets.max_concretizations
        fields["max_concretizations"] = min(
            asked_conc, self.budgets.max_concretizations)
        return dataclasses.replace(options,
                                   budgets=ResourceBudgets(**fields))


@dataclass
class ServeConfig:
    """Everything :func:`repro.serve.serve_app` needs to boot."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Worker pool width (same semantics as ``run_batch(workers=...)``).
    workers: int = 1
    #: Artifact root (runs/, status/, journal.jsonl); a temp dir when
    #: None.
    out_dir: Optional[str] = None
    #: Heartbeat cadence for per-run status files (None/0 disables).
    heartbeat_every: Optional[int] = DEFAULT_EVERY
    #: Give workers JSONL trace shards (off by default for a service).
    trace: bool = False
    #: Lease retry/quarantine policy (the batch default when None).
    retry: Optional[RetryPolicy] = None
    #: Quota for tenants absent from :attr:`quotas`.
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    #: Per-tenant quota overrides.
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    #: Append submissions/outcomes to ``<out_dir>/journal.jsonl``.
    journal: bool = True

    def quota(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)


@dataclass
class _Run:
    """Controller-side state of one submission."""

    id: str
    tenant: str
    #: Request fingerprint — keys the result cache / coalescing.
    fingerprint: str
    #: queued (waiting or on a worker) | done | cancelled
    state: str = "queued"
    cached: bool = False
    #: Run id this submission coalesced onto (identical in-flight run).
    primary: Optional[str] = None
    #: Terminal ``RunOutcome.to_dict()`` payload.
    outcome: Optional[dict] = None
    #: The exact bytes ``GET /v1/runs/<id>/result`` serves — stored
    #: once at completion so cache hits replay them verbatim.
    result_bytes: Optional[bytes] = None


class Scheduler:
    """See the module docstring.  Thread-safe; HTTP handler threads
    call :meth:`submit`/:meth:`snapshot`/:meth:`wait_done`, one
    controller thread runs the dispatcher."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.out_dir = self.config.out_dir or tempfile.mkdtemp(
            prefix="repro-serve-")
        os.makedirs(self.out_dir, exist_ok=True)

        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._runs: Dict[str, _Run] = {}
        self._seq = itertools.count(1)
        #: round-robin pointer over tenant names.
        self._rr = 0
        #: request fingerprint -> cached result payload bytes / outcome.
        self._cache: Dict[str, bytes] = {}
        self._cache_outcome: Dict[str, dict] = {}
        #: request fingerprint -> id of the live primary run.
        self._primary_by_fp: Dict[str, str] = {}
        #: primary run id -> coalesced follower run ids.
        self._followers: Dict[str, List[str]] = {}
        self._catalog = DesignCatalog()
        self._compile_lock = threading.Lock()
        self._stopping = False
        self._closed = False

        self._journal: Optional[BatchJournal] = None
        if self.config.journal:
            self._journal = BatchJournal.create(
                os.path.join(self.out_dir, JOURNAL_NAME), {},
                catalog_sha({}))
        self._queue = JobQueue([], self.config.retry,
                               next_ready=self._next_ready)
        self._dispatcher = Dispatcher(
            self._queue, self._catalog, self.config.workers,
            self.out_dir, self.config.trace, self.config.heartbeat_every,
            journal=self._journal, on_result=self._on_result,
            lock=self._lock, poll=POLL_SECONDS)
        self.status_dir = self._dispatcher.status_dir
        self._thread = threading.Thread(
            target=self._dispatcher.run,
            args=(lambda: self._stopping and self._queue.finished(),),
            name="repro-serve-scheduler", daemon=True)

        self.metrics = MetricsRegistry()
        m = self.metrics
        self._m_submitted = m.counter(
            "serve.submitted", "accepted submissions", labels=("tenant",))
        self._m_rejected = m.counter(
            "serve.rejected", "rejected submissions",
            labels=("tenant", "reason"))
        self._m_completed = m.counter(
            "serve.completed", "terminal runs by status",
            labels=("status",))
        self._m_cache_hits = m.counter(
            "serve.cache.hits", "submissions served from the result cache")
        self._m_cache_misses = m.counter(
            "serve.cache.misses", "submissions that executed cold")
        self._m_cache_coalesced = m.counter(
            "serve.cache.coalesced",
            "submissions coalesced onto an identical in-flight run")
        self._m_retries = m.counter(
            "serve.retries", "re-dispatched attempts after failures")
        self._m_quarantined = m.counter(
            "serve.quarantined", "runs quarantined after max_attempts")
        self._m_cancelled = m.counter(
            "serve.cancelled", "queued runs cancelled by shutdown")
        queue = self._queue
        m.gauge("serve.queued", "runs waiting for a slot").set_function(
            lambda: queue.pending() - len(queue.leases))
        m.gauge("serve.in_flight", "runs on workers").set_function(
            lambda: len(queue.leases))

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "Scheduler":
        # fork the whole pool now, before any HTTP handler thread exists
        self._dispatcher.pool.spawn(self.config.workers)
        self._thread.start()
        return self

    def close(self, drain: bool = True) -> None:
        """Stop admission, drain (or abandon) in-flight runs, shut the
        pool down, close the journal.  Idempotent."""
        with self._cv:
            if self._closed:
                return
            self._stopping = True
            # queued runs (and followers of queued primaries) cancel now
            for run in self._runs.values():
                if run.state == "queued" and (
                        not drain or run.id not in self._queue.leases):
                    self._cancel_locked(run)
            self._cv.notify_all()
        if self._thread.is_alive():
            self._thread.join(timeout=60)
        self._dispatcher.close()
        with self._cv:
            self._closed = True
            if self._journal is not None:
                self._journal.append({"kind": "close"})
                self._journal.close()
                self._journal = None
            self._cv.notify_all()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- admission (HTTP handler threads) ------------------------------

    def submit(self, spec: dict) -> dict:
        """Admit one ``repro.serve.request/1`` submission.

        Returns the run's status snapshot.  Raises
        :class:`~repro.errors.RequestError` (bad request, 400),
        :class:`QuotaExceeded` (429) or :class:`ServeUnavailable`
        (503); design compile errors surface as their usual
        :class:`~repro.errors.ReproError` subtypes (also 400 at the
        HTTP layer — the design is part of the request).
        """
        rid = f"r{next(self._seq):06d}"
        request = parse_run(spec, base_dir=None, where="request body",
                            name=rid, kind="body")
        tenant = spec.get("tenant", "default")
        quota = self.config.quota(tenant)
        request = dataclasses.replace(
            request, options=quota.clamp(request.options))
        # The submitting thread compiles (and pays for) its own design;
        # a bad design is a 400, never a poisoned pool.
        with self._compile_lock:
            design_fp = self._catalog.add(request)
        fingerprint = request_fingerprint(request, design_fp)

        with self._cv:
            if self._stopping:
                raise ServeUnavailable("server is draining; not "
                                       "accepting submissions")
            pending = sum(1 for run in self._runs.values()
                          if run.tenant == tenant and run.state == "queued")
            if pending >= quota.max_pending:
                self._m_rejected.labels(tenant=tenant, reason="quota").inc()
                raise QuotaExceeded(
                    f"tenant {tenant!r} has {pending} pending runs "
                    f"(max_pending={quota.max_pending})",
                    retry_after=max(1.0, pending * 0.5))
            run = _Run(id=rid, tenant=tenant, fingerprint=fingerprint)
            self._runs[rid] = run
            self._m_submitted.labels(tenant=tenant).inc()
            record = {"run": rid, "tenant": tenant,
                      "fingerprint": fingerprint}

            cached = self._cache.get(fingerprint)
            if cached is not None:
                run.state = "done"
                run.cached = True
                run.result_bytes = cached
                run.outcome = self._cache_outcome[fingerprint]
                self._m_cache_hits.inc()
                self._m_completed.labels(
                    status=run.outcome["status"]).inc()
                self._journal_event("cached", record)
                self._cv.notify_all()
            elif fingerprint in self._primary_by_fp:
                primary = self._primary_by_fp[fingerprint]
                run.primary = primary
                self._followers.setdefault(primary, []).append(rid)
                self._m_cache_coalesced.inc()
                self._journal_event("submitted",
                                    dict(record, coalesced_with=primary))
            else:
                self._m_cache_misses.inc()
                self._primary_by_fp[fingerprint] = rid
                self._journal_event("submitted", record)
                self._queue.add(request, design_fp)
            return self._snapshot_locked(run)

    # -- inspection (HTTP handler threads) ------------------------------

    def snapshot(self, rid: str) -> Optional[dict]:
        """The run's status document, or None for an unknown id."""
        with self._lock:
            run = self._runs.get(rid)
            if run is None:
                return None
            return self._snapshot_locked(run)

    def _state(self, run: _Run) -> str:
        if run.state == "queued" and run.id in self._queue.leases:
            return "running"
        return run.state

    def _snapshot_locked(self, run: _Run) -> dict:
        if run.outcome is not None and not run.cached:
            attempts = run.outcome["attempts"]
        elif run.state == "queued" and run.primary is None:
            attempts = self._queue.job(run.id).attempt - 1
        else:
            attempts = 0  # served from cache, coalesced, or cancelled
        doc = {
            "id": run.id,
            "tenant": run.tenant,
            "state": self._state(run),
            "cached": run.cached,
            "fingerprint": run.fingerprint,
            "attempts": attempts,
        }
        if run.primary is not None:
            doc["primary"] = run.primary
        if run.outcome is not None:
            doc["status"] = run.outcome["status"]
            doc["ok"] = run.outcome["ok"]
            doc["quarantined"] = run.outcome["quarantined"]
        if self.status_dir is not None:
            # followers never execute — their heartbeat is the primary's
            beat_id = run.primary or run.id
            record = read_status(
                os.path.join(self.status_dir, f"{beat_id}.json"))
            if record is not None:
                doc["heartbeat"] = record
        return doc

    def result_bytes(self, rid: str) -> Optional[Tuple[str, bytes, bool]]:
        """``(state, payload, cached)`` for a run; payload is None
        unless done.  None for an unknown id."""
        with self._lock:
            run = self._runs.get(rid)
            if run is None:
                return None
            return self._state(run), run.result_bytes, run.cached

    def wait_done(self, rid: str, timeout: float) -> bool:
        """Block until the run leaves the queue/pool (or timeout)."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while True:
                run = self._runs.get(rid)
                if run is None or run.state in ("done", "cancelled"):
                    return run is not None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(remaining)

    def status_records(self) -> List[dict]:
        if self.status_dir is None:
            return []
        return scan_status([self.status_dir])

    def counters(self) -> Dict[str, float]:
        """Point-in-time scheduler counters (tests, /healthz detail)."""
        with self._lock:
            states: Dict[str, int] = {}
            for run in self._runs.values():
                state = self._state(run)
                states[state] = states.get(state, 0) + 1
            return {
                "runs": len(self._runs),
                "cache_entries": len(self._cache),
                **{f"state_{state}": count
                   for state, count in sorted(states.items())},
            }

    # -- dispatcher hooks (controller thread, lock held) ----------------

    def _next_ready(self, ready: Sequence[str]) -> Optional[str]:
        """Round-robin over tenants: the oldest ready run of the next
        tenant below its ``max_in_flight``."""
        heads: Dict[str, str] = {}
        for rid in ready:
            heads.setdefault(self._runs[rid].tenant, rid)
        tenants = sorted(heads)
        for offset in range(len(tenants)):
            tenant = tenants[(self._rr + offset) % len(tenants)]
            in_flight = sum(1 for rid in self._queue.leases
                            if self._runs[rid].tenant == tenant)
            if in_flight >= self.config.quota(tenant).max_in_flight:
                continue
            self._rr = (self._rr + offset + 1) % len(tenants)
            return heads[tenant]
        return None

    def _on_result(self, outcome: RunOutcome) -> None:
        run = self._runs[outcome.name]
        run.state = "done"
        run.outcome = outcome.to_dict()
        run.result_bytes = json.dumps(
            run.outcome, sort_keys=True).encode("utf-8")
        self._m_completed.labels(status=run.outcome["status"]).inc()
        self._m_retries.inc(outcome.attempts - 1)
        if outcome.quarantined:
            self._m_quarantined.inc()
        if (outcome.status.value in CACHEABLE_STATUSES
                and not outcome.quarantined):
            self._cache[run.fingerprint] = run.result_bytes
            self._cache_outcome[run.fingerprint] = run.outcome
        # identical submissions that arrived while this ran resolve now,
        # byte-identically, without ever touching a worker
        for fid in self._followers.pop(run.id, []):
            follower = self._runs[fid]
            if follower.state == "cancelled":
                continue
            follower.state = "done"
            follower.cached = True
            follower.outcome = run.outcome
            follower.result_bytes = run.result_bytes
            self._m_completed.labels(status=run.outcome["status"]).inc()
            self._journal_event("terminal", {"run": fid,
                                             "outcome": run.outcome,
                                             "coalesced_with": run.id})
        self._primary_by_fp.pop(run.fingerprint, None)
        self._cv.notify_all()

    # -- helpers (lock held) --------------------------------------------

    def _cancel_locked(self, run: _Run) -> None:
        run.state = "cancelled"
        self._queue.cancel(run.id)
        self._m_cancelled.inc()
        self._journal_event("cancelled", {"run": run.id,
                                          "tenant": run.tenant})
        if self._primary_by_fp.get(run.fingerprint) == run.id:
            del self._primary_by_fp[run.fingerprint]
        for fid in self._followers.pop(run.id, []):
            follower = self._runs[fid]
            if follower.state == "queued":
                self._cancel_locked(follower)

    def _journal_event(self, kind: str, record: dict) -> None:
        if self._journal is not None:
            self._journal.append(dict(record, kind=kind))
