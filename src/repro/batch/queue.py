"""Controller-side job queue: leases, retries, backoff, quarantine.

The durable half of the batch engine's brain.  Every run lives in
exactly one place at any moment:

``ready``
    queued, eligible to be handed to the next idle worker;
``delayed``
    queued but serving a retry backoff — becomes ready when its
    ``not_before`` deadline passes;
``leased``
    held by one worker under a :class:`Lease` (attempt number, worker
    pid, start times) — the unit of blast radius: when that worker
    dies, *this run and only this run* is affected;
``terminal``
    finished with a :class:`~repro.batch.engine.RunOutcome` — success,
    a run-level failure the policy does not retry, or quarantine.

Failures route through :meth:`JobQueue.fail`, which consults the
:class:`RetryPolicy`: retryable failures requeue with **capped
exponential backoff and deterministic seeded jitter** until
``max_attempts`` is exhausted, after which the run is **quarantined**
— terminal, with the full per-attempt failure history attached, so a
poison run (one that kills every worker that touches it) costs the
batch ``max_attempts`` workers, not the world.

The queue is fed two ways: ``run_batch`` hands it a fixed manifest at
construction, and the serve front door :meth:`JobQueue.add`\\ s live
submissions (and may :meth:`JobQueue.cancel` them at shutdown).  A
``next_ready`` hook lets a feeder choose which ready run leases next —
the serve scheduler's tenant round-robin; the default is FIFO.

Nothing in this module touches processes, files or clocks beyond the
monotonic timestamps handed in by the engine — it is a pure scheduling
data structure, unit-testable without a pool.
"""

from __future__ import annotations

import hashlib
import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import BatchError

#: Failure kinds recorded in attempt histories.
FAILURE_KINDS = ("worker-lost", "stall-kill", "status")


@dataclass(frozen=True)
class RetryPolicy:
    """When and how failed runs are retried.

    Infrastructure failures — a worker process dying under a run
    (``worker-lost``) or a lease-timeout kill (``stall-kill``) — are
    always retryable: the run itself returned no verdict.  Run-level
    *statuses* (``aborted``, ``hang``) are deterministic verdicts and
    are retried only when listed in ``retry_statuses`` (opt-in: useful
    when aborts are environmental — memory pressure, injected chaos —
    rather than intrinsic).  ``ok`` and ``assert_failed`` are results,
    never failures, and are never retried.
    """

    #: Total attempts a run may consume (first try included).  1 means
    #: never retry; infrastructure failures then go straight to
    #: quarantine.
    max_attempts: int = 3
    #: Backoff before attempt ``n+1`` is ``backoff_base * 2**(n-1)``
    #: seconds, capped at ``backoff_cap``, jittered by ``jitter_frac``.
    backoff_base: float = 0.25
    backoff_cap: float = 30.0
    #: Deterministic jitter amplitude: the delay is scaled by a factor
    #: in ``[1 - jitter_frac, 1 + jitter_frac]`` derived from
    #: ``sha256(seed, run name, attempt)`` — stable across reruns,
    #: decorrelated across runs.
    jitter_frac: float = 0.25
    #: Jitter seed (vary to decorrelate two batches of the same runs).
    seed: int = 0
    #: Run-level terminal statuses that count as retryable failures.
    retry_statuses: frozenset = frozenset()
    #: Kill a leased run's worker and requeue the run when the run has
    #: been held longer than this many seconds without evidence of
    #: progress (a ``running`` heartbeat younger than this, or — with
    #: heartbeats disabled — any lease younger than this).  None
    #: disables the escalation; the flag-only ``stall_after`` watcher
    #: is independent.
    lease_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise BatchError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise BatchError("backoff must be non-negative")
        if not 0 <= self.jitter_frac <= 1:
            raise BatchError(
                f"jitter_frac must be in [0, 1], got {self.jitter_frac}")
        if self.lease_timeout is not None and self.lease_timeout <= 0:
            raise BatchError("lease_timeout must be positive")
        bad = set(self.retry_statuses) & {"ok", "assert_failed"}
        if bad:
            raise BatchError(
                f"cannot retry result statuses {sorted(bad)} — ok and "
                "assert_failed are verdicts, not failures")
        # normalize a caller-supplied iterable into a real frozenset
        object.__setattr__(self, "retry_statuses",
                           frozenset(self.retry_statuses))

    def backoff_delay(self, name: str, attempt: int) -> float:
        """Seconds to hold ``name`` back before attempt ``attempt``.

        Deterministic: capped exponential in the attempt number with
        seeded jitter keyed by ``(seed, name, attempt)``, so two
        controllers replaying the same failures schedule identically.
        """
        if attempt <= 1 or self.backoff_base == 0:
            return 0.0
        delay = min(self.backoff_base * (2.0 ** (attempt - 2)),
                    self.backoff_cap)
        if self.jitter_frac:
            digest = hashlib.sha256(
                f"{self.seed}:{name}:{attempt}".encode("utf-8")).digest()
            unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
            delay *= 1.0 + self.jitter_frac * (2.0 * unit - 1.0)
        return delay


@dataclass
class Lease:
    """One worker's claim on one run attempt."""

    name: str
    attempt: int
    worker_id: int
    worker_pid: int
    #: Wall-clock lease grant time (feeds heartbeat-age comparison).
    started_unix: float = field(default_factory=time.time)
    #: Monotonic grant time (feeds lease-timeout math).
    started_mono: float = field(default_factory=time.perf_counter)

    def age(self, now_mono: Optional[float] = None) -> float:
        if now_mono is None:
            now_mono = time.perf_counter()
        return max(now_mono - self.started_mono, 0.0)


@dataclass
class _Job:
    """Internal per-run scheduling state."""

    request: object
    fingerprint: str
    #: Attempt number the *next* dispatch will carry (1-based).
    attempt: int = 1
    history: List[dict] = field(default_factory=list)


class JobQueue:
    """The engine's run scheduler.  See the module docstring."""

    def __init__(self, jobs: Sequence[Tuple[object, str]],
                 policy: Optional[RetryPolicy] = None,
                 next_ready: Optional[
                     Callable[[Sequence[str]], Optional[str]]] = None,
                 ) -> None:
        self.policy = policy or RetryPolicy()
        #: Picks the run to lease from the ready names (oldest first);
        #: None when none may run yet.  FIFO when unset.
        self.next_ready = next_ready
        self._jobs: Dict[str, _Job] = {}
        self._ready: deque = deque()
        self._delayed: List[Tuple[float, str]] = []  # (ready_mono, name)
        self.leases: Dict[str, Lease] = {}
        #: Terminal name -> RunOutcome, set by complete()/quarantine.
        self.outcomes: Dict[str, object] = {}
        #: Attempts beyond the first that were actually dispatched.
        self.retries = 0
        #: Requeue events (retry requeues + stall-kill requeues).
        self.requeued = 0
        #: Names quarantined after exhausting max_attempts.
        self.quarantined: List[str] = []
        for request, fingerprint in jobs:
            self.add(request, fingerprint)

    def add(self, request, fingerprint: str) -> None:
        """Queue one more run (ready at once, attempt 1)."""
        self._jobs[request.name] = _Job(request=request,
                                        fingerprint=fingerprint)
        self._ready.append(request.name)

    # ------------------------------------------------------------------
    # state inspection

    def finished(self) -> bool:
        """True when every run holds a terminal outcome."""
        return len(self.outcomes) == len(self._jobs)

    def has_ready(self, now_mono: Optional[float] = None) -> bool:
        self._promote(now_mono)
        return bool(self._ready)

    def pending_names(self) -> List[str]:
        """Every non-terminal run (ready, delayed, or leased)."""
        return [name for name in self._jobs if name not in self.outcomes]

    def pending(self) -> int:
        """How many runs are not terminal yet."""
        return len(self._jobs) - len(self.outcomes)

    def next_delay(self, now_mono: Optional[float] = None
                   ) -> Optional[float]:
        """Seconds until the earliest delayed run becomes ready."""
        self._promote(now_mono)
        if not self._delayed:
            return None
        if now_mono is None:
            now_mono = time.perf_counter()
        return max(self._delayed[0][0] - now_mono, 0.0)

    def _promote(self, now_mono: Optional[float] = None) -> None:
        if not self._delayed:
            return
        if now_mono is None:
            now_mono = time.perf_counter()
        while self._delayed and self._delayed[0][0] <= now_mono:
            _, name = heapq.heappop(self._delayed)
            self._ready.append(name)

    # ------------------------------------------------------------------
    # dispatch / completion

    def lease(self, worker_id: int, worker_pid: int,
              now_mono: Optional[float] = None) -> Optional[Lease]:
        """Hand the next ready run to a worker; None when none is due."""
        self._promote(now_mono)
        if not self._ready:
            return None
        if self.next_ready is None:
            name = self._ready.popleft()
        else:
            name = self.next_ready(self._ready)
            if name is None:
                return None
            self._ready.remove(name)
        job = self._jobs[name]
        lease = Lease(name=name, attempt=job.attempt,
                      worker_id=worker_id, worker_pid=worker_pid)
        self.leases[name] = lease
        if job.attempt > 1:
            self.retries += 1
        return lease

    def job(self, name: str) -> _Job:
        return self._jobs[name]

    def release(self, name: str) -> None:
        """Return a leased run to the front of the ready queue unblamed.

        Used when a dispatch fails before the worker ever saw the job
        (its pipe was already closed) — the attempt did not happen, so
        no history is recorded and the attempt counter stays put.
        """
        self.leases.pop(name, None)
        self._ready.appendleft(name)

    def cancel(self, name: str) -> None:
        """Forget a run that has not finished, wherever it waits.

        A run leased at the time is dropped with its lease, so the
        engine ignores whatever its worker sends back.  Unknown and
        terminal names are a no-op.
        """
        if name not in self._jobs or name in self.outcomes:
            return
        del self._jobs[name]
        self.leases.pop(name, None)
        if name in self._ready:
            self._ready.remove(name)
        self._delayed = [entry for entry in self._delayed
                         if entry[1] != name]
        heapq.heapify(self._delayed)

    def complete(self, name: str, outcome) -> None:
        """Record a terminal outcome (success or unretried failure)."""
        self.leases.pop(name, None)
        job = self._jobs[name]
        outcome.attempts = job.attempt
        outcome.failure_history = list(job.history)
        self.outcomes[name] = outcome

    def fail(self, name: str, kind: str, error: str,
             worker_pid: Optional[int] = None) -> dict:
        """Route one attempt's failure: requeue with backoff or
        quarantine.

        Returns a disposition record ``{"action": "requeue"|
        "quarantine", "attempt", "delay", ...}`` the engine journals.
        ``kind`` is one of :data:`FAILURE_KINDS`; infrastructure kinds
        are always retryable, ``status`` kinds only when the policy
        lists the status in ``retry_statuses`` (the engine checks that
        before calling — by the time a failure lands here it *is*
        retryable or terminal-by-exhaustion).
        """
        self.leases.pop(name, None)
        job = self._jobs[name]
        failed_attempt = job.attempt
        job.history.append({
            "attempt": failed_attempt, "kind": kind, "error": error,
            "worker_pid": worker_pid,
        })
        if failed_attempt >= self.policy.max_attempts:
            self.quarantined.append(name)
            return {"action": "quarantine", "attempt": failed_attempt,
                    "history": list(job.history)}
        job.attempt = failed_attempt + 1
        delay = self.policy.backoff_delay(name, job.attempt)
        self.requeued += 1
        if delay > 0:
            heapq.heappush(self._delayed,
                           (time.perf_counter() + delay, name))
        else:
            self._ready.append(name)
        return {"action": "requeue", "attempt": job.attempt,
                "delay": round(delay, 6)}
