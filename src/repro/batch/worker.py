"""Worker-process side of the batch engine.

Each pool worker is a long-lived ``multiprocessing.Process`` running
:func:`_worker_main`: loop receiving ``(request, fingerprint, attempt,
image)`` jobs over a pipe and sending outcome dicts back.

A worker's programs come from two places.  A forked worker starts
with the compiled ``Program`` of every design the controller's
catalog held when the worker was forked (or re-forked after a death):
they arrive in :func:`_worker_main`'s arguments, nothing is pickled,
and running them compiles nothing.  (``symsim serve``'s controller
keeps every compiled ``Program`` it admits, so a worker it respawns
inherits them all.)  For any other design — one a ``symsim serve``
client submitted after the worker started, or every design under a
start method other than ``fork`` — ``image`` is the
pickled program the first time this worker sees that design, ``None``
afterwards; the controller tracks which designs each worker holds.
An image is unpickled lazily, at most once per worker per design
(unpickling recompiles the design; see
:meth:`repro.compile.compiler.Program.__reduce__`), under a traced
``compile:<fingerprint>`` span.

Per-process state lives in the module-level ``_STATE`` dict, set by
the initializer.  This is the one sanctioned module-global in the
package: it is *per-process* by construction (each worker is its own
process) and set up once before any job runs.

Every worker writes its own JSONL trace shard
(``workers/w<pid>.jsonl``) with a ``run:<name>`` span bracketing each
simulation; the controller merges the shards into one Chrome trace
with per-worker lanes (:mod:`repro.obs.merge`).  Job results travel
back as plain dicts — a :class:`~repro.sim.kernel.SimResult` holds the
kernel and cannot cross a process boundary.

**Retry attempts** arrive with their attempt number: a retried run
whose request configured rolling checkpoints (``checkpoint_every``)
resumes from the newest trustworthy REPROCKPT under its per-run
checkpoint directory instead of restarting at time 0 — checkpoint
resume is bit-identical (docs/ROBUSTNESS.md), so a retry that resumes
produces the same result a fresh run would, minus the re-simulation.

**Chaos hook**: setting ``REPRO_BATCH_CHAOS_KILL=<run name>:<attempt>``
in the controller's environment makes the worker that picks up that
attempt SIGKILL itself *before* simulating — the deterministic
stand-in for an OOM kill used by the chaos suite and the ``batch-chaos``
CI lane (docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import dataclasses
import gc
import os
import pickle
import signal
import time
import traceback
from typing import Dict, Optional

from repro.obs import Observability, Tracer
from repro.obs import live as _live
from repro.sim.kernel import SimStatus

#: Environment variable driving the deterministic worker-kill chaos
#: hook (format ``<run name>`` or ``<run name>:<attempt>``).
CHAOS_KILL_ENV = "REPRO_BATCH_CHAOS_KILL"

#: Per-process worker state, set once by :func:`_worker_init`.
_STATE: Dict[str, object] = {}


def _worker_init(out_dir: str, trace: bool,
                 heartbeat_every: Optional[int],
                 programs: Dict[str, object]) -> None:
    """Pool initializer — runs once in each worker process.

    ``programs`` are the compiled programs the worker inherited at
    fork, keyed by design fingerprint.
    """
    # The heap inherited from the controller stays reachable for the
    # worker's whole life.  Freezing it sizes full collections to the
    # worker's own objects, so each run's garbage cycles are freed
    # before the next few runs pile theirs on top.
    gc.freeze()
    _STATE.clear()
    _STATE["catalog"] = {}
    _STATE["programs"] = programs
    _STATE["out_dir"] = out_dir
    _STATE["tracer"] = None
    _STATE["shard_path"] = None
    _STATE["t0_unix_us"] = None
    _STATE["heartbeat_every"] = heartbeat_every
    if trace:
        shard_dir = os.path.join(out_dir, "workers")
        os.makedirs(shard_dir, exist_ok=True)
        shard_path = os.path.join(shard_dir, f"w{os.getpid()}.jsonl")
        _STATE["t0_unix_us"] = time.time() * 1e6
        _STATE["tracer"] = Tracer(jsonl_path=shard_path)
        _STATE["shard_path"] = shard_path


def _maybe_chaos_kill(name: str, attempt: int) -> None:
    """SIGKILL this worker if the chaos hook targets this attempt."""
    target = os.environ.get(CHAOS_KILL_ENV)
    if not target:
        return
    run, _, when = target.partition(":")
    if run != name:
        return
    if when and int(when) != attempt:
        return
    os.kill(os.getpid(), signal.SIGKILL)


def _worker_main(task_conn, result_conn, controller_ends,
                 programs: Dict[str, object], out_dir: str, trace: bool,
                 heartbeat_every: Optional[int]) -> None:
    """Entry point of one pool worker process.

    ``controller_ends`` are the controller-side pipe ends a forked
    worker inherits (its own and its siblings'); they are closed at
    once, so the pipes reach EOF when the controller dies.
    ``programs`` are the compiled programs it inherits (empty unless
    forked).  Receives ``(request, fingerprint, attempt, image)`` jobs
    until the controller sends ``None`` (or closes the pipe).
    :func:`_run_job` never raises, so the loop only exits on shutdown —
    or dies abruptly (OOM kill, segfault, chaos), which the controller
    observes through the process sentinel and converts into a lease
    requeue.
    """
    for conn in controller_ends:
        conn.close()
    try:
        _worker_init(out_dir, trace, heartbeat_every, programs)
        while True:
            try:
                job = task_conn.recv()
            except (EOFError, OSError):
                break
            if job is None:
                break
            request, fingerprint, attempt, image = job
            if image is not None:
                _STATE["catalog"][fingerprint] = image  # type: ignore[index]
            _maybe_chaos_kill(request.name, attempt)
            outcome = _run_job(request, fingerprint, attempt=attempt)
            try:
                result_conn.send(outcome)
            except (BrokenPipeError, OSError):
                break  # controller went away; nothing left to report to
    except KeyboardInterrupt:
        pass  # SIGINT belongs to the controller; die quietly
    finally:
        tracer = _STATE.get("tracer")
        if tracer is not None:
            tracer.flush()


def _program(fingerprint: str):
    """The worker's compiled program for ``fingerprint`` (lazy, cached)."""
    programs: Dict[str, object] = _STATE["programs"]  # type: ignore[assignment]
    program = programs.get(fingerprint)
    if program is None:
        image = _STATE["catalog"][fingerprint]  # type: ignore[index]
        tracer = _STATE["tracer"]
        if tracer is not None:
            start = tracer.now_us()
            program = pickle.loads(image)
            tracer.complete(f"compile:{fingerprint[:12]}", "batch",
                            start, tracer.now_us() - start)
        else:
            program = pickle.loads(image)
        programs[fingerprint] = program
    return program


def _resume_kernel(program, options, ckpt_dir: str):
    """A kernel resumed from the newest trustworthy rolling checkpoint,
    or ``None`` when there is nothing usable (then start fresh).

    A worker killed mid-write can leave a truncated/corrupt
    ``latest.ckpt``; the REPROCKPT loader's checksums catch that and
    the retry simply restarts from time 0.
    """
    from repro.errors import CheckpointError
    from repro.guard.checkpoint import load_checkpoint

    path = os.path.join(ckpt_dir, "latest.ckpt")
    if not os.path.exists(path):
        return None
    try:
        return load_checkpoint(program, path, options=options)
    except CheckpointError:
        return None


def _run_job(request, fingerprint: str, attempt: int = 1) -> dict:
    """Execute one :class:`~repro.batch.request.RunRequest` attempt.

    Never raises: every outcome — including a crashed simulation — is
    folded into the returned dict so one failing run cannot take down
    its worker (an abrupt worker death is the *controller's* signal
    that infrastructure, not the run, failed).
    """
    from repro.errors import SimulationAborted, SimulationHang
    from repro.sim.kernel import Kernel

    tracer: Optional[Tracer] = _STATE["tracer"]  # type: ignore[assignment]
    run_dir = os.path.join(str(_STATE["out_dir"]), "runs", request.name)
    os.makedirs(run_dir, exist_ok=True)

    # Per-run heartbeat status file: the controller's stall watcher and
    # `symsim top` both poll <out_dir>/status/<name>.json.
    heartbeat_every = _STATE.get("heartbeat_every")
    status_path = request.options.heartbeat_path
    if heartbeat_every and status_path is None:
        status_dir = os.path.join(str(_STATE["out_dir"]), "status")
        os.makedirs(status_dir, exist_ok=True)
        status_path = os.path.join(status_dir, f"{request.name}.json")

    vcd_path = os.path.join(run_dir, "wave.vcd") if request.vcd \
        else request.options.vcd_path
    ckpt_dir = request.options.checkpoint_dir \
        or os.path.join(run_dir, "ckpt")
    options = dataclasses.replace(
        request.options,
        obs=Observability(tracer=tracer) if tracer is not None else None,
        vcd_path=vcd_path,
        checkpoint_dir=ckpt_dir,
        heartbeat_path=status_path if heartbeat_every else
        request.options.heartbeat_path,
        heartbeat_every=request.options.heartbeat_every or heartbeat_every,
        heartbeat_name=request.options.heartbeat_name or request.name,
        # SIGINT belongs to the controller; a worker must die promptly
        # so the pool can unwind.
        defer_interrupt=False,
    )
    # Attempt-scoped chaos: faults with `on_attempt` fire only on the
    # matching batch attempt (transient-failure modelling).
    if options.faults is not None and hasattr(options.faults, "attempt"):
        options.faults.attempt = attempt

    if tracer is not None:
        tracer.begin(f"run:{request.name}", "batch", lane=0)
    wall_start = time.perf_counter()
    outcome = {
        "name": request.name,
        "attempt": attempt,
        "worker_pid": os.getpid(),
        "shard_path": _STATE["shard_path"],
        "t0_unix_us": _STATE["t0_unix_us"],
        "vcd_path": vcd_path if request.vcd else None,
        "status_path": status_path,
        "resumed_from_checkpoint": False,
        "error": None,
        "result": None,
    }
    result = None
    try:
        kern = None
        if attempt > 1 and request.options.checkpoint_every:
            kern = _resume_kernel(_program(fingerprint), options, ckpt_dir)
            outcome["resumed_from_checkpoint"] = kern is not None
        if kern is None:
            kern = Kernel(_program(fingerprint), options=options)
        result = kern.run(until=request.until)
        outcome["status"] = result.status.value
    except SimulationHang as exc:
        outcome["status"] = SimStatus.HANG.value
        outcome["error"] = str(exc)
    except SimulationAborted as exc:
        outcome["status"] = SimStatus.ABORTED.value
        outcome["error"] = str(exc)
        result = exc.partial_result
    except Exception as exc:  # noqa: BLE001 — fold, never kill the worker
        outcome["status"] = SimStatus.ABORTED.value
        outcome["error"] = "".join(
            traceback.format_exception_only(type(exc), exc)).strip()
    finally:
        outcome["wall_seconds"] = time.perf_counter() - wall_start
        if status_path is not None:
            # Stamp the terminal status even when the kernel never
            # reached its own final heartbeat (hang, crash) so the
            # controller's stall watcher and `symsim top` see the run
            # finish rather than flat-line.
            _live.finalize_status(
                status_path, options.heartbeat_name or request.name,
                outcome["status"], error=outcome["error"])
        if result is not None:
            result.kernel._close_vcd()
            outcome["result"] = result.to_dict()
        if tracer is not None:
            tracer.end(f"run:{request.name}", "batch", lane=0,
                       status=outcome["status"])
            # crash hygiene: a later hard-killed worker still leaves a
            # readable shard for every completed run
            tracer.flush()
    return outcome
