"""Versioned checkpoint/resume for the symbolic kernel.

A checkpoint is a single file with three sections::

    REPROCKPT 1\n                 magic + format version
    {...header JSON...}\n          one line, utf-8
    <payload>                      pickle of pure-builtin data

The header carries the format version, a structural fingerprint of the
compiled design, the byte length and SHA-256 of the payload, and the
*semantic* simulation options (accumulation mode, priority discipline,
...) that must match on resume.  The payload is written by
:func:`save_checkpoint` from builtins only — ints, strings, lists,
dicts, tuples — so loading uses a restricted unpickler that refuses any
object construction outright; a tampered payload cannot execute code.

What round-trips (proven bit-identical by the crash-recovery tests):

* the BDD arena verbatim — node arrays, variable names/order, the
  guard's concretized-variable set and the GC/sift trigger state.
  Node ids in the rest of the payload are only meaningful against this
  arena image, which is why the arrays are serialized raw rather than
  compacted;
* the scheduler queue, in exact pop order, with non-blocking updates
  serialized through their :class:`~repro.compile.instructions.NbaUpdate`
  ``spec`` (closures are rebuilt on load);
* the value store, net driver sets, event/level waiters (rebuilt from
  the ``WaitEvent``/``WaitCond`` instruction preceding their resume
  label), armed assertions and the active ``$monitor`` (resolved
  through the program's compile-time site registries), the ``$random``
  invocation log, recorded violations, ``$display`` output, statistics
  and the concrete-random RNG state;
* an open VCD stream: the byte offset is saved and the file is
  truncated back to it on resume, so the waveform continues seamlessly.

Closures never enter the file: everything callable is re-derived from
the compiled :class:`~repro.compile.compiler.Program`, which is why
resuming requires recompiling the same source (checked by fingerprint).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from typing import Any, Dict, List, Optional

from repro.compile.compiler import Program
from repro.compile.instructions import (
    AccumulationMode, NbaUpdate, WaitCond, WaitEvent,
)
from repro.errors import BddError, CheckpointError
from repro.fourval import FourVec

MAGIC = b"REPROCKPT 1\n"
FORMAT_VERSION = 2

_SEMANTIC_OPTIONS = (
    "accumulation", "depth_first_priorities", "check_unknown_assert",
    "concrete_random",
)


def design_fingerprint(program: Program) -> str:
    """Structural hash of a compiled design.

    Covers the top module, every net (name/width/kind), the process
    table and instruction counts, continuous assigns and ``$random``
    call sites — enough to reject resuming against a different design
    or a differently-compiled one, without hashing source text.
    """
    digest = hashlib.sha256()
    design = program.design
    digest.update(design.top.encode())
    for name in sorted(design.nets):
        info = design.nets[name]
        digest.update(f"|{name}:{info.width}:{info.kind}".encode())
    for proc in program.processes:
        digest.update(
            f"|{proc.name}:{proc.kind}:{len(proc.instructions)}".encode()
        )
    digest.update(f"|assigns:{len(program.assigns)}".encode())
    digest.update(f"|callsites:{len(program.callsites)}".encode())
    return digest.hexdigest()


class _BuiltinsOnlyUnpickler(pickle.Unpickler):
    """Refuses to construct any class: payloads are builtins only."""

    def find_class(self, module, name):  # noqa: D102
        raise CheckpointError(
            f"checkpoint payload references {module}.{name}; "
            "payloads must contain only builtin types"
        )


def _vec_image(vec: FourVec):
    return (list(vec.bits), vec.signed)


def _vec_from(mgr, image) -> FourVec:
    bits, signed = image
    return FourVec(mgr, [tuple(bit) for bit in bits], signed)


def _nba_image(update: NbaUpdate) -> Dict[str, Any]:
    if update.fn is not None and update.spec is None:
        raise CheckpointError(
            "queued non-blocking update has no serializable spec; "
            "cannot checkpoint"
        )
    return {
        "spec": update.spec,
        "vecs": [_vec_image(vec) for vec in update.vecs],
        "controls": list(update.controls),
        "subs": [_nba_image(sub) for sub in update.subs],
    }


def _nba_from(kern, image) -> NbaUpdate:
    spec = image["spec"]
    return NbaUpdate(
        _nba_fn(kern, spec),
        vecs=[_vec_from(kern.mgr, vec) for vec in image["vecs"]],
        controls=list(image["controls"]),
        subs=[_nba_from(kern, sub) for sub in image["subs"]],
        spec=spec,
    )


def _nba_fn(kern, spec):
    """Rebuild an NBA commit closure from its pure-data spec."""
    if spec is None:
        return None
    spec = tuple(spec)
    kind = spec[0]
    if kind == "net":
        full = spec[1]

        def commit(kern2, vecs, controls):
            kern2.write_net(full, vecs[0], controls[0])

        return commit
    if kind == "word":
        _, full, low, high = spec

        def commit_word(kern2, vecs, controls):
            kern2.write_array(full, vecs[0], vecs[1], controls[0], low, high)

        return commit_word
    if kind == "bit":
        from repro.compile.expr import _write_selected_bit

        full = spec[1]
        info = kern.design.net(full)

        def commit_bit(kern2, vecs, controls):
            _write_selected_bit(kern2, full, info, vecs[0], vecs[1],
                                controls[0])

        return commit_bit
    if kind == "part":
        from repro.compile.expr import _write_part

        _, full, offset, width = spec

        def commit_part(kern2, vecs, controls):
            _write_part(kern2, full, offset, width, vecs[0], controls[0])

        return commit_part
    raise CheckpointError(f"unknown NBA spec {spec!r}")


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------


def _collect_payload(kern) -> Dict[str, Any]:
    if kern._busy and kern._strobes:
        raise CheckpointError(
            "cannot checkpoint mid-step state (pending $strobe events)"
        )
    sched = kern.sched
    events: List[Dict[str, Any]] = []
    for event in sched.snapshot_events():
        image: Dict[str, Any] = {
            "time": event.time, "region": event.region, "prio": event.prio,
            "kind": event.kind, "pc": event.pc, "control": event.control,
            "index": event.index,
        }
        if event.kind == "proc":
            image["process"] = event.process.index
        elif event.kind == "nba":
            image["nba"] = _nba_image(event.apply)
        elif event.kind == "drive":
            image["payload"] = _vec_image(event.payload)
        elif event.kind != "assign":
            raise CheckpointError(f"unknown event kind {event.kind!r}")
        events.append(image)
    waiter_list = []
    waiter_index: Dict[int, int] = {}
    for waiter in kern._iter_waiters():
        if waiter.dead:
            continue
        waiter_index[id(waiter)] = len(waiter_list)
        waiter_list.append({
            "kind": waiter.kind,
            "process": waiter.process.index,
            "pc": waiter.pc,
            "control": waiter.control,
            "prio": waiter.prio,
            "lasts": [_vec_image(ts.last) for ts in waiter.triggers],
        })
    waiters_by_net = {
        net: [waiter_index[id(w)] for w in waiters if not w.dead]
        for net, waiters in kern._waiters.items()
    }
    stats = kern.stats
    payload: Dict[str, Any] = {
        "mgr": kern.mgr.image(),
        "now": kern.now,
        "finished": kern.finished,
        "stopped": kern.stopped,
        "interrupted": kern._interrupted,
        "finish_control": kern._finish_control,
        "output": list(kern.output),
        "line_open": kern._line_open,
        "cpu_accum": kern._cpu_accum,
        "state": kern.state.snapshot(),
        "drivers": {
            net: {key: _vec_image(vec) for key, vec in drivers.items()}
            for net, drivers in kern._drivers.items()
        },
        "events": events,
        "sched_scheduled": sched.scheduled,
        "sched_merged": sched.merged,
        "waiters": waiter_list,
        "waiters_by_net": waiters_by_net,
        "assertions": {
            aid: a.armed for aid, a in kern._assertions.items()
        },
        "monitor": (
            None if kern._monitor is None
            else {"key": kern._monitor_key, "control": kern._monitor[1]}
        ),
        "monitor_last": kern._monitor_last,
        "callsite_seq": dict(kern._callsite_seq),
        "random_log": [
            {
                "callsite_index": inv.callsite_index, "seq": inv.seq,
                "time": inv.time, "vector": _vec_image(inv.vector),
                "control": inv.control, "levels": list(inv.levels),
            }
            for inv in kern.random_log
        ],
        "violations": [
            {
                "kind": v.kind, "where": v.where, "message": v.message,
                "time": v.time, "condition": v.condition,
                "witness": dict(v.trace.witness),
                "entries": [
                    (e.callsite_index, e.where, e.seq, e.time, e.executed,
                     e.value)
                    for e in v.trace.entries
                ],
            }
            for v in kern.violations
        ],
        "stats": {
            "events_processed": stats.events_processed,
            "events_scheduled": stats.events_scheduled,
            "events_merged": stats.events_merged,
            "process_events": stats.process_events,
            "nba_events": stats.nba_events,
            "assign_events": stats.assign_events,
            "instructions": stats.instructions,
            "symbols_injected": stats.symbols_injected,
            "timeline": [
                (p.sim_time, p.events, p.cpu_seconds) for p in stats.timeline
            ],
            "bdd": dict(stats.bdd),
        },
        "rng": kern._rng.getstate() if kern._rng is not None else None,
        "concrete": (
            None if kern._concrete is None
            else {index: list(values)
                  for index, values in kern._concrete.items()}
        ),
    }
    if kern._monitor is not None and kern._monitor_key is None:
        raise CheckpointError(
            "active $monitor has no compile-time key; cannot checkpoint"
        )
    if kern._vcd is not None and kern._vcd_stream is not None:
        kern._vcd_stream.flush()
        vcd = kern._vcd
        payload["vcd"] = {
            "path": kern._vcd_path or "dump.vcd",
            "offset": kern._vcd_stream.tell(),
            "ids": dict(vcd._ids),
            "widths": dict(vcd._widths),
            "last": dict(vcd._last),
            "current_time": vcd._current_time,
        }
    else:
        payload["vcd"] = None
    return payload


def save_checkpoint(kern, path: str) -> str:
    """Write a checkpoint of ``kern`` to ``path`` atomically.

    Only legal at a safe point (between time steps or ``run()``
    calls).  The file appears under its final name only once fully
    written (write-to-temp + rename), so a crash mid-save leaves any
    previous checkpoint intact.  Returns ``path``.
    """
    options = kern.options
    header = {
        "version": FORMAT_VERSION,
        "design": design_fingerprint(kern.program),
        "top": kern.design.top,
        "sim_time": kern.now,
        "options": {
            "accumulation": options.accumulation.value,
            "depth_first_priorities": options.depth_first_priorities,
            "check_unknown_assert": options.check_unknown_assert,
            "concrete_random": options.concrete_random,
        },
    }
    payload = pickle.dumps(_collect_payload(kern), protocol=4)
    header["payload_bytes"] = len(payload)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(json.dumps(header).encode("utf-8"))
            handle.write(b"\n")
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}")
    return path


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------


def read_header(path: str) -> Dict[str, Any]:
    """Parse and validate a checkpoint's header (cheap; no payload)."""
    header, _ = _read_file(path, want_payload=False)
    return header


def _read_file(path: str, want_payload: bool = True):
    try:
        with open(path, "rb") as handle:
            magic = handle.readline()
            if magic != MAGIC:
                raise CheckpointError(
                    f"{path}: not a repro checkpoint (bad magic)"
                )
            header_line = handle.readline()
            try:
                header = json.loads(header_line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CheckpointError(f"{path}: corrupt header: {exc}")
            if not isinstance(header, dict) or "version" not in header:
                raise CheckpointError(f"{path}: corrupt header")
            if header["version"] != FORMAT_VERSION:
                raise CheckpointError(
                    f"{path}: checkpoint format v{header['version']} "
                    f"not supported (this build reads v{FORMAT_VERSION})"
                )
            if not want_payload:
                return header, None
            expected = header.get("payload_bytes")
            payload = handle.read()
            if expected is None or len(payload) != expected:
                raise CheckpointError(
                    f"{path}: truncated checkpoint "
                    f"({len(payload)} of {expected} payload bytes)"
                )
            digest = hashlib.sha256(payload).hexdigest()
            if digest != header.get("payload_sha256"):
                raise CheckpointError(
                    f"{path}: payload checksum mismatch — corrupt checkpoint"
                )
            return header, payload
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")


def load_checkpoint(program: Program, path: str, options=None):
    """Rebuild a :class:`~repro.sim.kernel.Kernel` from a checkpoint.

    ``program`` must be the same design, recompiled from the same
    source (verified by structural fingerprint).  ``options`` defaults
    to the checkpoint's semantic options; when given, its semantic
    fields (accumulation, priority discipline, unknown-assert policy,
    concrete seed) must match the checkpointed run, while operational
    knobs (GC thresholds, observability, budgets...) are free to
    differ.  The resumed kernel continues exactly where the original
    would have: same event order, same symbolic state, same output.
    """
    from repro.sim.kernel import Kernel, SimOptions, _Assertion, _TriggerState, _Waiter
    from repro.sim.scheduler import Event
    from repro.sim.stats import TimePoint
    from repro.sim.trace import ErrorTrace, RandomInvocation, TraceEntry, Violation

    header, raw = _read_file(path)
    fingerprint = design_fingerprint(program)
    if header.get("design") != fingerprint:
        raise CheckpointError(
            f"{path}: checkpoint was taken from a different design "
            f"(fingerprint {header.get('design', '?')[:12]}..., "
            f"this program {fingerprint[:12]}...)"
        )
    semantic = header.get("options", {})
    if options is None:
        options = SimOptions(
            accumulation=AccumulationMode(semantic["accumulation"]),
            depth_first_priorities=semantic["depth_first_priorities"],
            check_unknown_assert=semantic["check_unknown_assert"],
            concrete_random=semantic["concrete_random"],
        )
    else:
        mine = {
            "accumulation": options.accumulation.value,
            "depth_first_priorities": options.depth_first_priorities,
            "check_unknown_assert": options.check_unknown_assert,
            "concrete_random": options.concrete_random,
        }
        for name in _SEMANTIC_OPTIONS:
            if name in semantic and mine[name] != semantic[name]:
                raise CheckpointError(
                    f"{path}: option {name!r} was {semantic[name]!r} at "
                    f"checkpoint time but {mine[name]!r} now; semantic "
                    "options must match to resume"
                )
    try:
        payload = _BuiltinsOnlyUnpickler(io.BytesIO(raw)).load()
    except CheckpointError:
        raise
    except Exception as exc:  # pickle raises a zoo of types on corruption
        raise CheckpointError(f"{path}: corrupt payload: {exc}")
    try:
        return _rebuild(Kernel, program, options, payload,
                        _Assertion, _TriggerState, _Waiter, Event,
                        TimePoint, ErrorTrace, RandomInvocation, TraceEntry,
                        Violation)
    except CheckpointError:
        raise
    except BddError as exc:
        raise CheckpointError(f"{path}: invalid BDD arena: {exc}")
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"{path}: malformed payload: {exc!r}")


def _rebuild(Kernel, program, options, payload, _Assertion, _TriggerState,
             _Waiter, Event, TimePoint, ErrorTrace, RandomInvocation,
             TraceEntry, Violation):
    kern = Kernel(program, options=options)
    mgr = kern.mgr

    # -- arena image (verbatim: node ids in the payload index into it) --
    mgr.restore(payload["mgr"])

    # -- kernel scalars --
    kern._started = True
    kern._ensure_compiled_tier()
    kern.now = payload["now"]
    kern.finished = payload["finished"]
    kern.stopped = payload["stopped"]
    kern._interrupted = False
    kern._finish_control = payload["finish_control"]
    kern.output = list(payload["output"])
    kern._line_open = payload["line_open"]
    kern._cpu_accum = payload["cpu_accum"]

    # -- value store / drivers / static subscriber table --
    kern.state.restore(payload["state"])
    kern._drivers = {
        net: {key: _vec_from(mgr, vec) for key, vec in drivers.items()}
        for net, drivers in payload["drivers"].items()
    }
    kern._assign_subs = {}
    for assign in program.assigns:
        for net in assign.support:
            kern._assign_subs.setdefault(net, []).append(assign.index)

    # -- scheduler --
    events = []
    for entry in payload["events"]:
        kind = entry["kind"]
        event = Event(time=entry["time"], region=entry["region"],
                      prio=entry["prio"], kind=kind, pc=entry["pc"],
                      control=entry["control"], index=entry["index"])
        if kind == "proc":
            event.process = program.processes[entry["process"]]
        elif kind == "nba":
            event.apply = _nba_from(kern, entry["nba"])
        elif kind == "drive":
            event.payload = _vec_from(mgr, entry["payload"])
        events.append(event)
    kern.sched.restore_events(events)
    kern.sched.scheduled = payload["sched_scheduled"]
    kern.sched.merged = payload["sched_merged"]

    # -- waiters (rebuilt from the instruction before the resume pc) --
    waiters = []
    for record in payload["waiters"]:
        process = program.processes[record["process"]]
        instruction = process.instructions[record["pc"] - 1]
        waiter = _Waiter(kind=record["kind"], process=process,
                         pc=record["pc"], control=record["control"],
                         prio=record["prio"])
        if record["kind"] == "event":
            if not isinstance(instruction, WaitEvent):
                raise CheckpointError(
                    f"waiter pc {record['pc']} of {process.name} does not "
                    "follow a WaitEvent instruction"
                )
            if len(instruction.triggers) != len(record["lasts"]):
                raise CheckpointError(
                    f"waiter trigger arity mismatch in {process.name}"
                )
            waiter.triggers = [
                _TriggerState(trigger=t, last=_vec_from(mgr, last))
                for t, last in zip(instruction.triggers, record["lasts"])
            ]
        else:
            if not isinstance(instruction, WaitCond):
                raise CheckpointError(
                    f"waiter pc {record['pc']} of {process.name} does not "
                    "follow a WaitCond instruction"
                )
            waiter.cond = instruction.cond
        waiters.append(waiter)
    kern._waiters = {
        net: [waiters[i] for i in indices]
        for net, indices in payload["waiters_by_net"].items()
    }

    # -- assertions / monitor (via compile-time site registries) --
    kern._assertions = {}
    for aid, armed in payload["assertions"].items():
        site = program.assertion_sites.get(aid)
        if site is None:
            raise CheckpointError(f"unknown assertion site {aid!r}")
        cond, where = site
        kern._assertions[aid] = _Assertion(cond=cond, armed=armed,
                                           where=where)
    monitor = payload["monitor"]
    if monitor is not None:
        args = program.monitor_sites.get(monitor["key"])
        if args is None:
            raise CheckpointError(
                f"unknown $monitor site {monitor['key']!r}"
            )
        kern._monitor = (args, monitor["control"])
        kern._monitor_key = monitor["key"]
    kern._monitor_last = payload["monitor_last"]

    # -- $random machinery --
    kern._callsite_seq = {int(k): v
                          for k, v in payload["callsite_seq"].items()}
    kern.random_log = [
        RandomInvocation(
            callsite_index=inv["callsite_index"], seq=inv["seq"],
            time=inv["time"], vector=_vec_from(mgr, inv["vector"]),
            control=inv["control"], levels=tuple(inv["levels"]),
        )
        for inv in payload["random_log"]
    ]
    kern.violations = [
        Violation(
            kind=v["kind"], where=v["where"], message=v["message"],
            time=v["time"], condition=v["condition"],
            trace=ErrorTrace(
                witness={int(k): bool(val)
                         for k, val in v["witness"].items()},
                entries=[TraceEntry(*entry) for entry in v["entries"]],
            ),
        )
        for v in payload["violations"]
    ]

    # -- stats / rng / concrete replay values --
    stats_image = payload["stats"]
    stats = kern.stats
    for name in ("events_processed", "events_scheduled", "events_merged",
                 "process_events", "nba_events", "assign_events",
                 "instructions", "symbols_injected"):
        setattr(stats, name, stats_image[name])
    stats.timeline = [TimePoint(*point) for point in stats_image["timeline"]]
    stats.bdd = dict(stats_image["bdd"])
    if payload["rng"] is not None:
        if kern._rng is None:
            raise CheckpointError(
                "checkpoint has concrete-random state but the resumed "
                "options carry no concrete_random seed"
            )
        kern._rng.setstate(payload["rng"])
    if payload["concrete"] is not None:
        from collections import deque

        kern._concrete = {
            int(index): deque(values)
            for index, values in payload["concrete"].items()
        }

    # -- VCD continuation --
    vcd_image = payload["vcd"]
    if vcd_image is not None:
        from repro.sim.vcd import VcdWriter

        vcd_path = vcd_image["path"]
        try:
            stream = open(vcd_path, "r+", encoding="ascii")
            stream.seek(vcd_image["offset"])
            stream.truncate()
        except OSError as exc:
            raise CheckpointError(
                f"cannot reopen VCD {vcd_path} for resume: {exc}"
            )
        writer = VcdWriter(stream)
        writer._ids = dict(vcd_image["ids"])
        writer._widths = dict(vcd_image["widths"])
        writer._last = dict(vcd_image["last"])
        writer._header_done = True
        writer._current_time = vcd_image["current_time"]
        kern._vcd_path = vcd_path
        kern._vcd = writer
        kern._vcd_stream = stream
    return kern
