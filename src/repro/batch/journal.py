"""The batch journal — ``BATCHJRNL/1``, an append-only JSONL log that
makes batches resumable.

Every durable batch writes ``<out_dir>/journal.jsonl``.  Line one is a
header; every later line records one scheduling event.  A controller
crash (or Ctrl-C) leaves a valid prefix — JSONL appends are atomic
enough that the reader only ever has to discard a torn final line —
and ``run_batch(..., resume=True)`` / ``symsim batch --resume OUT_DIR``
replays that prefix: runs with a ``terminal`` record are restored from
their journaled outcome payload and skipped; everything else runs
again.

Record kinds (all objects carry ``"kind"``):

``header``
    ``schema`` (``BATCHJRNL/1``), ``catalog_sha`` (content hash of the
    compiled design catalog), and ``runs`` — run name → **request
    fingerprint**.  The fingerprint hashes the design identity plus
    every semantic option, so resuming against an edited manifest is
    refused instead of silently mixing results from two different
    request sets.
``attempt``
    one scheduling event for one run: ``run``, ``attempt``, ``event``
    (``start`` / ``requeue`` / ``quarantine``), and, for failures,
    ``failure_kind`` / ``error`` / ``worker_pid``.
``terminal``
    the run's final :class:`~repro.batch.engine.RunOutcome` payload
    (``outcome`` = ``RunOutcome.to_dict()``).  Presence of this record
    is what "already done" means to a resume.
``resume``
    stamped each time a controller re-opens the journal, with the
    number of terminal records it restored — the audit trail of an
    interrupted campaign.

The :mod:`repro.serve` scheduler writes the same journal (its header
lists no runs — submissions arrive live) and adds audit-only kinds:
``submitted``, ``cached``, ``cancelled`` and ``close``.  A coalesced
follower gets a ``terminal`` record carrying its primary's outcome.

The format is specified in docs/ROBUSTNESS.md.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import IO, Dict, List, Literal, Optional

from repro.api import Table, check, semantic_options
from repro.errors import BatchError, RequestError

#: Journal format tag (header ``schema`` field).
JOURNAL_SCHEMA = "BATCHJRNL/1"

#: File name under the batch ``out_dir``.
JOURNAL_NAME = "journal.jsonl"


def request_fingerprint(request, design_fingerprint: str) -> str:
    """Content hash of one request's *semantic* identity.

    Covers the compiled design (via the catalog fingerprint, which
    already hashes source/top/defines), the time bound, the VCD flag,
    and every semantic :class:`~repro.sim.kernel.SimOptions` field
    (the :mod:`repro.api` split).  Two requests with equal
    fingerprints produce byte-identical results, so a journaled
    terminal outcome may stand in for a rerun — and a served result
    may be deduplicated from cache.
    """
    payload = {
        "design": design_fingerprint,
        "until": request.until,
        "vcd": bool(request.vcd),
        "options": semantic_options(request.options),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True,
                   separators=(",", ":")).encode("utf-8")).hexdigest()


def catalog_sha(catalog: Dict[str, bytes]) -> str:
    """Content hash of the compiled design catalog (fingerprints only —
    the fingerprints already content-address the designs)."""
    return hashlib.sha256(
        "\n".join(sorted(catalog)).encode("utf-8")).hexdigest()


@dataclass
class JournalState:
    """Everything a resume needs, parsed from an existing journal."""

    path: str
    catalog_sha: str
    #: run name -> request fingerprint, from the header.
    runs: Dict[str, str]
    #: run name -> journaled ``RunOutcome.to_dict()`` payload.
    terminal: Dict[str, dict] = field(default_factory=dict)
    #: run name -> attempt event records, in append order.
    attempts: Dict[str, List[dict]] = field(default_factory=dict)

    def verify(self, fingerprints: Dict[str, str],
               catalog: str) -> None:
        """Refuse to resume against a different request set.

        Raises :class:`~repro.errors.BatchError` with a single-line
        message on any divergence — run set, per-run fingerprint, or
        design catalog.
        """
        if set(fingerprints) != set(self.runs):
            missing = sorted(set(self.runs) - set(fingerprints))[:3]
            extra = sorted(set(fingerprints) - set(self.runs))[:3]
            raise BatchError(
                f"journal {self.path} does not match this manifest: "
                f"run set differs (journal-only: {missing or 'none'}, "
                f"manifest-only: {extra or 'none'})")
        for name, fingerprint in sorted(fingerprints.items()):
            if self.runs[name] != fingerprint:
                raise BatchError(
                    f"journal {self.path} does not match this manifest: "
                    f"run {name!r} fingerprint changed "
                    f"({self.runs[name][:12]}... -> {fingerprint[:12]}...)")
        if self.catalog_sha != catalog:
            raise BatchError(
                f"journal {self.path} does not match this manifest: "
                f"design catalog changed ({self.catalog_sha[:12]}... -> "
                f"{catalog[:12]}...)")


#: The records a resume reads, checked with :func:`repro.api.check`.
#: Every record is an object with a string ``kind``; the other kinds
#: (``resume`` and serve's audit kinds) are not read back.
RECORDS = {
    "header": Table({"kind": str, "schema": Literal[JOURNAL_SCHEMA],
                     "catalog_sha": str, "runs": Dict[str, str]},
                    required=("kind", "schema", "catalog_sha", "runs")),
    "attempt": Table({"kind": str, "run": str, "attempt": int, "event": str,
                      "failure_kind": str, "error": str, "worker_pid": int,
                      "delay": float},
                     required=("kind", "run", "attempt", "event")),
    "terminal": Table({"kind": str, "run": str, "outcome": dict,
                       "coalesced_with": str},
                      required=("kind", "run", "outcome")),
}
_KIND = Table({"kind": str})


def read_journal(path: str) -> JournalState:
    """Parse a journal for resume.

    Tolerates exactly one torn *final* line (a controller killed
    mid-append); any other malformation, a record that does not fit
    its :data:`RECORDS` table included, raises
    :class:`~repro.errors.BatchError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise BatchError(f"cannot read batch journal {path}: {exc}") \
            from exc
    if not lines:
        raise BatchError(f"batch journal {path} is empty")
    records: List[dict] = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if index == len(lines) - 1:
                break  # torn final append from a killed controller
            raise BatchError(
                f"batch journal {path} is corrupt at line "
                f"{index + 1}: {exc}") from exc
        where = f"batch journal {path} line {index + 1}"
        try:
            check(record, dict, where)
            check({"kind": record.get("kind")}, _KIND, where)
            if record["kind"] in RECORDS:
                check(record, RECORDS[record["kind"]], where)
        except RequestError as exc:
            raise BatchError(str(exc)) from exc
        records.append(record)
    if not records or records[0]["kind"] != "header":
        raise BatchError(
            f"batch journal {path} has no {JOURNAL_SCHEMA} header")
    state = JournalState(path=path, catalog_sha=records[0]["catalog_sha"],
                         runs=dict(records[0]["runs"]))
    for record in records[1:]:
        if record["kind"] == "attempt":
            state.attempts.setdefault(record["run"], []).append(record)
        elif record["kind"] == "terminal":
            state.terminal[record["run"]] = record["outcome"]
    return state


class BatchJournal:
    """Append-only writer.  One record per line, flushed per append —
    a killed controller loses at most the line being written."""

    def __init__(self, handle: IO[str], path: str) -> None:
        self._handle = handle
        self.path = path

    @classmethod
    def create(cls, path: str, runs: Dict[str, str],
               catalog: str) -> "BatchJournal":
        """Start a fresh journal (truncates any previous one)."""
        handle = open(path, "w", encoding="utf-8")
        journal = cls(handle, path)
        journal.append({"kind": "header", "schema": JOURNAL_SCHEMA,
                        "catalog_sha": catalog,
                        "runs": {name: runs[name] for name in sorted(runs)}})
        return journal

    @classmethod
    def reopen(cls, path: str, restored: int) -> "BatchJournal":
        """Append to an existing journal (the resume path)."""
        handle = open(path, "a", encoding="utf-8")
        journal = cls(handle, path)
        journal.append({"kind": "resume", "restored": restored})
        return journal

    def append(self, record: dict) -> None:
        self._handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":")))
        self._handle.write("\n")
        self._handle.flush()

    def attempt(self, run: str, attempt: int, event: str,
                **extra) -> None:
        record = {"kind": "attempt", "run": run, "attempt": attempt,
                  "event": event}
        record.update({key: value for key, value in extra.items()
                       if value is not None})
        self.append(record)

    def terminal(self, run: str, outcome_payload: dict) -> None:
        self.append({"kind": "terminal", "run": run,
                     "outcome": outcome_payload})

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass

    def __enter__(self) -> "BatchJournal":
        return self

    def __exit__(self, *_exc) -> Optional[bool]:
        self.close()
        return None
