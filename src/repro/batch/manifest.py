"""Jobs-manifest loading for ``symsim batch``.

A manifest is one JSON document describing a set of runs::

    {
      "defaults": {"until": 5000, "vcd": true,
                   "options": {"accumulation": "full"}},
      "runs": [
        {"name": "gcd-w5", "design": "gcd",
         "params": {"rounds": 1, "width": 5}},
        {"name": "dram-seeded", "design": "dram", "until": 3000,
         "options": {"seed": 7}},
        {"name": "custom", "path": "rtl/top.v", "top": "tb",
         "options": {"budget": {"max_live_nodes": 200000}}}
      ]
    }

Each run names its design one of three ways: ``design`` (+ optional
``params``) loads a built-in benchmark from :mod:`repro.designs`;
``path`` points at a Verilog file, resolved relative to the manifest;
``source`` carries inline Verilog text.  ``defaults`` supplies the
``top``, ``defines``, ``until``, ``vcd`` and ``options`` a run does not
set (``options`` dictionaries are merged key-wise, the run's entries
winning).

The manifest, its ``defaults`` and each run are checked against their
tables in :func:`repro.api.tables`, so an unknown key anywhere is an
error.  The run shape *is* the ``repro.serve.request/1`` schema: this
module is a thin adapter over :mod:`repro.api`
(:func:`repro.api.parse_run`, :func:`repro.api.parse_retry`),
re-raising its :class:`~repro.errors.RequestError` as
:class:`~repro.errors.BatchError` so batch callers keep one exception
type.
"""

from __future__ import annotations

import json
import os
from typing import List

from repro import api
from repro.batch.request import RunRequest
from repro.errors import BatchError, RequestError


def _load_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise BatchError(f"cannot read manifest {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BatchError(f"manifest {path!r} is not valid JSON: {exc}") \
            from exc


def load_manifest(path: str) -> List[RunRequest]:
    """Parse a jobs manifest into the requests ``run_batch`` consumes."""
    document = _load_document(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        api.check(document, api.tables()["manifest"], f"manifest {path!r}")
        return [api.parse_run(run, defaults=document.get("defaults"),
                              base_dir=base_dir, where=f"run #{index}")
                for index, run in enumerate(document["runs"])]
    except RequestError as exc:
        raise BatchError(str(exc)) from exc


def load_policy(path: str):
    """Parse the manifest's optional top-level ``"retry"`` object into a
    :class:`~repro.batch.queue.RetryPolicy` (None when absent).

    Keys mirror the policy fields::

        {"retry": {"max_attempts": 4, "backoff_base": 0.5,
                   "backoff_cap": 10, "jitter_frac": 0.25, "seed": 7,
                   "retry_statuses": ["aborted"], "lease_timeout": 120}}

    CLI flags (``--max-attempts`` and friends) override manifest
    values; the CLI applies them on top of what this returns.
    """
    document = _load_document(path)
    where = f"manifest {path!r}"
    try:
        api.check(document, api.tables()["manifest"], where)
        if "retry" not in document:
            return None
        return api.parse_retry(document["retry"], where)
    except RequestError as exc:
        raise BatchError(str(exc)) from exc
