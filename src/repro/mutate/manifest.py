"""Campaign-manifest loading for ``symsim mutate``.

A campaign manifest is one JSON document describing a single design
plus the mutation knobs::

    {
      "design": "mcu8",
      "params": {"runtime": 80, "fixed": true},
      "operators": ["opswap", "cmpswap"],
      "seed": 7,
      "max_mutants": 40,
      "until": 100,
      "workers": 4,
      "options": {"budget": {"max_wall_seconds": 60}},
      "verify_witnesses": true,
      "variants": [
        {"name": "planted-addc", "design": "mcu8",
         "params": {"runtime": 80}}
      ]
    }

The design is named exactly like a batch-manifest run: one of
``design`` (+``params``, a built-in from :mod:`repro.designs`),
``path`` (resolved relative to the manifest) or ``source`` (inline
text).  ``modules`` restricts mutation to specific modules (default:
everything except the top — see :func:`repro.mutate.build_plan`).
``options`` accepts the same keys as a batch manifest (``seed`` there
means ``concrete_random``; the *mutation* seed is the top-level
``seed`` key).  ``variants`` lists explicit pre-built designs — e.g.
planted-bug editions — classified alongside the generated mutants.

Design and option parsing is a thin adapter over :mod:`repro.api`
(the ``repro.serve.request/1`` schema, with ``inline=True`` so a
``path`` design is read into source text — the mutation engine works
on text).  Anything malformed raises
:class:`~repro.errors.MutationError`.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

from repro import api
from repro.errors import MutationError, RequestError
from repro.mutate.campaign import CampaignConfig, Variant
from repro.mutate.operators import resolve_operators


def _design(spec: Dict, base_dir: str, label: str
            ) -> Tuple[str, object, object]:
    """:func:`repro.api.resolve_design` with the mutation-engine error
    type; ``inline=True`` reads ``path`` designs into source text."""
    try:
        source, _path, top, defines = api.resolve_design(
            spec, base_dir, label, inline=True)
    except RequestError as exc:
        raise MutationError(str(exc)) from exc
    return source, top, defines


def load_campaign(path: str) -> Tuple[CampaignConfig, int]:
    """Parse a campaign manifest; returns (config, workers)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise MutationError(f"cannot read manifest {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MutationError(
            f"manifest {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise MutationError(f"manifest {path!r} must be a JSON object")

    known = {"design", "params", "path", "source", "top", "defines",
             "modules", "operators", "seed", "max_mutants", "until",
             "workers", "options", "variants", "verify_witnesses"}
    bad = set(document) - known
    if bad:
        raise MutationError(
            f"manifest {path!r}: unknown key(s) {sorted(bad)} "
            f"(known: {sorted(known)})")

    base_dir = os.path.dirname(os.path.abspath(path))
    source, top, defines = _design(document, base_dir, "manifest")

    modules = document.get("modules")
    if modules is not None and (
            not isinstance(modules, list)
            or not all(isinstance(m, str) for m in modules)):
        raise MutationError("manifest: \"modules\" must be an array of "
                            "module names")
    operators = document.get("operators")
    if operators is not None:
        if not isinstance(operators, list):
            raise MutationError("manifest: \"operators\" must be an array")
        operators = resolve_operators(operators)

    # the request schema's JSON-type rule: no bool passes as a number
    is_int, is_bool = api._SCALARS[int][0], api._SCALARS[bool][0]
    seed = document.get("seed", 0)
    if not is_int(seed):
        raise MutationError(
            f"manifest: \"seed\" must be an integer, not {seed!r}")
    max_mutants = document.get("max_mutants")
    if max_mutants is not None and (
            not is_int(max_mutants) or max_mutants < 0):
        raise MutationError(
            "manifest: \"max_mutants\" must be a non-negative integer "
            f"or null, not {max_mutants!r}")
    workers = document.get("workers", 1)
    if not is_int(workers) or workers < 1:
        raise MutationError(
            f"manifest: \"workers\" must be an integer >= 1, "
            f"not {workers!r}")
    verify_witnesses = document.get("verify_witnesses", False)
    if not is_bool(verify_witnesses):
        raise MutationError(
            "manifest: \"verify_witnesses\" must be a boolean, "
            f"not {verify_witnesses!r}")

    try:
        until = api.parse_until(document.get("until"), "manifest")
        options = api.parse_options(document.get("options", {}), "campaign")
    except RequestError as exc:
        raise MutationError(str(exc)) from exc

    variants = []
    seen = set()
    for index, spec in enumerate(document.get("variants", [])):
        if not isinstance(spec, dict):
            raise MutationError(f"variant #{index} is not an object")
        name = spec.get("name")
        if not name or not isinstance(name, str):
            raise MutationError(f"variant #{index} needs a \"name\"")
        if name in seen:
            raise MutationError(f"duplicate variant name {name!r}")
        seen.add(name)
        v_source, v_top, v_defines = _design(
            spec, base_dir, f"variant {name!r}")
        variants.append(Variant(name=name, source=v_source, top=v_top,
                                defines=v_defines))

    config = CampaignConfig(
        source=source, top=top, defines=defines, modules=modules,
        operators=operators, seed=seed, max_mutants=max_mutants,
        until=until, options=options, variants=variants,
        verify_witnesses=verify_witnesses)
    return config, workers
