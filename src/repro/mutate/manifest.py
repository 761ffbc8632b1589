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
      "options": {"budget": {"wall_seconds": 60}},
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

The manifest and each variant are checked against their tables in
:func:`repro.api.tables` (``campaign``, ``variant``); design and option
parsing is a thin adapter over :mod:`repro.api` (the
``repro.serve.request/1`` schema, with ``inline=True`` so a ``path``
design is read into source text — the mutation engine works on text).
Anything malformed raises :class:`~repro.errors.MutationError`.
"""

from __future__ import annotations

import json
import os
from typing import Tuple

from repro import api
from repro.errors import MutationError, RequestError
from repro.mutate.campaign import CampaignConfig, Variant
from repro.mutate.operators import resolve_operators


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

    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        api.check(document, api.tables()["campaign"], f"manifest {path!r}")
        source, _path, top, defines = api.resolve_design(
            document, base_dir, "manifest", inline=True)
        options = api.parse_options(document.get("options", {}), "campaign")
        variants = []
        for index, spec in enumerate(document.get("variants", [])):
            api.check(spec, api.tables()["variant"], f"variant #{index}")
            name = spec["name"]
            if any(variant.name == name for variant in variants):
                raise MutationError(f"duplicate variant name {name!r}")
            v_source, _path, v_top, v_defines = api.resolve_design(
                spec, base_dir, f"variant {name!r}", inline=True)
            variants.append(Variant(name=name, source=v_source, top=v_top,
                                    defines=v_defines))
    except RequestError as exc:
        raise MutationError(str(exc)) from exc

    operators = document.get("operators")
    config = CampaignConfig(
        source=source, top=top, defines=defines,
        modules=document.get("modules"),
        operators=None if operators is None
        else resolve_operators(operators),
        seed=document.get("seed", 0),
        max_mutants=document.get("max_mutants"),
        until=document.get("until"), options=options, variants=variants,
        verify_witnesses=document.get("verify_witnesses", False))
    return config, document.get("workers", 1)
