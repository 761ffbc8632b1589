"""``repro.api`` — the canonical request/options schema
(``repro.serve.request/1``).

Four entry points accept "run this design with these options": ``symsim``
CLI flags, ``symsim batch`` manifests, ``symsim mutate`` manifests, and
HTTP submissions to the :mod:`repro.serve` front door.  Before this
module each hand-rolled its own :class:`~repro.sim.kernel.SimOptions` /
budget / retry parsing; now all four are thin adapters over one
implementation:

* :func:`parse_options` — the ``"options"`` mapping (``OPTION_KEYS``),
  including the ``seed`` and ``budget`` conveniences;
* :func:`parse_budgets` — the ``"budget"`` object →
  :class:`~repro.guard.ResourceBudgets`;
* :func:`parse_retry` — the ``"retry"`` object →
  :class:`~repro.batch.queue.RetryPolicy`;
* :func:`resolve_design` / :func:`parse_run` — one run spec (``design`` /
  ``path`` / ``source`` + ``params``/``top``/``defines``/``until``/
  ``vcd``/``options``) → a frozen :class:`~repro.batch.RunRequest`;
* :func:`options_from_flags` — the ``symsim`` argparse namespace routed
  through the same schema.

The module also owns the **semantic/operational option split** the
``BATCHJRNL/1`` journal and the serve result cache share:
:data:`OPERATIONAL_OPTIONS` names the :class:`SimOptions` fields that
never change what a simulation computes (paths, heartbeat cadence,
observability plumbing, the compiled tier toggle), and
:func:`semantic_options` folds the remaining fields into the
JSON-stable dict that request fingerprints hash.  Two requests with
equal semantic options (and design/seed/bound) produce byte-identical
results — which is exactly what lets a journaled outcome stand in for
a rerun and a served result be deduplicated from cache.

Every parse failure raises :class:`~repro.errors.RequestError` with a
single-line message naming the offending spec.
"""

from __future__ import annotations

import dataclasses
import enum
import os
import typing
from typing import Dict, Optional, Tuple

from repro.errors import ReproError, RequestError, VerilogSyntaxError

#: Version tag of the request schema all entry points parse.
REQUEST_SCHEMA = "repro.serve.request/1"

#: ``"options"`` mapping keys -> :class:`SimOptions` field.  ``seed``
#: is sugar for ``concrete_random``; ``budget`` builds a
#: :class:`~repro.guard.ResourceBudgets` via :func:`parse_budgets`.
OPTION_KEYS = {
    "accumulation": "accumulation",
    "seed": "concrete_random",
    "concrete_random": "concrete_random",
    "max_step_activity": "max_step_activity",
    "stop_on_violation": "stop_on_violation",
    "check_unknown_assert": "check_unknown_assert",
    "depth_first_priorities": "depth_first_priorities",
    "echo_output": "echo_output",
    "trace_stats": "trace_stats",
    "gc_threshold": "gc_threshold",
    "dyn_reorder": "dyn_reorder",
    "reorder_threshold": "reorder_threshold",
    "reorder_growth": "reorder_growth",
    "no_fastpath": "no_fastpath",
    "compile_tier": "compile_tier",
    "checkpoint_every": "checkpoint_every",
    "heartbeat_every": "heartbeat_every",
    "budget": "budgets",
}

#: :class:`SimOptions` fields excluded from request fingerprints: they
#: never change what a simulation computes.  Per-process objects the
#: batch forbids anyway (``obs``, ``heartbeat_callback``), operational
#: knobs the engine rewrites per worker/run (paths, heartbeat cadence,
#: interrupt handling), and ``compile_tier`` — the compiled tier is
#: bit-identical to the interpreter, so toggling it must not invalidate
#: a resumable journal or miss the serve result cache.  Everything else
#: is semantic and fingerprinted.
OPERATIONAL_OPTIONS = frozenset({
    "obs", "heartbeat_callback", "heartbeat_path", "heartbeat_every",
    "heartbeat_name", "vcd_path", "checkpoint_dir", "defer_interrupt",
    "compile_tier",
})


def canonical_option(value):
    """Fold an options field value into a JSON-stable shape."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {key: canonical_option(val)
                for key, val in sorted(dataclasses.asdict(value).items())}
    if isinstance(value, (list, tuple)):
        return [canonical_option(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical_option(val)
                for key, val in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # scripted chaos plans and other structured objects: stable repr of
    # their dataclass payloads where available, else repr
    faults = getattr(value, "faults", None)
    if faults is not None:
        return [canonical_option(fault) for fault in faults]
    return repr(value)


def semantic_options(options) -> Dict[str, object]:
    """The JSON-stable dict of an options object's *semantic* fields.

    This is the half of :class:`SimOptions` that request fingerprints
    hash — the ``BATCHJRNL/1`` journal refuses to resume across a
    change to any of these, and the serve result cache treats equality
    here (plus design/bound/VCD) as "same simulation".
    """
    return {
        f.name: canonical_option(getattr(options, f.name))
        for f in dataclasses.fields(options)
        if f.name not in OPERATIONAL_OPTIONS
    }


# ---------------------------------------------------------------------
# options / budget / retry parsing
# ---------------------------------------------------------------------

#: JSON values a field of each scalar type takes, and their name in an
#: error.  ``bool`` is a subclass of ``int`` in Python but not a number
#: in JSON, so no numeric field takes one.
_SCALARS = {
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool),
          "an integer"),
    float: (lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool), "a number"),
}


def _check_values(cls, values: Dict, where: str, what: str) -> None:
    """Reject a value whose JSON type does not fit its ``cls`` field.

    ``values`` maps the request's key to ``(field name, value)``.  The
    accepted type is read from the dataclass annotation: a ``bool``,
    ``int`` or ``float`` field, or an ``Optional`` one that also takes
    ``null``.  Fields of any other type are parsed by their own code.
    """
    hints = typing.get_type_hints(cls)
    for key, (name, value) in values.items():
        hint = hints[name]
        optional = typing.get_origin(hint) is typing.Union
        if optional:
            if value is None:
                continue
            hint = next(arg for arg in typing.get_args(hint)
                        if arg is not type(None))
        if hint not in _SCALARS:
            continue
        accepts, kind = _SCALARS[hint]
        if not accepts(value):
            raise RequestError(
                f"{where}: {what} {key!r} must be {kind}"
                f"{' or null' if optional else ''}, not {value!r}")


def parse_until(value, where: str) -> Optional[int]:
    """The ``"until"`` bound: a non-negative integer, or ``null`` to run
    to completion."""
    if value is not None and (not _SCALARS[int][0](value) or value < 0):
        raise RequestError(f"{where}: \"until\" must be a non-negative "
                           f"integer or null, not {value!r}")
    return value


def parse_budgets(spec: Dict, where: str):
    """The ``"budget"`` object → :class:`~repro.guard.ResourceBudgets`."""
    from repro.guard import ResourceBudgets

    if not isinstance(spec, dict):
        raise RequestError(f"{where}: budget must be an object")
    known = {f.name for f in dataclasses.fields(ResourceBudgets)}
    bad = set(spec) - known
    if bad:
        raise RequestError(f"{where}: unknown budget keys {sorted(bad)}")
    _check_values(ResourceBudgets,
                  {key: (key, value) for key, value in spec.items()},
                  where, "budget")
    try:
        return ResourceBudgets(**spec)
    except TypeError as exc:
        raise RequestError(f"{where}: bad budget object: {exc}") from exc


def parse_options(spec: Dict, where: str):
    """The ``"options"`` mapping → :class:`~repro.sim.SimOptions`.

    The one implementation behind every entry point.  Unknown keys are
    an error (single-line, naming the known set), and so is a value of
    the wrong JSON type for its field; ``accumulation`` accepts the
    mode name; ``budget`` routes through :func:`parse_budgets`.
    """
    from repro.compile.instructions import AccumulationMode
    from repro.sim import SimOptions

    if not isinstance(spec, dict):
        raise RequestError(f"{where}: \"options\" must be an object")
    for key in spec:
        if key not in OPTION_KEYS:
            raise RequestError(
                f"{where}: unknown option {key!r} "
                f"(known: {sorted(OPTION_KEYS)})")
    _check_values(SimOptions,
                  {key: (OPTION_KEYS[key], value)
                   for key, value in spec.items()},
                  where, "option")
    fields = {}
    for key, value in spec.items():
        if key == "accumulation":
            if not isinstance(value, AccumulationMode):
                try:
                    value = AccumulationMode[str(value).upper()]
                except KeyError:
                    raise RequestError(
                        f"{where}: unknown accumulation mode "
                        f"{value!r}") from None
        elif key == "budget":
            value = parse_budgets(value, where)
        fields[OPTION_KEYS[key]] = value
    try:
        return SimOptions(**fields)
    except TypeError as exc:
        raise RequestError(f"{where}: bad options: {exc}") from exc


def parse_retry(spec: Dict, where: str):
    """The ``"retry"`` object → :class:`~repro.batch.queue.RetryPolicy`.

    Keys mirror the policy fields::

        {"max_attempts": 4, "backoff_base": 0.5, "backoff_cap": 10,
         "jitter_frac": 0.25, "seed": 7,
         "retry_statuses": ["aborted"], "lease_timeout": 120}
    """
    from repro.batch.queue import RetryPolicy

    if not isinstance(spec, dict):
        raise RequestError(f"{where}: \"retry\" must be an object")
    known = {f.name for f in dataclasses.fields(RetryPolicy)}
    bad = set(spec) - known
    if bad:
        raise RequestError(
            f"{where}: unknown retry keys {sorted(bad)} "
            f"(known: {sorted(known)})")
    fields = dict(spec)
    if "retry_statuses" in fields:
        statuses = fields["retry_statuses"]
        if not isinstance(statuses, list):
            raise RequestError(f"{where}: retry_statuses must be an array")
        fields["retry_statuses"] = frozenset(str(s) for s in statuses)
    try:
        return RetryPolicy(**fields)
    except (TypeError, ReproError) as exc:
        # RetryPolicy validates in __post_init__ with BatchError; fold
        # both shapes into the schema's single-line error contract.
        raise RequestError(f"{where}: bad retry object: {exc}") from exc


# ---------------------------------------------------------------------
# run specs (manifest runs / HTTP submissions)
# ---------------------------------------------------------------------


def resolve_design(spec: Dict, base_dir: Optional[str], where: str,
                   inline: bool = False) -> Tuple[
                       Optional[str], Optional[str], object, object]:
    """Resolve a spec's design: ``(source, path, top, defines)``.

    A spec names its design exactly one of three ways: ``design``
    (+ optional ``params``) loads a built-in benchmark from
    :mod:`repro.designs`; ``path`` points at a Verilog file, resolved
    relative to ``base_dir`` (with ``base_dir=None`` — the HTTP entry
    point — only absolute paths are accepted); ``source`` carries
    inline Verilog text.  With ``inline=True`` a ``path`` design is
    read immediately and returned as source (the mutation engine works
    on text); otherwise the path is returned for the lazy
    :class:`~repro.batch.RunRequest` read.
    """
    ways = [key for key in ("design", "path", "source") if key in spec]
    if len(ways) != 1:
        raise RequestError(
            f"{where}: give exactly one of \"design\", \"path\" "
            f"or \"source\" (got {ways or 'none'})")
    source: Optional[str] = None
    file_path: Optional[str] = None
    top = spec.get("top")
    if top is not None and not isinstance(top, str):
        raise RequestError(
            f"{where}: \"top\" must be a string or null, not {top!r}")
    defines = spec.get("defines")
    if defines is not None and (not isinstance(defines, dict) or not all(
            isinstance(value, str) for value in defines.values())):
        raise RequestError(
            f"{where}: \"defines\" must be an object of strings or null, "
            f"not {defines!r}")
    defines = dict(defines or {})
    if "design" in spec:
        from repro import designs

        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise RequestError(f"{where}: \"params\" must be an object")
        try:
            source, top, builtin_defines = designs.load(
                spec["design"], **params)
        except (KeyError, TypeError) as exc:
            raise RequestError(f"{where}: {exc}") from exc
        # built-in workload macros first; explicit defines override
        defines = {**builtin_defines, **defines}
    elif "path" in spec:
        file_path = spec["path"]
        if not isinstance(file_path, str) or not file_path:
            raise RequestError(f"{where}: \"path\" must be a non-empty "
                               "string")
        if not os.path.isabs(file_path):
            if base_dir is None:
                raise RequestError(
                    f"{where}: \"path\" must be absolute here "
                    f"(got {file_path!r})")
            file_path = os.path.join(base_dir, file_path)
        if inline:
            from repro.frontend import read_source_file

            try:
                source = read_source_file(file_path)
            except OSError as exc:
                raise RequestError(
                    f"{where}: cannot read source file {file_path!r}: "
                    f"{exc}") from exc
            except VerilogSyntaxError as exc:
                raise RequestError(f"{where}: {exc}") from None
            file_path = None
        elif not os.path.exists(file_path):
            raise RequestError(
                f"{where}: source file {file_path!r} not found")
    else:
        source = spec["source"]
        if not isinstance(source, str) or not source:
            raise RequestError(f"{where}: \"source\" must be a non-empty "
                               "string")
    return source, file_path, top, (defines or None)


def parse_run(spec: Dict, defaults: Optional[Dict] = None,
              base_dir: Optional[str] = None,
              where: Optional[str] = None,
              name: Optional[str] = None):
    """One run spec → a frozen :class:`~repro.batch.RunRequest`.

    ``spec`` is the manifest-run / HTTP-submission shape: ``name``,
    the design (one of ``design``/``path``/``source``), ``params``,
    ``top``, ``defines``, ``until``, ``vcd`` and ``options``.
    ``defaults`` supplies any per-run field not set on the spec itself
    (``options`` dictionaries are merged key-wise, the spec's entries
    winning).  ``name`` overrides the spec's (the serve front door
    assigns run ids server-side).
    """
    from repro.batch.request import RunRequest

    defaults = defaults or {}
    if not isinstance(spec, dict):
        raise RequestError(f"{where or 'run spec'} is not an object")
    run_name = name if name is not None else spec.get("name")
    if not run_name or not isinstance(run_name, str):
        raise RequestError(f"{where or 'run spec'} needs a \"name\"")
    where = where or f"run {run_name!r}"

    merged = dict(defaults)
    merged.update(spec)
    # design identity never merges from defaults — a run must say what
    # it simulates; everything else (top/defines/until/vcd/options) may.
    design_spec = {key: spec[key]
                   for key in ("design", "params", "path", "source")
                   if key in spec}
    for key in ("top", "defines"):
        if key in merged:
            design_spec[key] = merged[key]
    source, file_path, top, defines = resolve_design(
        design_spec, base_dir, where)

    option_spec = {**(defaults.get("options") or {}),
                   **(spec.get("options") or {})}
    try:
        return RunRequest(
            name=run_name,
            source=source,
            path=file_path,
            top=top,
            defines=defines,
            options=parse_options(option_spec, where),
            until=parse_until(merged.get("until"), where),
            vcd=bool(merged.get("vcd", False)),
        )
    except TypeError as exc:
        raise RequestError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------
# the CLI adapter
# ---------------------------------------------------------------------


def options_from_flags(args, obs=None):
    """The ``symsim`` argparse namespace → :class:`SimOptions`.

    Semantic flags route through :func:`parse_options` — the same
    schema a manifest or HTTP submission uses — and the operational
    fields the schema deliberately excludes (the ``obs`` bundle, paths,
    interrupt handling) are applied on top.
    """
    spec = {
        "accumulation": args.accumulation,
        "stop_on_violation": not args.continue_on_violation,
        "echo_output": not args.quiet,
        "concrete_random": args.random_seed,
        "trace_stats": obs is not None and obs.metrics is not None,
        "gc_threshold": args.gc_threshold,
        "dyn_reorder": args.dyn_reorder,
        "reorder_threshold": args.reorder_threshold,
        "no_fastpath": args.no_fastpath,
        "compile_tier": not args.no_compile,
        "checkpoint_every": args.checkpoint_every,
        "heartbeat_every": args.heartbeat_every,
    }
    budget_spec = {}
    if args.budget_seconds is not None:
        budget_spec["wall_seconds"] = args.budget_seconds
    if args.budget_nodes is not None:
        budget_spec["max_live_nodes"] = args.budget_nodes
    if args.budget_rss_mb is not None:
        budget_spec["max_rss_mb"] = args.budget_rss_mb
    if args.budget_events is not None:
        budget_spec["max_events"] = args.budget_events
    if budget_spec:
        budget_spec["max_concretizations"] = args.max_concretize
        spec["budget"] = budget_spec
    options = parse_options(spec, "command line")
    return dataclasses.replace(
        options,
        obs=obs,
        checkpoint_dir=args.checkpoint_dir,
        heartbeat_path=args.heartbeat,
    )
