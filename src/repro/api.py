"""``repro.api`` — the canonical request/options schema
(``repro.serve.request/1``).

Four entry points accept "run this design with these options": ``symsim``
CLI flags, ``symsim batch`` manifests, ``symsim mutate`` manifests, and
HTTP submissions to the :mod:`repro.serve` front door.  All four are
thin adapters over one implementation:

* :func:`check` — the one checker.  It walks a JSON document against a
  :class:`Table`, the keys of one object kind and the shape of each
  value, and rejects unknown keys, missing keys, values of the wrong
  JSON type and values out of range.  :func:`tables` holds the table
  of every input document: the dataclasses' type hints where a
  dataclass exists (``SimOptions``, ``ResourceBudgets``,
  ``RetryPolicy``, ``TenantQuota``; a built-in design's ``params``
  take its loader's signature), one literal table elsewhere.
* :func:`parse` — check a document and build its dataclass;
  :func:`parse_options`, :func:`parse_budgets` and :func:`parse_retry`
  name it for the ``"options"``, ``"budget"`` and ``"retry"`` objects.
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
single-line message naming the offending spec and key.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import os
import reprlib
import typing
from typing import Annotated, Dict, List, Literal, Optional, Tuple

from repro.errors import BatchError, RequestError, VerilogSyntaxError

#: Version tag of the request schema all entry points parse.
REQUEST_SCHEMA = "repro.serve.request/1"

#: ``"options"`` mapping keys -> :class:`SimOptions` field.  ``seed``
#: is sugar for ``concrete_random``; ``budget`` builds a
#: :class:`~repro.guard.ResourceBudgets`.
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
# the checker
# ---------------------------------------------------------------------

#: Shorthands: a count (an integer >= 0) and a name (a non-empty string).
_COUNT = Annotated[int, 0]
_NAME = Annotated[str, 1]

#: JSON values each leaf shape takes, and its name in an error.
#: ``bool`` is a subclass of ``int`` in Python but not a number in
#: JSON, so no numeric shape takes one.
_LEAVES = {
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool),
          "an integer"),
    float: (lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool), "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    dict: (lambda v: isinstance(v, dict), "an object"),
    list: (lambda v: isinstance(v, list), "an array"),
}


@dataclasses.dataclass(frozen=True)
class Table:
    """The keys of one kind of JSON object and the shape of each value.

    A shape is another table, a leaf (``bool``, ``int``, ``float``,
    ``str``, ``dict``, ``list``), an :class:`~enum.Enum` (taken by
    member name), ``Optional[...]`` (adds ``null``), ``List[...]``,
    ``Dict[str, ...]``, ``Literal[tag]`` (a version tag) or
    ``Annotated[shape, n]``: a number at least ``n`` or, with ``n = 1``,
    a non-empty string or array.

    No key outside ``keys`` is accepted and every ``required`` key must
    be present.  An error names a key ``{noun} 'key'``, or as in JSON
    (``"key"``) when the table has no noun.  A table read off a
    dataclass (:func:`_table_of`) keeps the class and each key's field
    name, so :func:`parse` can build it.
    """

    keys: Dict[str, object]
    required: Tuple[str, ...] = ()
    noun: str = ""
    cls: Optional[type] = None
    fields: Dict[str, str] = dataclasses.field(default_factory=dict)

    def label(self, key) -> str:
        return f"{self.noun} {key!r}" if self.noun else json.dumps(key)


def _table_of(cls, noun: str, keys: Optional[Dict[str, str]] = None,
              minimum: Optional[Dict[str, int]] = None, **shapes) -> Table:
    """The table of dataclass ``cls``.

    ``keys`` maps each key to its field (default: one key per field).
    A key's shape is its field's type hint unless ``shapes`` gives one,
    bounded below by ``minimum``.
    """
    hints = typing.get_type_hints(cls)
    keys = keys or {f.name: f.name for f in dataclasses.fields(cls)}
    table = {key: shapes.get(key, hints[name]) for key, name in keys.items()}
    for key, bound in (minimum or {}).items():
        shape, optional = _unwrap(table[key])
        table[key] = Optional[Annotated[shape, bound]] if optional \
            else Annotated[shape, bound]
    return Table(table, noun=noun, cls=cls, fields=dict(keys))


def _unwrap(shape) -> Tuple[object, bool]:
    """``(shape, True)`` for ``Optional[shape]``, else ``(shape, False)``."""
    if typing.get_origin(shape) is typing.Union:
        inner, = (arg for arg in typing.get_args(shape)
                  if arg is not type(None))
        return inner, True
    return shape, False


def _fits(value, shape) -> bool:
    shape, optional = _unwrap(shape)
    if value is None:
        return optional
    origin, args = typing.get_origin(shape), typing.get_args(shape)
    if origin is Annotated:
        return _fits(value, args[0]) and (
            value if isinstance(value, (int, float)) else len(value)
        ) >= args[1]
    if origin is list:
        return isinstance(value, list) and all(
            _fits(item, args[0]) for item in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _fits(item, args[1]) for item in value.values())
    if origin is Literal:
        return value in args
    if isinstance(shape, Table):
        return isinstance(value, dict)
    if isinstance(shape, enum.EnumMeta):
        return isinstance(value, shape) or (
            isinstance(value, str) and value.upper() in shape.__members__)
    return _LEAVES[shape][0](value)


def _kind(shape) -> str:
    """What ``shape`` takes, as an error names it (``"an integer >= 0"``)."""
    shape, optional = _unwrap(shape)
    origin, args = typing.get_origin(shape), typing.get_args(shape)
    if origin is Annotated:
        kind = _kind(args[0])
        kind = f"{kind} >= {args[1]}" if args[0] in (int, float) \
            else "a non-empty " + kind.split(" ", 1)[1]
    elif origin in (list, dict):
        kind = f"{_kind(origin)} of {_kind(args[-1]).split(' ', 1)[1]}s"
    elif origin is Literal:
        kind = " or ".join(map(repr, args))
    elif isinstance(shape, Table):
        kind = "an object"
    elif isinstance(shape, enum.EnumMeta):
        kind = f"one of {[name.lower() for name in shape.__members__]}"
    else:
        kind = _LEAVES[shape][1]
    return kind + (" or null" if optional else "")


def check(document, shape, where: str) -> None:
    """Check a JSON ``document`` against ``shape``.

    Raises one single-line :class:`~repro.errors.RequestError`:
    ``"{where} is not ..."`` when the document itself has the wrong
    type, else ``"{where}: ..."`` naming the first offending key:
    unknown (with the known set), missing, or holding a value of the
    wrong JSON type or out of range.  Nested tables report under the
    same ``where``.
    """
    if not _fits(document, shape):
        raise RequestError(f"{where} is not {_kind(shape)}")
    if isinstance(shape, Table):
        _check_keys(document, shape, where)


def _check_keys(document: Dict, table: Table, where: str) -> None:
    unknown = sorted(set(document) - set(table.keys), key=str)
    if unknown:
        raise RequestError(
            f"{where}: unknown {table.noun + ' ' if table.noun else ''}"
            f"keys {unknown} (known: {sorted(table.keys)})")
    for key, value in document.items():
        shape = table.keys[key]
        if not _fits(value, shape):
            tag = _unwrap(shape)[0]
            if typing.get_origin(tag) is Literal:
                raise RequestError(
                    f"{where}: unsupported {key} {reprlib.repr(value)} "
                    f"(want {_kind(tag)})")
            raise RequestError(
                f"{where}: {table.label(key)} must be {_kind(shape)}, "
                f"not {reprlib.repr(value)}")
        if isinstance(shape, Table):
            _check_keys(value, shape, where)
    missing = sorted(set(table.required) - set(document))
    if missing:
        raise RequestError(f"{where}: {table.label(missing[0])} is required")


def _build(table: Table, document: Dict):
    fields = {}
    for key, value in document.items():
        shape = table.keys[key]
        if isinstance(shape, Table):
            value = _build(shape, value)
        elif isinstance(shape, enum.EnumMeta) and isinstance(value, str):
            value = shape[value.upper()]
        fields[table.fields[key]] = value
    return table.cls(**fields)


def parse(document, kind: str, where: str):
    """Check ``document`` against the ``kind`` table (:func:`tables`)
    and build the dataclass that table was read from."""
    table = tables()[kind]
    check(document, table, where)
    return _build(table, document)


@functools.cache
def tables() -> Dict[str, Table]:
    """The table of every input document, by document kind.

    The dataclasses' type hints are the tables of ``options``,
    ``budget``, ``retry`` and ``quota`` (one ``--tenants`` entry);
    the run spec, its ``defaults``, the batch ``manifest``, the mutation
    ``campaign`` and its ``variant`` s and the serve ``body`` are
    literal.  Built on first use: the dataclasses' modules import this
    one.
    """
    from repro.batch.queue import RetryPolicy
    from repro.guard import ResourceBudgets
    from repro.serve.scheduler import TenantQuota
    from repro.sim import SimOptions

    budget = _table_of(ResourceBudgets, "budget", minimum=dict.fromkeys(
        (f.name for f in dataclasses.fields(ResourceBudgets)), 0))
    options = _table_of(SimOptions, "option", OPTION_KEYS, budget=budget,
                       minimum={"checkpoint_every": 1})
    retry = _table_of(RetryPolicy, "retry", retry_statuses=List[str])
    design = {"design": _NAME, "params": dict, "path": _NAME,
              "source": _NAME, "top": Optional[str],
              "defines": Optional[Dict[str, str]]}
    defaults = Table({"top": Optional[str],
                      "defines": Optional[Dict[str, str]],
                      "until": Optional[_COUNT], "vcd": bool,
                      "options": options})
    run = {**design, **defaults.keys, "name": _NAME}
    return {
        "options": options,
        "budget": budget,
        "retry": retry,
        "quota": _table_of(
            TenantQuota, "quota",
            {"max_in_flight": "max_in_flight", "max_pending": "max_pending",
             "budget": "budgets"},
            minimum={"max_in_flight": 1, "max_pending": 0}, budget=budget),
        "defaults": defaults,
        "run": Table(run, required=("name",)),
        "body": Table({**run, "schema": Optional[Literal[REQUEST_SCHEMA]],
                       "tenant": _NAME}),
        "manifest": Table({"runs": Annotated[list, 1], "defaults": defaults,
                           "retry": retry}, required=("runs",)),
        "campaign": Table({
            **design, "modules": Optional[List[str]],
            "operators": Optional[List[str]], "seed": int,
            "max_mutants": Optional[_COUNT], "until": Optional[_COUNT],
            "workers": Annotated[int, 1], "options": options,
            "variants": list, "verify_witnesses": bool}),
        "variant": Table({**design, "name": _NAME}, required=("name",)),
    }


@functools.cache
def _params(loader) -> Table:
    """The ``"params"`` table of a built-in design: its loader's
    signature."""
    hints = typing.get_type_hints(loader)
    hints.pop("return", None)
    return Table(hints, noun="params")


# ---------------------------------------------------------------------
# options / budget / retry parsing
# ---------------------------------------------------------------------


def parse_budgets(spec: Dict, where: str):
    """The ``"budget"`` object → :class:`~repro.guard.ResourceBudgets`."""
    return parse(spec, "budget", where)


def parse_options(spec: Dict, where: str):
    """The ``"options"`` mapping → :class:`~repro.sim.SimOptions`.

    The one implementation behind every entry point: ``accumulation``
    takes the mode name (or the enum), ``budget`` a
    :class:`~repro.guard.ResourceBudgets` object.
    """
    return parse(spec, "options", where)


def parse_retry(spec: Dict, where: str):
    """The ``"retry"`` object → :class:`~repro.batch.queue.RetryPolicy`.

    Keys mirror the policy fields::

        {"max_attempts": 4, "backoff_base": 0.5, "backoff_cap": 10,
         "jitter_frac": 0.25, "seed": 7,
         "retry_statuses": ["aborted"], "lease_timeout": 120}
    """
    try:
        return parse(spec, "retry", where)
    except BatchError as exc:
        # RetryPolicy validates its ranges in __post_init__
        raise RequestError(f"{where}: bad retry object: {exc}") from exc


# ---------------------------------------------------------------------
# run specs (manifest runs / HTTP submissions)
# ---------------------------------------------------------------------


def resolve_design(spec: Dict, base_dir: Optional[str], where: str,
                   inline: bool = False) -> Tuple[
                       Optional[str], Optional[str], object, object]:
    """Resolve a checked spec's design: ``(source, path, top, defines)``.

    A spec names its design exactly one of three ways: ``design``
    (+ optional ``params``, checked against the built-in loader's
    signature) loads a built-in benchmark from :mod:`repro.designs`;
    ``path`` points at a Verilog file, resolved relative to
    ``base_dir`` (with ``base_dir=None`` — the HTTP entry point — only
    absolute paths are accepted); ``source`` carries inline Verilog
    text.  With ``inline=True`` a ``path`` design is read immediately
    and returned as source (the mutation engine works on text);
    otherwise the path is returned for the lazy
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
    defines = dict(spec.get("defines") or {})
    if "design" in spec:
        from repro import designs

        try:
            loader = designs.loader(spec["design"])
        except KeyError as exc:
            raise RequestError(f"{where}: {exc.args[0]}") from None
        params = spec.get("params", {})
        check(params, _params(loader), where)
        source, top, builtin_defines = loader(**params)
        # built-in workload macros first; explicit defines override
        defines = {**builtin_defines, **defines}
    elif "path" in spec:
        file_path = spec["path"]
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
            except (OSError, ValueError) as exc:
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
    return source, file_path, top, (defines or None)


def parse_run(spec: Dict, defaults: Optional[Dict] = None,
              base_dir: Optional[str] = None,
              where: Optional[str] = None,
              name: Optional[str] = None, kind: str = "run"):
    """One run spec → a frozen :class:`~repro.batch.RunRequest`.

    ``spec`` is checked against the ``kind`` table: ``"run"`` (a
    manifest run: ``name``, the design — one of ``design``/``path``/
    ``source`` — ``params``, ``top``, ``defines``, ``until``, ``vcd``
    and ``options``) or ``"body"`` (an HTTP submission, which adds
    ``schema`` and ``tenant``).  ``defaults`` supplies the ``top``,
    ``defines``, ``until``, ``vcd`` and ``options`` a spec does not set
    (``options`` dictionaries are merged key-wise, the spec's entries
    winning); design identity never comes from defaults.  ``name``
    overrides the spec's (the serve front door assigns run ids
    server-side).  Errors name the run; ``where`` names a spec that
    has no name.
    """
    from repro.batch.request import RunRequest

    where = where or "run spec"
    check(spec, dict, where)
    if name is not None:
        spec = {**spec, "name": name}
    if "name" in spec:
        where = f"run {spec['name']!r}"
    check(spec, tables()[kind], where)
    identity = tables()["run"].keys.keys() - tables()["defaults"].keys.keys()
    inherited = {key: value for key, value in (defaults or {}).items()
                 if key not in identity}
    check(inherited, tables()["defaults"], where)
    merged = {**inherited, **spec}
    source, file_path, top, defines = resolve_design(merged, base_dir, where)
    return RunRequest(
        name=spec["name"],
        source=source,
        path=file_path,
        top=top,
        defines=defines,
        options=parse_options({**inherited.get("options", {}),
                               **spec.get("options", {})}, where),
        until=merged.get("until"),
        vcd=merged.get("vcd", False),
    )


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
