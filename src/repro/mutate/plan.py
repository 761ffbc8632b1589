"""Deterministic, seeded mutation plans.

A :class:`MutationPlan` is the reproducible contract of a campaign: it
fixes the canonical baseline source (the original design parsed once
and pretty-printed), enumerates every applicable mutation site in
deterministic walk order, and — when ``max_mutants`` caps the campaign
— selects a seeded random subset *restored to enumeration order*, so
the same ``(design, operators, seed, max_mutants)`` always yields a
byte-identical plan (``to_json`` is canonical: sorted keys, fixed
indentation).

Plans are built from source, not from a compiled ``Program``: the
mutation seam is the parsed AST (see :mod:`repro.mutate.operators`),
and printing the mutated AST yields an ordinary source string that the
batch engine compiles once per mutant through its existing
compile-once catalog.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import random
from typing import Dict, List, Optional, Sequence

from repro.errors import MutationError
from repro.frontend import ast_nodes as ast_mod
from repro.frontend.elaborate import elaborate
from repro.frontend.parser import parse_source
from repro.frontend.printer import print_modules
from repro.mutate import operators as ops

#: Schema tag stamped on serialized plans.
PLAN_SCHEMA = "repro.mutate.plan/1"


@dataclasses.dataclass(frozen=True)
class PlannedMutant:
    """One planned mutant: a site plus its stable campaign identity."""

    id: str
    operator: str
    module: str
    ordinal: int
    line: int
    description: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class MutationPlan:
    """The deterministic enumeration of a campaign's mutants."""

    top: str
    design_sha: str
    baseline_sha: str
    operators: List[str]
    target_modules: List[str]
    seed: int
    max_mutants: Optional[int]
    total_sites: int
    mutants: List[PlannedMutant]
    baseline_source: str = dataclasses.field(repr=False)
    #: Parsed baseline AST; each mutant copies only the module it
    #: mutates (:func:`_mutated`).  Not serialized — a deserialized
    #: plan rebuilds it from the source.
    _modules_ast: Dict[str, ast_mod.Module] = dataclasses.field(
        repr=False, compare=False, default=None)

    def to_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "top": self.top,
            "design_sha": self.design_sha,
            "baseline_sha": self.baseline_sha,
            "operators": list(self.operators),
            "target_modules": list(self.target_modules),
            "seed": self.seed,
            "max_mutants": self.max_mutants,
            "total_sites": self.total_sites,
            "mutants": [m.to_dict() for m in self.mutants],
        }

    def to_json(self) -> str:
        """Canonical serialization — byte-identical for equal plans."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def __getitem__(self, mutant_id: str) -> PlannedMutant:
        for mutant in self.mutants:
            if mutant.id == mutant_id:
                return mutant
        raise KeyError(mutant_id)

    def mutant_source(self, mutant: PlannedMutant) -> str:
        """Render the Verilog source of one planned mutant."""
        modules, _ = _mutated(self._modules_ast, mutant.operator,
                              mutant.module, mutant.ordinal)
        return print_modules(modules)


def _mutated(modules: Dict[str, ast_mod.Module], operator: str,
             module_name: str, ordinal: int):
    """``(modules with one site mutated, the site's description)``.

    ``apply_site`` edits only ``module_name``, so only that module is
    deep-copied; the others are shared with ``modules``, in its order.
    """
    mutated = dict(modules)
    if module_name in mutated:
        mutated[module_name] = copy.deepcopy(mutated[module_name])
    description = ops.apply_site(mutated, operator, module_name, ordinal)
    return mutated, description


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_plan(
    source: str,
    top: Optional[str] = None,
    defines: Optional[Dict[str, str]] = None,
    operators: Optional[Sequence[str]] = None,
    modules: Optional[Sequence[str]] = None,
    seed: int = 0,
    max_mutants: Optional[int] = None,
) -> MutationPlan:
    """Enumerate the campaign's mutants for ``source``.

    ``modules`` selects which modules are mutated.  The default is
    every module *except* the top — the top is conventionally the
    testbench carrying the ``$assert`` checker, and mutating the
    checker would change the question instead of the design.  A
    single-module design falls back to mutating the top itself.
    """
    parsed = parse_source(source, defines=defines)
    design = elaborate(parsed, top=top)  # validates + infers the top
    top = design.top

    if modules is None:
        targets = sorted(name for name in parsed if name != top) or [top]
    else:
        targets = list(modules)
        unknown = [name for name in targets if name not in parsed]
        if unknown:
            raise MutationError(
                f"unknown target module(s) {unknown}; "
                f"design has {sorted(parsed)}")
        if not targets:
            raise MutationError("empty target module list")

    operator_names = ops.resolve_operators(operators)
    baseline_source = print_modules(parsed)

    sites = []
    for module_name in targets:
        for operator in operator_names:
            for ordinal, point in enumerate(
                    ops.matching_points(parsed[module_name], operator)):
                sites.append((operator, module_name, ordinal, point.line))
    total_sites = len(sites)

    if max_mutants is not None and max_mutants < 0:
        raise MutationError(f"max_mutants must be >= 0, got {max_mutants}")
    if max_mutants is not None and total_sites > max_mutants:
        rng = random.Random(seed)
        keep = sorted(rng.sample(range(total_sites), max_mutants))
        sites = [sites[i] for i in keep]

    mutants: List[PlannedMutant] = []
    for index, (operator, module_name, ordinal, line) in enumerate(sites):
        # Describe by applying to a scratch copy — descriptions are
        # part of the plan's byte-identity contract.
        _, description = _mutated(parsed, operator, module_name, ordinal)
        mutants.append(PlannedMutant(
            id=f"m{index:04d}_{operator}_{module_name}_o{ordinal}",
            operator=operator,
            module=module_name,
            ordinal=ordinal,
            line=line,
            description=description,
        ))

    defines_key = sorted((defines or {}).items())
    return MutationPlan(
        top=top,
        design_sha=_sha(json.dumps([source, top, defines_key])),
        baseline_sha=_sha(baseline_source),
        operators=operator_names,
        target_modules=targets,
        seed=seed,
        max_mutants=max_mutants,
        total_sites=total_sites,
        mutants=mutants,
        baseline_source=baseline_source,
        _modules_ast=parsed,
    )
