"""Mutation campaign driver: plan → batch fan-out → classification.

A campaign takes one design, builds a deterministic
:class:`~repro.mutate.plan.MutationPlan`, and fans the baseline plus
every valid mutant out through :func:`repro.batch.run_batch` — one
``RunRequest`` per mutant, so the batch engine's compile-once catalog,
worker pool, guard budgets, heartbeat status files and stall watcher
all apply unchanged.  The symbolic checker then classifies each
mutant:

``detected``
    the symbolic run hit an ``$assert``/``$error`` violation — the
    checker caught the fault, and the violation's error trace is the
    concrete witness (optionally re-verified by concrete
    resimulation, the paper's Section-5 round trip);
``undetected``
    the run completed clean — the fault survived the checker (a
    *surviving mutant*; possibly an equivalent mutant, see
    ``docs/MUTATION.md``);
``aborted``
    a guard budget, hang detector or crash ended the run before the
    checker could decide;
``invalid``
    the mutant does not compile (stillborn) — it never reaches the
    pool.  Stillborn mutants are excluded from the score denominator.

The **mutation score** is ``detected / (detected + undetected)``.

Every mutant is compile-validated in the controller before fan-out —
the batch engine treats a compile failure as fatal for the whole
batch, while a campaign must classify it and move on.  The programs
the validation builds go into the batch's design catalog as they are,
and the pool's workers, forked after the catalog is complete, inherit
them instead of recompiling a pickled image, so each valid mutant is
compiled exactly once, in the controller.  (A campaign adds no design
after its pool starts; only under a start method other than ``fork``
would its workers receive, and recompile, images.)

The :class:`CampaignReport` is deterministic: its ``to_dict`` payload
contains no wall-clock times, worker counts, PIDs or paths, so the
same manifest and seed produce byte-identical reports at any pool
width (asserted by the integration suite).  Wall-clock and batch
plumbing live on the report object as attributes only.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Callable, Dict, List, Optional, Sequence

from repro.batch.engine import (
    BatchResult, DesignCatalog, RunOutcome, run_batch,
)
from repro.batch.request import RunRequest
from repro.errors import MutationError, ReproError, ResimulationError
from repro.mutate.plan import MutationPlan, build_plan
from repro.obs.live import DEFAULT_EVERY
from repro.sim import SimOptions
from repro.sim.resim import resimulate
from repro.sim.trace import ErrorTrace, TraceEntry

#: Schema tag stamped on serialized campaign reports.
REPORT_SCHEMA = "repro.mutate.report/1"

#: Classification buckets, in reporting order.
CLASSIFICATIONS = ("detected", "undetected", "aborted", "invalid")

#: Run name reserved for the unmutated design.
BASELINE_NAME = "baseline"


def classify(status: str) -> str:
    """Map a batch run status string to a campaign classification."""
    if status == "assert_failed":
        return "detected"
    if status == "ok":
        return "undetected"
    return "aborted"  # aborted / hang / crash all count as aborted


@dataclasses.dataclass
class Variant:
    """An explicit, pre-built design variant to classify alongside the
    generated mutants (e.g. a planted-bug edition of the baseline)."""

    name: str
    source: str
    top: Optional[str] = None
    defines: Optional[Dict[str, str]] = None


@dataclasses.dataclass
class CampaignConfig:
    """Everything that determines a campaign's outcome (and nothing
    that doesn't — workers/out_dir are execution knobs, not config)."""

    source: str
    top: Optional[str] = None
    defines: Optional[Dict[str, str]] = None
    modules: Optional[List[str]] = None
    operators: Optional[List[str]] = None
    seed: int = 0
    max_mutants: Optional[int] = None
    until: Optional[int] = None
    options: SimOptions = dataclasses.field(default_factory=SimOptions)
    variants: List[Variant] = dataclasses.field(default_factory=list)
    verify_witnesses: bool = False


@dataclasses.dataclass
class MutantOutcome:
    """One classified mutant (or explicit variant)."""

    id: str
    classification: str
    status: str
    operator: Optional[str] = None
    module: Optional[str] = None
    ordinal: Optional[int] = None
    line: Optional[int] = None
    description: Optional[str] = None
    error: Optional[str] = None
    #: First violation of a detected mutant: kind/where/message/time
    #: plus the full error-trace entries — enough to replay the
    #: concrete witness without the campaign directory.
    witness: Optional[dict] = None
    #: Set when ``verify_witnesses`` re-ran the witness concretely.
    witness_verified: Optional[bool] = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class CampaignReport:
    """Deterministic campaign summary + per-mutant classifications."""

    top: str
    design_sha: str
    baseline_sha: str
    seed: int
    operators: List[str]
    target_modules: List[str]
    until: Optional[int]
    baseline_status: str
    totals: Dict[str, int]
    score: Optional[float]
    by_operator: Dict[str, Dict[str, object]]
    mutants: List[MutantOutcome]
    variants: List[MutantOutcome]
    plan: MutationPlan = dataclasses.field(repr=False)
    # -- execution-side attributes, excluded from to_dict() ----------
    batch: Optional[BatchResult] = dataclasses.field(
        repr=False, compare=False, default=None)
    out_dir: Optional[str] = None
    report_path: Optional[str] = None
    wall_seconds: float = 0.0

    @property
    def survivors(self) -> List[MutantOutcome]:
        return [m for m in self.mutants
                if m.classification == "undetected"]

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "top": self.top,
            "design_sha": self.design_sha,
            "baseline_sha": self.baseline_sha,
            "seed": self.seed,
            "operators": list(self.operators),
            "target_modules": list(self.target_modules),
            "until": self.until,
            "baseline_status": self.baseline_status,
            "totals": dict(self.totals),
            "score": self.score,
            "by_operator": {op: dict(row)
                            for op, row in self.by_operator.items()},
            "survivors": [
                {"id": m.id, "operator": m.operator, "module": m.module,
                 "line": m.line, "description": m.description}
                for m in self.survivors],
            "mutants": [m.to_dict() for m in self.mutants],
            "variants": [m.to_dict() for m in self.variants],
            "plan": self.plan.to_dict(),
        }

    def to_json(self) -> str:
        """Canonical serialization — byte-identical for equal reports."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _witness_from_result(result: Optional[dict]) -> Optional[dict]:
    """Extract the first violation of a run payload as a witness dict."""
    if not result:
        return None
    violations = result.get("violations") or []
    if not violations:
        return None
    violation = violations[0]
    return {
        "kind": violation.get("kind"),
        "where": violation.get("where"),
        "message": violation.get("message"),
        "time": violation.get("time"),
        "trace": [dict(entry) for entry in violation.get("trace", [])],
    }


def witness_trace(witness: dict) -> ErrorTrace:
    """Rebuild a replayable :class:`ErrorTrace` from a witness dict."""
    entries = [TraceEntry(**entry) for entry in witness.get("trace", [])]
    return ErrorTrace(witness={}, entries=entries)


def _validate_mutants(plan: MutationPlan):
    """Compile-check every planned mutant in the controller.

    Returns ``(sources, invalid, programs)``: mutant id → source and
    id → compiled Program for the valid ones, id → error string for
    the stillborn ones.
    """
    from repro.compile.compiler import compile_design
    from repro.frontend.elaborate import elaborate
    from repro.frontend.parser import parse_source

    sources: Dict[str, str] = {}
    invalid: Dict[str, str] = {}
    programs: Dict[str, object] = {}
    for mutant in plan.mutants:
        source = plan.mutant_source(mutant)
        try:
            design = elaborate(parse_source(source), top=plan.top)
            program = compile_design(design)
        except ReproError as exc:
            invalid[mutant.id] = f"{type(exc).__name__}: {exc}"
            continue
        sources[mutant.id] = source
        programs[mutant.id] = program
    return sources, invalid, programs


def run_campaign(
    config: CampaignConfig,
    workers: int = 1,
    out_dir: Optional[str] = None,
    on_result: Optional[Callable[[RunOutcome], None]] = None,
    trace: bool = False,
    heartbeat_every: Optional[int] = DEFAULT_EVERY,
    stall_after: Optional[float] = None,
    retry=None,
    resume: bool = False,
) -> CampaignReport:
    """Run one mutation campaign end to end.

    Raises :class:`MutationError` when the *baseline* run is not clean
    — every other failure is folded into the report.  ``on_result``
    streams each :class:`~repro.batch.RunOutcome` as it completes
    (classify it with :func:`classify`).

    ``retry`` (a :class:`~repro.batch.RetryPolicy`) and ``resume``
    pass straight through to :func:`~repro.batch.run_batch`: campaigns
    inherit the batch engine's durability — transient worker deaths
    retry instead of polluting the score, and an interrupted campaign
    resumes from its journal.  Retries do not change the report:
    classification sees only terminal outcomes, and a quarantined
    mutant classifies by its final status (``aborted`` for
    infrastructure failures), exactly as an unretried failure would.
    """
    plan = build_plan(
        config.source, top=config.top, defines=config.defines,
        operators=config.operators, modules=config.modules,
        seed=config.seed, max_mutants=config.max_mutants)

    verify = config.verify_witnesses
    sources, invalid, programs = _validate_mutants(plan)

    requests = [RunRequest(
        name=BASELINE_NAME, source=plan.baseline_source, top=plan.top,
        options=config.options, until=config.until)]
    catalog = DesignCatalog()
    for mutant in plan.mutants:
        if mutant.id in sources:
            request = RunRequest(
                name=mutant.id, source=sources[mutant.id], top=plan.top,
                options=config.options, until=config.until)
            catalog.add(request, programs[mutant.id])
            requests.append(request)
    seen_names = {request.name for request in requests}
    variant_programs: Dict[str, object] = {}
    for variant in config.variants:
        if variant.name in seen_names:
            raise MutationError(
                f"variant name {variant.name!r} collides with a "
                "mutant/baseline run name")
        seen_names.add(variant.name)
        requests.append(RunRequest(
            name=variant.name, source=variant.source,
            top=variant.top or plan.top, defines=variant.defines,
            options=config.options, until=config.until))

    batch = run_batch(
        requests, workers=workers, out_dir=out_dir, on_result=on_result,
        trace=trace, write_metrics=False, heartbeat_every=heartbeat_every,
        stall_after=stall_after, retry=retry, resume=resume,
        catalog=catalog)

    baseline = batch[BASELINE_NAME]
    if baseline.status.value != "ok":
        raise MutationError(
            f"baseline run is not clean (status {baseline.status.value}"
            f"{': ' + baseline.error if baseline.error else ''}) — "
            "a mutation score over a failing baseline is meaningless")

    def _classified(outcome: RunOutcome, program) -> MutantOutcome:
        classification = classify(outcome.status.value)
        witness = None
        verified = None
        if classification == "detected":
            witness = _witness_from_result(outcome.result)
            if witness is None:
                # Defensive: assert_failed without a recorded violation
                # would be a kernel bug; fold rather than crash.
                classification = "aborted"
            elif verify and program is not None:
                try:
                    resimulate(program, witness_trace(witness),
                               options=SimOptions(),
                               until=config.until, expect_violation=True)
                    verified = True
                except (ResimulationError, ReproError):
                    verified = False
        return MutantOutcome(
            id=outcome.name, classification=classification,
            status=outcome.status.value, error=outcome.error,
            witness=witness, witness_verified=verified)

    mutant_outcomes: List[MutantOutcome] = []
    for mutant in plan.mutants:
        if mutant.id in invalid:
            outcome = MutantOutcome(
                id=mutant.id, classification="invalid", status="invalid",
                error=invalid[mutant.id])
        else:
            outcome = _classified(batch[mutant.id], programs[mutant.id])
        outcome.operator = mutant.operator
        outcome.module = mutant.module
        outcome.ordinal = mutant.ordinal
        outcome.line = mutant.line
        outcome.description = mutant.description
        mutant_outcomes.append(outcome)

    variant_outcomes: List[MutantOutcome] = []
    for variant in config.variants:
        program = None
        if verify:
            from repro.compile.compiler import compile_design
            from repro.frontend.elaborate import elaborate
            from repro.frontend.parser import parse_source
            try:
                program = compile_design(elaborate(
                    parse_source(variant.source, defines=variant.defines),
                    top=variant.top or plan.top))
            except ReproError:
                program = None
        variant_outcomes.append(_classified(batch[variant.name], program))

    totals = {bucket: 0 for bucket in CLASSIFICATIONS}
    by_operator: Dict[str, Dict[str, object]] = {
        op: {bucket: 0 for bucket in CLASSIFICATIONS}
        for op in plan.operators}
    for outcome in mutant_outcomes:
        totals[outcome.classification] += 1
        by_operator[outcome.operator][outcome.classification] += 1
    totals["sites"] = plan.total_sites
    totals["planned"] = len(plan.mutants)
    totals["variants"] = len(variant_outcomes)

    def _score(row) -> Optional[float]:
        judged = row["detected"] + row["undetected"]
        return row["detected"] / judged if judged else None

    for row in by_operator.values():
        row["score"] = _score(row)
    score = _score(totals)

    report = CampaignReport(
        top=plan.top, design_sha=plan.design_sha,
        baseline_sha=plan.baseline_sha, seed=plan.seed,
        operators=list(plan.operators),
        target_modules=list(plan.target_modules),
        until=config.until, baseline_status=baseline.status.value,
        totals=totals, score=score, by_operator=by_operator,
        mutants=mutant_outcomes, variants=variant_outcomes, plan=plan,
        batch=batch, out_dir=batch.out_dir,
        wall_seconds=batch.wall_seconds)

    _aggregate_metrics(report)
    if batch.out_dir:
        batch.metrics_path = os.path.join(batch.out_dir, "metrics.json")
        batch.metrics.write_json(batch.metrics_path)
        report.report_path = os.path.join(batch.out_dir, "report.json")
        with open(report.report_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    return report


def _aggregate_metrics(report: CampaignReport) -> None:
    """Fold the campaign into the batch registry's ``mutate.*`` family."""
    registry = report.batch.metrics
    registry.gauge("mutate.sites", "mutation sites enumerated") \
        .set(report.totals["sites"])
    registry.gauge("mutate.planned", "mutants selected by the plan") \
        .set(report.totals["planned"])
    if report.score is not None:
        registry.gauge("mutate.score",
                       "mutation score: detected/(detected+undetected)") \
            .set(report.score)
    mutants = registry.counter("mutate.mutants",
                               "mutants by classification",
                               labels=("classification",))
    per_op = registry.counter("mutate.operator_mutants",
                              "mutants by operator and classification",
                              labels=("operator", "classification"))
    for outcome in report.mutants:
        mutants.labels(classification=outcome.classification).inc()
        per_op.labels(operator=outcome.operator,
                      classification=outcome.classification).inc()
    variants = registry.counter("mutate.variants",
                                "explicit variants by classification",
                                labels=("classification",))
    for outcome in report.variants:
        variants.labels(classification=outcome.classification).inc()
