"""The benchmark's four workloads and the checks on their outputs.

Every workload is a function that runs one *round* into a
:class:`Round`: it prepares its simulations (the timed set-up), runs
them as *operations* (one simulation run or one witness replay each),
and records for every operation the values the checks judge.  A
raised exception or a failed check fails that operation only; the
round goes on.

Values recorded with :meth:`Op.observe` are compared with the goldens
in ``goldens.json`` and across repeats of the same seed.  Values
recorded with :meth:`Op.count` are deterministic work counters: they
are compared across repeats (and between traced and untraced rounds)
but kept out of the goldens, because a BDD change may legitimately
move them.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import calibration
import repro
import repro.compile.codegen
import repro.frontend
import repro.guard
import repro.mutate
import repro.sim.resim
from repro import ResourceBudgets, SimOptions, SimStatus
from repro.bdd import BddManager
from repro.designs import load
from repro.sim.kernel import Kernel

#: The seed whose outputs ``goldens.json`` records exactly.
DEFAULT_SEED = 1

#: Table 1's FULL+GC column: mark-and-sweep every 50k nodes of growth,
#: sifting once the arena holds 60k nodes.
GC_KNOBS = dict(gc_threshold=50_000, dyn_reorder=True,
                reorder_threshold=60_000)

#: Budgets armed on every safe point but sized never to fire.
IDLE_BUDGETS = dict(wall_seconds=24 * 3600.0, max_live_nodes=500_000_000,
                    max_events=10 ** 12)

#: Mutation operators of the campaign.  ``opswap`` is left out: one of
#: its arbiter mutants loops until the hang detector fires (~3 s), a
#: straggler that would dominate the pool's makespan.
CAMPAIGN_OPERATORS = ["stuck0", "stuck1", "cmpswap", "const", "nbaswap"]
#: Every site of those operators is mutated (43 mutants).  The seed is
#: the plan seed, stamped into the report; a seeded subset would make
#: the campaign's cost depend on how many surviving mutants (which run
#: the whole horizon) the seed happens to pick.
CAMPAIGN_SITES = 43
CAMPAIGN_RUNTIME = 60
#: One worker, so that the controller and the worker take turns on the
#: one CPU the run is pinned to (see ``run.py``): the controller waits
#: while a mutant runs and reads the clock on each result.
CAMPAIGN_WORKERS = 1


class Op:
    """One operation's recorded outputs and problems."""

    def __init__(self) -> None:
        self.observed: Dict[str, object] = {}
        self.counters: Dict[str, float] = {}
        self.problems: List[str] = []

    def observe(self, key: str, value) -> None:
        self.observed[key] = value

    def count(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def require(self, condition, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def record(self, result) -> None:
        """Observe a ``SimResult``'s verdict and count its work."""
        stats = result.stats
        self.observe("status", result.status.value)
        self.observe("time", result.time)
        self.observe("events", stats.events_processed)
        self.count("sim.events", stats.events_processed)
        self.count("sim.instructions", stats.instructions)
        self.count("sim.events_scheduled", stats.events_scheduled)
        self.count("sim.events_merged", stats.events_merged)
        bdd = stats.bdd
        for key in ("ite_hits", "ite_misses", "apply_hits", "apply_misses",
                    "fastpath_word_ops", "fastpath_symbolic_ops",
                    "gc_reclaimed", "reorder_swaps"):
            self.count("bdd." + key, bdd.get(key, 0))
        self.counters["bdd.peak_nodes"] = max(
            self.counters.get("bdd.peak_nodes", 0), bdd.get("peak_nodes", 0))
        tier = result.kernel.compile_tier_stats() or {}
        self.count("compile.tier_hits", tier.get("tier_hits", 0))
        self.count("compile.tier_misses", tier.get("tier_misses", 0))

    def record_vcd(self, path: str) -> None:
        """Observe a VCD's sha256; count its bytes."""
        with open(path, "rb") as handle:
            data = handle.read()
        self.observe("vcd_sha256", hashlib.sha256(data).hexdigest())
        self.count("sim.vcd_bytes", len(data))


@dataclass
class Spec:
    """One simulation to prepare: a builtin design and its options."""

    design: str
    params: dict
    options: SimOptions


class Round:
    """Everything one round of a workload produced.

    The round reads its ``clock`` when it is made and at every
    :meth:`mark`: ``wall_s`` is host seconds and ``scaled_wall_s``
    reference seconds (``calibration.Clock``) from the start to the last
    mark.  Without a scaling clock both are host seconds.
    """

    def __init__(self, seed: int, workdir: str, ledger=None,
                 clock: Optional[calibration.Clock] = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ledger = ledger
        self.clock = clock or calibration.Clock(scaling=False)
        self.ops: Dict[str, Op] = {}
        #: set-up seconds, scaled
        self.setup_s: Optional[float] = None
        self.wall_s = 0.0
        self.scaled_wall_s = 0.0
        self.extra: Dict[str, float] = {}
        self.layers: Optional[dict] = None
        self._start = self._last = self.clock.read()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def mark(self) -> float:
        """Read the clock; return reference over host seconds since the
        previous mark (or the start)."""
        last_host, last_scaled = self._last
        host, scaled = self._last = self.clock.read()
        self.wall_s = host - self._start[0]
        self.scaled_wall_s = scaled - self._start[1]
        return (scaled - last_scaled) / (host - last_host)

    @contextmanager
    def op(self, name: str):
        op = self.ops[name] = Op()
        try:
            yield op
        except Exception as exc:  # one failed operation, not a crash
            op.problems.append(f"raised {type(exc).__name__}: {exc}")

    def prepare(self, specs: List[Spec]) -> Dict[str, Kernel]:
        """Build the round's kernels, the first thing a round does; the
        elapsed time is its set-up."""
        kernels, seconds = prepare(specs, self.ledger)
        self.setup_s = seconds * self.mark()
        return kernels

    def counters(self) -> Dict[str, float]:
        total: Dict[str, float] = {}
        for op in self.ops.values():
            for key, value in op.counters.items():
                if key == "bdd.peak_nodes":
                    total[key] = max(total.get(key, 0), value)
                else:
                    total[key] = total.get(key, 0) + value
        return total


def prepare(specs: List[Spec], ledger=None):
    """Parse, elaborate, compile, generate code and construct a kernel
    for every spec.  Returns ``(kernels, seconds)``; the seconds cover
    exactly those five steps."""
    sources = [load(spec.design, **spec.params) for spec in specs]
    managers = [BddManager() for _ in specs]
    if ledger is not None:
        for mgr in managers:
            ledger.wrap_manager(mgr)
    kernels = {}
    start = time.perf_counter()
    for spec, (source, top, defines), mgr in zip(specs, sources, managers):
        modules = repro.frontend.parse_source(source, defines=defines)
        program = repro.compile.compile_design(
            repro.frontend.elaborate(modules, top=top))
        repro.compile.codegen.compiled_tables(
            program, spec.options.accumulation,
            specialize=not spec.options.no_fastpath)
        kernels[spec.design] = Kernel(program, options=spec.options,
                                      mgr=mgr)
    return kernels, time.perf_counter() - start


# ----------------------------------------------------------------------
# symbolic: Table 1 FULL runs and the Section-7 bug hunt
# ----------------------------------------------------------------------


def symbolic_specs(round_: Round) -> List[Spec]:
    return [
        Spec("risc8", {"runtime": 180}, SimOptions()),
        Spec("gcd", {"rounds": 1, "width": 5}, SimOptions()),
        Spec("mcu8", {"runtime": 100}, SimOptions()),
    ]


def symbolic(round_: Round) -> None:
    kernels = round_.prepare(symbolic_specs(round_))
    for name, until in (("risc8", 400), ("gcd", 5000)):
        with round_.op(name) as op:
            result = kernels.pop(name).run(until=until)
            op.record(result)
            op.require(result.status is SimStatus.OK,
                       f"{name}: testbench checker fired")
    kernel = kernels.pop("mcu8")
    violation = None
    with round_.op("mcu8_hunt") as op:
        result = kernel.run(until=200)
        op.record(result)
        op.require(result.violations, "mcu8: planted bug not found")
        violation = result.violations[0]
        op.observe("violation_time", violation.time)
        op.observe("symbols", result.stats.symbols_injected)
        op.require(violation.time == 47 and
                   result.stats.symbols_injected == 48,
                   f"mcu8: violation at t={violation.time} with "
                   f"{result.stats.symbols_injected} symbols, "
                   "expected t=47 with 48")
    with round_.op("mcu8_replay") as op:
        op.require(violation is not None, "no witness to replay")
        replay = repro.sim.resim.resimulate(
            kernel.program, violation.trace, options=SimOptions(),
            until=200, expect_violation=True)
        op.record(replay)
        op.require(replay.violations and
                   replay.violations[0].time == violation.time,
                   "witness replay hit a different violation")
        op.count("resim.replays", 1)


# ----------------------------------------------------------------------
# conventional: concrete $random regressions of all six designs
# ----------------------------------------------------------------------

#: (design, loader params); fixed editions of the planted-bug designs.
CONVENTIONAL = (
    ("risc8", {"runtime": 20000}),
    ("gcd", {"rounds": 200, "width": 8}),
    ("dram", {"bursts": 200}),
    ("mcu8", {"runtime": 10000, "fixed": True}),
    ("alu4", {"runtime": 10000, "fixed": True}),
    ("arbiter", {"runtime": 10000}),
)

#: The one conventional run that dumps a VCD.
CONVENTIONAL_VCD = "risc8"


def conventional_specs(round_: Round) -> List[Spec]:
    rng = random.Random(round_.seed)
    specs = []
    for design, params in CONVENTIONAL:
        vcd = (round_.path(design + ".vcd")
               if design == CONVENTIONAL_VCD else None)
        options = SimOptions(concrete_random=rng.randrange(1, 2 ** 31),
                             vcd_path=vcd)
        specs.append(Spec(design, params, options))
    return specs


def conventional(round_: Round) -> None:
    specs = conventional_specs(round_)
    kernels = round_.prepare(specs)
    for spec in specs:
        with round_.op(spec.design) as op:
            result = kernels.pop(spec.design).run()
            op.record(result)
            op.require(result.status is SimStatus.OK,
                       f"{spec.design}: testbench checker fired")
            op.require(result.finished, f"{spec.design}: no $finish")
            if spec.options.vcd_path is not None:
                op.record_vcd(spec.options.vcd_path)


# ----------------------------------------------------------------------
# managed: symbolic runs under GC, sifting, idle budgets and a
# checkpoint/resume
# ----------------------------------------------------------------------

#: risc8 (whose testbench finishes at t=192) is checkpointed mid-run at
#: this time and resumed to ``MANAGED_UNTIL``.
MANAGED_SPLIT = 100
MANAGED_UNTIL = 400


def managed_options(vcd_path: Optional[str] = None) -> SimOptions:
    return SimOptions(budgets=ResourceBudgets(**IDLE_BUDGETS),
                      vcd_path=vcd_path, **GC_KNOBS)


def managed_specs(round_: Round) -> List[Spec]:
    return [
        Spec("dram", {"bursts": 2}, managed_options()),
        Spec("risc8", {"runtime": 180},
             managed_options(round_.path("risc8.vcd"))),
    ]


def managed(round_: Round) -> None:
    kernels = round_.prepare(managed_specs(round_))
    with round_.op("dram") as op:
        result = kernels.pop("dram").run(until=3000)
        op.record(result)
        op.require(result.status is SimStatus.OK, "dram: checker fired")
        op.require(not result.kernel.mgr.concretized,
                   "dram: guard mitigated")
    checkpoint = round_.path("risc8.ckpt")
    with round_.op("risc8_head") as op:
        # the head kernel is dropped once checkpointed: the resumed run
        # starts in a fresh kernel
        result = kernels.pop("risc8").run(until=MANAGED_SPLIT)
        op.record(result)
        op.require(result.status is SimStatus.OK, "risc8: checker fired")
        op.require(not result.finished, "risc8: finished before the split")
        repro.guard.save_checkpoint(result.kernel, checkpoint)
        op.count("guard.checkpoint_bytes", os.path.getsize(checkpoint))
    result = None
    with round_.op("risc8_resumed") as op:
        source, top, defines = load("risc8", runtime=180)
        sim = repro.open_sim(source, top=top, defines=defines,
                             options=managed_options(), resume=checkpoint)
        if round_.ledger is not None:
            round_.ledger.wrap_manager(sim.mgr)
        result = sim.run(until=MANAGED_UNTIL)
        op.record(result)
        op.require(result.status is SimStatus.OK, "risc8: checker fired")
        op.require(not sim.mgr.concretized, "risc8: guard mitigated")
        op.record_vcd(round_.path("risc8.vcd"))


def uninterrupted_managed_vcd(workdir: str) -> str:
    """sha256 of the managed risc8 VCD when the run is not split --
    the golden the resumed run's VCD must equal."""
    path = os.path.join(workdir, "risc8-whole.vcd")
    spec = Spec("risc8", {"runtime": 180}, managed_options(path))
    kernels, _ = prepare([spec])
    kernels["risc8"].run(until=MANAGED_UNTIL)
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# ----------------------------------------------------------------------
# campaign: a seeded mutation campaign on the durable pool
# ----------------------------------------------------------------------


def campaign(round_: Round) -> None:
    source, top, defines = load("arbiter", runtime=CAMPAIGN_RUNTIME)
    config = repro.mutate.CampaignConfig(
        source=source, top=top, defines=defines,
        operators=list(CAMPAIGN_OPERATORS), seed=round_.seed,
        until=CAMPAIGN_RUNTIME + 20,
        verify_witnesses=True)
    out_dir = round_.path("campaign")
    first: List[float] = []
    start = time.perf_counter()

    def on_result(outcome) -> None:
        # the clock never ticks while the controller waits on the
        # worker, so it is read on every result
        now = time.perf_counter()
        scale = round_.mark()
        if not first:
            first.append((now - start - outcome.wall_seconds) * scale)

    report = None
    with round_.op("baseline") as op:
        report = repro.mutate.run_campaign(
            config, workers=CAMPAIGN_WORKERS, out_dir=out_dir,
            on_result=on_result)
        round_.setup_s = first[0]
        batch = report.batch
        baseline = batch["baseline"]
        op.observe("status", baseline.status.value)
        op.require(baseline.ok, "baseline run is not clean")
        op.observe("report_sha256", hashlib.sha256(
            report.to_json().encode("utf-8")).hexdigest())
        op.require(len(report.mutants) == CAMPAIGN_SITES,
                   f"{len(report.mutants)} mutants planned, "
                   f"expected {CAMPAIGN_SITES}")
        op.count("mutate.mutants", len(report.mutants))
        op.count("mutate.score", report.score or 0.0)
        op.count("batch.attempts", sum(o.attempts for o in batch))
        op.count("batch.retries", batch.retries)
        round_.extra["batch.worker_busy_s"] = sum(
            outcome.wall_seconds for outcome in batch)
        round_.extra["batch.journal_bytes"] = os.path.getsize(
            batch.journal_path)
        round_.extra["batch.workers"] = batch.workers
        _count_payload(op, baseline.result)
    if report is None:
        return
    for mutant in report.mutants:
        with round_.op(mutant.id) as op:
            outcome = batch[mutant.id]
            op.observe("status", outcome.status.value)
            op.observe("classification", mutant.classification)
            op.require(mutant.classification in ("detected", "undetected"),
                       f"{mutant.id}: {mutant.classification} "
                       f"({mutant.error})")
            _count_payload(op, outcome.result)
        if mutant.classification == "detected":
            with round_.op("replay:" + mutant.id) as op:
                op.observe("witness_verified", mutant.witness_verified)
                op.require(mutant.witness_verified is True,
                           f"{mutant.id}: witness did not replay")
                op.count("resim.replays", 1)


def _count_payload(op: Op, payload: Optional[dict]) -> None:
    """Count a worker's ``SimResult.to_dict`` metrics."""
    metrics = (payload or {}).get("metrics", {})
    op.count("sim.events", metrics.get("events_processed", 0))
    op.count("sim.instructions", metrics.get("instructions", 0))


@dataclass
class Workload:
    """A workload's round, its set-up replica and its seed use."""

    run: Callable[[Round], None]
    #: builds the round's specs for a set-up replica (None: the round
    #: measures its own set-up only)
    specs: Optional[Callable[[Round], List[Spec]]]
    #: set-up replicas before each round and after the last (their
    #: median, with the rounds' own set-up, is ``setup_s``)
    setup_repeats: int
    #: whether the seed changes the inputs (else exact goldens apply to
    #: every seed)
    uses_seed: bool


WORKLOADS = {
    "symbolic": Workload(symbolic, symbolic_specs, 5, False),
    "conventional": Workload(conventional, conventional_specs, 3, True),
    "managed": Workload(managed, managed_specs, 5, False),
    "campaign": Workload(campaign, None, 0, True),
}
