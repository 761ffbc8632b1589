"""Exception hierarchy for the symbolic RTL simulator.

Every error raised by the package derives from :class:`ReproError`, so a
caller can catch one type for anything that goes wrong inside the
simulator while still being able to distinguish frontend problems
(:class:`VerilogSyntaxError`, :class:`ElaborationError`) from runtime
problems (:class:`SimulationError` and friends).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class BddError(ReproError):
    """Misuse of the BDD manager (foreign nodes, unknown variables...)."""


class FourValueError(ReproError):
    """Invalid four-valued vector operation (width mismatch, bad digit)."""


class VerilogSyntaxError(ReproError):
    """Lexical or syntactic error in Verilog source.

    Carries the source coordinates so tools can point at the offending
    text.
    """

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.line = line
        self.col = col
        if line:
            message = f"line {line}:{col}: {message}"
        super().__init__(message)


class ElaborationError(ReproError):
    """Semantic error while building the design hierarchy.

    Examples: unknown module, port width mismatch, undeclared identifier,
    recursive instantiation.
    """


class CompileError(ReproError):
    """The behavioral compiler met a construct it cannot translate."""


class SimulationError(ReproError):
    """Generic runtime error inside the simulation kernel."""


class SymbolicDelayError(SimulationError):
    """A delay expression evaluated to a symbolic (non-constant) value.

    The paper's simulator, like this one, requires concrete delays; the
    usual fix is to make the delay operand concrete in the testbench.
    """


class SymbolicRepeatError(SimulationError):
    """A ``repeat`` count inside a function evaluated to a symbolic or
    unknown value; function loops must run a concrete number of times."""


class SimulationHang(SimulationError):
    """A zero-delay loop iterated more than the configured watchdog limit.

    Carries hang diagnostics: the simulation time the step was stuck
    at, the hottest event sites sampled after the watchdog tripped
    (``(label, count)`` pairs), and the largest path-control support
    seen among those events — everything needed to find the loop
    without re-running under a profiler.
    """

    def __init__(self, message: str, sim_time: int = 0,
                 top_sites=(), control_support: int = 0) -> None:
        super().__init__(message)
        self.sim_time = sim_time
        self.top_sites = list(top_sites)
        self.control_support = control_support


class SimulationAborted(SimulationError):
    """The resource guard gave up after exhausting its mitigation ladder.

    Raised *instead of* MemoryError or an open-ended hang when a
    :class:`repro.guard.ResourceBudgets` limit stays breached after
    every mitigation (GC, reordering, concretization) has fired.
    Carries the partial :class:`~repro.sim.kernel.SimResult` at the
    abort safe point and a :class:`repro.guard.BudgetReport`
    describing what was breached, what was tried, and where the
    rescue checkpoint (if any) was written.
    """

    def __init__(self, message: str, partial_result=None,
                 budget_report=None) -> None:
        super().__init__(message)
        self.partial_result = partial_result
        self.budget_report = budget_report


class CheckpointError(ReproError):
    """A checkpoint could not be written, read, or trusted.

    Covers I/O failures, truncated or corrupt snapshot files (payload
    checksum mismatch), version/format mismatches, and resuming
    against a different design than the one checkpointed.
    """


class AssertionViolation(SimulationError):
    """Raised (optionally) when ``$assert``/``$error`` fires.

    The attached :attr:`trace` is an
    :class:`repro.sim.trace.ErrorTrace` suitable for resimulation.
    """

    def __init__(self, message: str, trace=None) -> None:
        super().__init__(message)
        self.trace = trace


class ResimulationError(SimulationError):
    """Concrete resimulation diverged from the recorded error trace."""


class RequestError(ReproError):
    """A run request did not parse against ``repro.serve.request/1``.

    Raised by the :mod:`repro.api` schema functions — the one
    option/budget/retry parsing implementation behind CLI flags, batch
    manifests, mutation manifests and HTTP submissions.  The manifest
    loaders re-raise it as :class:`BatchError` / :class:`MutationError`
    so their callers keep one exception type per entry point; the HTTP
    front door maps it to a 400 with a single-line error body.
    """


class BatchError(ReproError):
    """The batch engine rejected a request or manifest.

    Covers malformed job manifests, duplicate run names, requests that
    carry per-process objects (an ``obs`` bundle) across the worker
    boundary, and batches whose worker pool could not be started.
    Failures of *individual runs* are never exceptions — they come back
    as :class:`repro.batch.RunOutcome` entries with a non-``OK`` status
    so one bad run cannot kill the batch.
    """


class QuarantinedRunError(BatchError):
    """A batch run exhausted its retry budget and was quarantined.

    Raised by :meth:`repro.batch.BatchResult.check_quarantine` (and by
    callers that prefer exceptions over scanning outcome rows) — never
    by the engine itself, which reports quarantine as a terminal
    :class:`repro.batch.RunOutcome` with ``quarantined=True``.  Carries
    the run ``name``, the ``attempts`` consumed, and the per-attempt
    ``failure_history`` (``{"attempt", "kind", "error", "worker_pid"}``
    records).
    """

    def __init__(self, message: str, name: str = "", attempts: int = 0,
                 failure_history=()) -> None:
        super().__init__(message)
        self.name = name
        self.attempts = attempts
        self.failure_history = list(failure_history)


class MutationError(ReproError):
    """The mutation engine rejected a plan, manifest or campaign.

    Covers malformed campaign manifests, unknown operators or target
    modules, out-of-range mutation sites, and campaigns whose baseline
    run is not clean (a mutation score is meaningless when the
    unmutated design already fails its checker).  Individual mutants
    that fail to compile or abort under a guard budget are *not*
    exceptions — they are classified ``invalid`` / ``aborted`` in the
    :class:`repro.mutate.CampaignReport` so one bad mutant cannot kill
    the campaign.
    """
