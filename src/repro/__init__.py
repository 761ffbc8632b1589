"""Symbolic RTL simulation of behavioral Verilog — DAC 2001 reproduction.

This package reimplements Kölbl, Kukula & Damiano, *"Symbolic RTL
Simulation"* (DAC 2001): an event-driven simulator that executes the
full behavioral Verilog subset — delays, event controls, zero-delay
loops, non-synthesizable testbench code — over *symbolic* four-valued
data represented with BDDs.  One run covers ``2^n`` input patterns at
once; ``$random`` injects fresh symbolic variables anywhere in the
code; *event accumulation* merges re-converging execution paths to
avoid exponential event multiplication; ``$error``/``$assert``
violations yield concrete error traces that can be resimulated.

Quick start::

    import repro

    sim = repro.open_sim('''
        module tb;
          reg [1:0] a; reg [3:0] b;
          initial begin
            a = $random;               // symbolic 2-bit value
            if (a == 0) b = $random;   // both branches simulated
            else        b = 1;
            $assert(b != 9);
          end
        endmodule
    ''')
    result = sim.run()
    assert result.status is repro.SimStatus.ASSERT_FAILED
    for violation in result.violations:
        print(violation)                     # concrete error trace
        sim.resimulate(violation)            # conventional replay

Many runs at once go through :mod:`repro.batch`: describe each as a
:class:`RunRequest` and fan them across a process pool with
:func:`run_batch` (see docs/BATCH.md).

The supported surface is ``repro.__all__``; every exception the
package raises inherits :class:`repro.errors.ReproError`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import api, errors
from repro.batch import (
    BatchResult, RetryPolicy, RunOutcome, RunRequest, load_manifest,
    run_batch,
)
from repro.bdd import BddManager
from repro.compile import compile_design, Program
from repro.compile.instructions import AccumulationMode
from repro.errors import (
    AssertionViolation, BatchError, BddError, CheckpointError, CompileError,
    ElaborationError, FourValueError, MutationError, QuarantinedRunError,
    ReproError, RequestError, ResimulationError, SimulationAborted,
    SimulationError, SimulationHang, SymbolicDelayError, SymbolicRepeatError,
    VerilogSyntaxError,
)
from repro.fourval import FourVec
from repro.frontend import elaborate, parse_source, read_source_file
from repro.guard import (
    BudgetReport, Fault, FaultInjector, ResourceBudgets, load_checkpoint,
    save_checkpoint,
)
from repro.mutate import (
    CampaignConfig, CampaignReport, MutationPlan, build_plan, run_campaign,
)
from repro.obs import (
    HotSpotProfiler, MetricsRegistry, Observability, Tracer,
)
from repro.serve import ServeApp, ServeConfig, TenantQuota, serve_app
from repro.sim import (
    ErrorTrace, Kernel, SimOptions, SimResult, SimStatus, Violation,
)
from repro.sim.resim import resimulate, resimulate_violation

__version__ = "1.1.0"

#: The supported public surface.  Anything importable but absent here
#: is an implementation detail and may change without notice.
__all__ = [
    # entry points
    "open_sim", "SymbolicSimulator",
    # unified request/options schema (`api` is the module)
    "api",
    # batch engine (durable: leases, retries, quarantine, resume)
    "RunRequest", "RunOutcome", "BatchResult", "run_batch", "load_manifest",
    "RetryPolicy",
    # serving (simulation-as-a-service front door)
    "ServeApp", "ServeConfig", "TenantQuota", "serve_app",
    # mutation campaigns
    "CampaignConfig", "CampaignReport", "MutationPlan", "build_plan",
    "run_campaign",
    # core types
    "SimOptions", "SimResult", "SimStatus", "AccumulationMode",
    "FourVec", "BddManager", "ErrorTrace", "Violation",
    # observability
    "Observability", "MetricsRegistry", "Tracer", "HotSpotProfiler",
    # robustness
    "ResourceBudgets", "BudgetReport", "Fault", "FaultInjector",
    "save_checkpoint", "load_checkpoint",
    # pipeline pieces
    "parse_source", "elaborate", "compile_design", "resimulate",
    "resimulate_violation",
    # exceptions (all inherit ReproError; `errors` is the module)
    "errors",
    "ReproError", "VerilogSyntaxError", "ElaborationError", "CompileError",
    "SimulationError", "SimulationHang", "SimulationAborted",
    "SymbolicDelayError", "SymbolicRepeatError", "CheckpointError",
    "BatchError", "MutationError", "QuarantinedRunError", "RequestError",
    "AssertionViolation", "ResimulationError", "BddError", "FourValueError",
]


def open_sim(
    source: Optional[str] = None,
    *,
    path: Optional[str] = None,
    top: Optional[str] = None,
    options: Optional[SimOptions] = None,
    defines: Optional[Dict[str, str]] = None,
    resume: Optional[str] = None,
) -> "SymbolicSimulator":
    """The one entry point: source in, ready-to-run simulator out.

    Give exactly one of ``source`` (Verilog text, also the positional
    argument) or ``path`` (a file on disk).  ``resume`` names a
    checkpoint file: the design is recompiled, verified against the
    checkpoint's structural fingerprint, and the returned simulator
    continues exactly where the checkpointed run stopped — with
    ``options=None`` the checkpoint's semantic options are reused; a
    given ``options`` must match them semantically but may change
    operational knobs (GC, observability, budgets).
    """
    if (source is None) == (path is None):
        raise CompileError("open_sim takes exactly one of source= or path=")
    if path is not None:
        source = read_source_file(path)
    modules = parse_source(source, defines=defines)
    design = elaborate(modules, top=top)
    program = compile_design(design)
    if resume is None:
        return SymbolicSimulator(program, options=options)
    kernel = load_checkpoint(program, resume, options=options)
    sim = SymbolicSimulator.__new__(SymbolicSimulator)
    sim.program = program
    sim.options = kernel.options
    sim.kernel = kernel
    return sim


class SymbolicSimulator:
    """High-level façade: source text in, symbolic simulation out.

    Wraps the full pipeline (preprocess → parse → elaborate → compile →
    kernel) and keeps the compiled :class:`Program` so error traces can
    be resimulated against the identical design.  Build instances with
    :func:`open_sim` (or :meth:`repro.batch.RunRequest.open`).
    """

    def __init__(self, program: Program,
                 options: Optional[SimOptions] = None) -> None:
        self.program = program
        self.options = options or SimOptions()
        self.kernel = Kernel(program, options=self.options)

    def run(self, until: Optional[int] = None) -> SimResult:
        """Run (or continue) the symbolic simulation."""
        return self.kernel.run(until=until)

    def value(self, name: str) -> FourVec:
        """Current symbolic value of a net by full hierarchical name."""
        return self.kernel.state.value(name)

    @property
    def mgr(self) -> BddManager:
        return self.kernel.mgr

    def resimulate(
        self,
        violation_or_trace,
        until: Optional[int] = None,
        expect_violation: bool = True,
    ) -> SimResult:
        """Concrete replay of a violation / error trace on this design."""
        trace = (
            violation_or_trace.trace
            if isinstance(violation_or_trace, Violation)
            else violation_or_trace
        )
        return resimulate(self.program, trace,
                          options=SimOptions(
                              stop_on_violation=self.options.stop_on_violation
                          ),
                          until=until, expect_violation=expect_violation)
