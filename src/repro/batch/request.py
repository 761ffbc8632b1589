"""The :class:`RunRequest` — one simulation, described as pure data.

A request is everything needed to run one symbolic simulation: the
design (source text or a file path), the top module, preprocessor
defines, a :class:`~repro.sim.kernel.SimOptions`, and an optional time
bound.  It is deliberately *frozen* and picklable: the same object is
the unit of work of the batch engine (shipped to worker processes) and
the argument of the single-process :func:`repro.open_sim` factory, so
"run this once here" and "run ten thousand of these on a pool" share
one vocabulary.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from repro.errors import BatchError
from repro.frontend import read_source_file
from repro.sim import SimOptions


@dataclass(frozen=True)
class RunRequest:
    """One simulation to run, as data.

    Exactly one of ``source`` (Verilog text) or ``path`` (a ``.v`` file
    read lazily, in the controller) must be given.  ``options.obs``
    must be ``None`` for batch use — observability instruments hold
    open files and belong to one process; the engine equips each worker
    with its own (see docs/BATCH.md).
    """

    #: Unique name of the run — names batch artifacts (VCD, checkpoint
    #: dir, report rows) and must not repeat within one batch.
    name: str
    source: Optional[str] = None
    path: Optional[str] = None
    top: Optional[str] = None
    defines: Optional[Mapping[str, str]] = None
    options: SimOptions = field(default_factory=SimOptions)
    #: Simulation time bound (``kernel.run(until=...)``); None runs to
    #: quiescence / ``$finish``.
    until: Optional[int] = None
    #: Write a per-run VCD under the batch output directory
    #: (``runs/<name>/wave.vcd``).  For single-process use prefer
    #: ``options.vcd_path``.
    vcd: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise BatchError("RunRequest needs a non-empty name")
        if (self.source is None) == (self.path is None):
            raise BatchError(
                f"run {self.name!r}: exactly one of source= or path= "
                "must be given"
            )
        if self.defines is not None:
            # freeze the mapping so a frozen request is deeply read-only
            object.__setattr__(
                self, "defines", MappingProxyType(dict(self.defines))
            )

    # ------------------------------------------------------------------

    def read_source(self) -> str:
        """The Verilog text (reads ``path`` when the request carries one)."""
        if self.source is not None:
            return self.source
        return read_source_file(self.path)

    def design_key(self) -> tuple:
        """Hashable identity of the *compiled design* this run needs.

        Requests with equal keys share one compilation in a batch
        (the compile-once cache).
        """
        defines = tuple(sorted((self.defines or {}).items()))
        return (self.read_source(), self.top, defines)

    def with_options(self, **changes) -> "RunRequest":
        """Copy of this request with ``options`` fields replaced."""
        return dataclasses.replace(
            self, options=dataclasses.replace(self.options, **changes)
        )

    def fingerprint(self, design_fingerprint: str) -> str:
        """Content hash of this request's semantic identity.

        ``design_fingerprint`` is the batch catalog's hash of
        :meth:`design_key` (the engine computes it during compile-once
        deduplication).  The result keys the ``BATCHJRNL/1`` journal:
        a resume refuses to reuse a journaled outcome unless the
        fingerprints still match.  Operational knobs (paths, heartbeat
        cadence) are excluded — see
        :func:`repro.batch.journal.request_fingerprint`.
        """
        from repro.batch.journal import request_fingerprint

        return request_fingerprint(self, design_fingerprint)

    def open(self):
        """Build a :class:`repro.SymbolicSimulator` for this request
        in the current process (the non-batch path)."""
        import repro

        return repro.open_sim(source=self.source, path=self.path,
                              top=self.top, options=self.options,
                              defines=dict(self.defines)
                              if self.defines else None)

    def __getstate__(self):
        # MappingProxyType does not pickle; ship a plain dict and let
        # __setstate__ re-freeze on the other side.
        state = {f.name: getattr(self, f.name)
                 for f in dataclasses.fields(self)}
        if state["defines"] is not None:
            state["defines"] = dict(state["defines"])
        return state

    def __setstate__(self, state):
        defines = state.pop("defines")
        for key, value in state.items():
            object.__setattr__(self, key, value)
        object.__setattr__(
            self, "defines",
            MappingProxyType(defines) if defines is not None else None,
        )
