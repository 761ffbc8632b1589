"""Outside-in layer ledger: exclusive host time per layer of ``repro``.

The ledger never edits the package.  :meth:`Ledger.install` swaps the
public entry points of each layer for timing wrappers -- module
functions in every ``repro`` module that holds them, two ``Kernel``
methods on the class -- and :meth:`Ledger.uninstall` puts the
originals back.  BDD operators are timed per manager instance
(:meth:`Ledger.wrap_manager`), so only managers the benchmark hands to
``Kernel(mgr=...)`` (or wraps after a checkpoint restore) are traced.

Each wrapped call is a span.  Its *self* time is its duration minus
the spans nested inside it, so the self times of all layers plus the
time outside every span add up to the traced wall time.  An *opaque*
layer absorbs everything it calls: a BDD operator that recurses into
other operators counts once (the depth rule), and a concrete replay
counts as replay time, not as kernel time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: BddManager operators timed as ``bdd.apply`` (top-level calls only).
APPLY_OPS = (
    "ite", "not_", "and_", "or_", "xor", "xnor", "nand", "nor", "implies",
    "and_all", "or_all", "restrict", "restrict_many", "compose", "exists",
    "forall",
)

#: (layer, module, attribute, opaque) for the module-level entry points.
FUNCTIONS = (
    ("frontend.parse", "repro.frontend.parser", "parse_source", False),
    ("frontend.elaborate", "repro.frontend.elaborate", "elaborate", False),
    ("compile.compile", "repro.compile.compiler", "compile_design", False),
    ("compile.codegen", "repro.compile.codegen", "compiled_tables", False),
    ("guard.save", "repro.guard.checkpoint", "save_checkpoint", True),
    ("guard.load", "repro.guard.checkpoint", "load_checkpoint", True),
    ("resim.replay", "repro.sim.resim", "resimulate", True),
    ("batch.run_batch", "repro.batch.engine", "run_batch", False),
    ("mutate.plan", "repro.mutate.plan", "build_plan", False),
    ("mutate.campaign", "repro.mutate.campaign", "run_campaign", False),
)

#: (layer, attribute) of ``repro.sim.kernel.Kernel`` methods.
KERNEL_METHODS = (
    ("sim.kernel_init", "__init__"),
    ("sim.run", "run"),
)


class Ledger:
    """Per-layer self time, inclusive time and call counts."""

    def __init__(self) -> None:
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        # open spans, innermost last: [opaque, seconds of nested spans]
        self._stack = []
        self._undo = []

    def reset(self) -> None:
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()

    def snapshot(self) -> dict:
        return {"self": dict(self.self_s), "incl": dict(self.incl_s),
                "calls": dict(self.calls)}

    def wrap(self, layer: str, fn, opaque: bool = False):
        """Return ``fn`` wrapped in a span of ``layer``."""
        stack = self._stack
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        clock = time.perf_counter

        def span(*args, **kwargs):
            if stack and stack[-1][0]:
                return fn(*args, **kwargs)
            frame = [opaque, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                incl_s[layer] += elapsed
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed

        return span

    def wrap_manager(self, mgr):
        """Time ``mgr``'s operators, GC and reordering; returns ``mgr``."""
        for name in APPLY_OPS:
            setattr(mgr, name, self.wrap("bdd.apply", getattr(mgr, name),
                                         opaque=True))
        mgr.collect = self.wrap("bdd.gc", mgr.collect, opaque=True)
        mgr.sift = self.wrap("bdd.reorder", mgr.sift, opaque=True)
        mgr.reorder = self.wrap("bdd.reorder", mgr.reorder, opaque=True)
        return mgr

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per ledger)."""
        if self._undo:
            return
        import importlib

        from repro.sim.kernel import Kernel

        for layer, module_name, attr, opaque in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self.wrap(layer, original, opaque)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapped
                        self._undo.append((namespace, key, original))
        for layer, attr in KERNEL_METHODS:
            original = Kernel.__dict__[attr]
            setattr(Kernel, attr, self.wrap(layer, original))
            self._undo.append((None, attr, original))

    def uninstall(self) -> None:
        from repro.sim.kernel import Kernel

        for namespace, key, original in reversed(self._undo):
            if namespace is None:
                setattr(Kernel, key, original)
            else:
                namespace[key] = original
        self._undo.clear()
