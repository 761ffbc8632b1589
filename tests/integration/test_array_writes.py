"""Memory writes: final state and BDD traffic of a symbolic-address run.

``dram`` is the builtin design whose testbench writes memory words at
symbolic addresses.  The final value of every net and memory word must
not depend on how a write decides that it changed something, and the
write path must not build BDDs that nothing reads.  Both are pinned
here, with default options and under the Table-1 GC/sifting knobs.

The state hash is independent of node ids: each rail is serialized as
its recursive ``(level, low, high)`` structure, hashed bottom-up so
that shared subgraphs are hashed once.  ``dram`` never sifts, so the
variable order is the creation order in every run.
"""

import hashlib
import json

import pytest

import repro
from repro import SimOptions
from repro.designs import load

GC_KNOBS = dict(gc_threshold=50_000, dyn_reorder=True,
                reorder_threshold=60_000)

#: sha256 of the canonical final state of dram (bursts=2) at t=3000;
#: the same with and without the GC knobs
DRAM_STATE_SHA256 = (
    "67cec9881cebb8ab17932bb63950b12c04ded0cb1158610eb9fdb54273f8944a")

#: arena counters of the same run, again the same with and without the
#: GC knobs: the run stays far below the GC threshold
DRAM_COUNTERS = {"peak_nodes": 2716, "gc_runs": 0, "reorder_runs": 0}

#: computed-table misses of the same run, per node store (the native
#: store's lossy tables compute an evicted key again)
DRAM_MISSES = {
    "python": {"apply_misses": 564, "ite_misses": 3976},
    "native": {"apply_misses": 573, "ite_misses": 4052},
}


def _rail_key(mgr, memo, node):
    """Node-id-independent digest of ``node``'s ``(level, low, high)``."""
    if node <= 1:
        return str(node)
    key = memo.get(node)
    if key is None:
        level = mgr.level_of(node)
        low, high = mgr.cofactors(node, level)
        text = (f"{level},{_rail_key(mgr, memo, low)},"
                f"{_rail_key(mgr, memo, high)}")
        key = hashlib.sha256(text.encode()).hexdigest()
        memo[node] = key
    return key


def _vec(mgr, memo, vec):
    return [vec.signed,
            [[_rail_key(mgr, memo, a), _rail_key(mgr, memo, b)]
             for a, b in vec.bits]]


def state_digest(sim):
    """sha256 over every net value and every written memory word."""
    kernel = sim.kernel
    mgr, state = kernel.mgr, kernel.state
    memo = {}
    image = {}
    for name in sorted(kernel.design.nets):
        if state.is_array(name):
            words = state.array_words(name)
            image[name] = {str(index): _vec(mgr, memo, words[index])
                           for index in sorted(words)}
        else:
            image[name] = _vec(mgr, memo, state.value(name))
    blob = json.dumps(image, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _counters(mgr):
    stats = mgr.cache_stats()
    return {key: stats[key] for key in
            ("apply_misses", "ite_misses", "peak_nodes", "gc_runs",
             "reorder_runs")}


@pytest.mark.parametrize("knobs", ["default", "gc"])
def test_dram_symbolic_writes(knobs):
    source, top, defines = load("dram", bursts=2)
    options = SimOptions(**(GC_KNOBS if knobs == "gc" else {}))
    sim = repro.open_sim(source, top=top, defines=defines, options=options)
    result = sim.run(until=3000)
    assert not result.violations
    assert state_digest(sim) == DRAM_STATE_SHA256
    store = "native" if sim.mgr.bdd_kernel == "native" else "python"
    assert _counters(sim.mgr) == {**DRAM_COUNTERS, **DRAM_MISSES[store]}
