"""The recursive BDD kernels: node-for-node output and refcount release.

Two invariants of ``repro.bdd``:

* **Arena identity.**  A reference symbolic run builds exactly the
  arena and computed-table traffic recorded below.  Any kernel rewrite
  that changes the expansion order (low cofactor first), a cache key or
  a reduction shows up here as a changed hash or counter.  Both stores
  build the same arena; the traffic is pinned per store, because the
  native store's computed tables are lossy caches that compute an
  evicted key again (and count it again), where the Python store's
  are exact.
* **Refcount release.**  A finished simulation holds its manager in no
  reference cycle: with the cyclic collector off, dropping the
  simulation and its result frees the whole BDD arena at once (on the
  native store, its C memory too).

The tests run on the store a manager picks; the arena identity also
runs on the Python store.
"""

import gc
import hashlib
import json
import weakref

import pytest

import repro
from repro import SimOptions
from repro.bdd import BddManager, native
from repro.designs import load
from repro.obs import MetricsRegistry

#: builtin gcd (width 5, 1 round) run symbolically to t=5000
GCD_ARENA_SHA256 = (
    "d67c768b499163f0ba09d0e807c028d35fcb9c53fb4655ad1e063333c4961992")
GCD_PEAK_NODES = 82514
#: the native store's tables at their peak in the same run: 262,144
#: unique slots and five computed tables of 262,144 / 8 slots, 16 B each
GCD_TABLE_BYTES = (262_144 + 5 * 32_768) * 16
#: computed-table traffic of the same run, per node store
GCD_CACHE_STATS = {
    "python": {
        "ite_hits": 22258, "ite_misses": 57459,
        "not_hits": 30119, "not_misses": 22183,
        "apply_hits": 102751, "apply_misses": 151295,
    },
    "native": {
        "ite_hits": 29041, "ite_misses": 84587,
        "not_hits": 44970, "not_misses": 36035,
        "apply_hits": 130696, "apply_misses": 200119,
    },
}


def _gcd_sim(**options):
    source, top, defines = load("gcd", rounds=1, width=5)
    return repro.open_sim(source, top=top, defines=defines,
                          options=SimOptions(**options))


def _gcd_arena_sha256(mgr):
    nodes = mgr.arena.image()
    arena = json.dumps([nodes["level"], nodes["low"],
                        nodes["high"]]).encode()
    return hashlib.sha256(arena).hexdigest()


def _check_gcd_arena():
    sim = _gcd_sim()
    sim.run(until=5000)
    mgr = sim.mgr
    assert _gcd_arena_sha256(mgr) == GCD_ARENA_SHA256
    stats = mgr.cache_stats()
    assert stats["peak_nodes"] == GCD_PEAK_NODES
    pins = GCD_CACHE_STATS["native" if mgr.bdd_kernel == "native"
                           else "python"]
    assert {key: stats[key] for key in pins} == pins
    return mgr.bdd_kernel


def test_gcd_arena_is_node_for_node_identical():
    _check_gcd_arena()


def test_python_store_builds_the_same_gcd_arena(python_store):
    assert _check_gcd_arena().startswith("python")


def test_lossy_native_tables_evict_without_changing_the_arena(monkeypatch):
    """The first occurrence of a key is a miss on both stores, so the
    native store computes every key the exact tables compute, at least
    once: its misses are never fewer, and on gcd some entries are
    evicted and computed again, building the same arena.  The native
    tables peak at the size their rule gives (unique capacity / 8)."""
    if native.unavailable() is not None:
        pytest.skip(f"native BDD store unavailable: {native.unavailable()}")
    runs = {}
    for store in ("native", "python"):
        if store == "python":
            monkeypatch.setattr(native, "unavailable",
                                lambda: "disabled for this test")
        sim = _gcd_sim()
        sim.run(until=5000)
        assert sim.mgr.bdd_kernel.startswith(store)
        runs[store] = (_gcd_arena_sha256(sim.mgr), sim.mgr.arena.misses(),
                       sim.mgr.arena.table_bytes())
    assert runs["native"][0] == runs["python"][0] == GCD_ARENA_SHA256
    assert runs["native"][2] == GCD_TABLE_BYTES
    assert runs["python"][2] is None
    pairs = list(zip(runs["native"][1], runs["python"][1]))
    assert all(lossy >= exact for lossy, exact in pairs), pairs
    assert any(lossy > exact for lossy, exact in pairs), pairs


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _weak(*objects):
    return [weakref.ref(obj) for obj in objects]


def _kernels(mgr):
    """Weak references to ``mgr``'s bound operator kernels.

    A kernel that referred to itself would outlive its manager in a
    cycle and keep the arena lists it is bound to alive with it.
    """
    return _weak(mgr._ite_k, mgr._not_k, mgr._and_k, mgr._or_k, mgr._xor_k,
                 mgr._constrain_k)


def _all_dead(refs):
    return all(ref() is None for ref in refs)


def _live_stores():
    """Native stores alive in the process (0 without the native store)."""
    return native.live_stores() if native.unavailable() is None else 0


@pytest.mark.parametrize("compile_tier", [True, False],
                         ids=["compiled", "interpreter"])
def test_finished_simulation_frees_its_manager(no_cyclic_gc, compile_tier):
    before = _live_stores()
    sim = _gcd_sim(compile_tier=compile_tier)
    result = sim.run(until=5000)
    assert result.stats.symbols_injected > 0
    assert _live_stores() == before + (sim.mgr.bdd_kernel == "native")
    refs = _weak(sim.kernel, sim.mgr) + _kernels(sim.mgr)
    del sim, result
    assert _all_dead(refs)
    assert _live_stores() == before


def test_bare_manager_is_freed_by_refcount(no_cyclic_gc):
    before = _live_stores()
    mgr = BddManager()
    a, b, c = (mgr.new_var(name) for name in "abc")
    f = mgr.ite(a, mgr.xor(b, c), mgr.not_(mgr.or_(b, c)))
    assert mgr.and_(f, a) != f
    replaced = _kernels(mgr)
    mgr.collect()  # rebinds the kernels to the compacted arena
    assert _all_dead(replaced)
    mgr.and_(mgr.var(0), mgr.var(1))
    refs = _weak(mgr) + _kernels(mgr)
    del mgr
    assert _all_dead(refs)
    assert _live_stores() == before


#: An adder and a compare on a register that is X wherever a[0] is 0,
#: so both take the care-set branch (BddManager.constrain).
X_ARITH = """
module tb;
  reg [3:0] a, r, s;
  initial begin
    a = $random;
    if (a[0]) r = a;
    #1 s = r + a;
    if (s < a) $display("wrapped");
    #1 $finish;
  end
endmodule
"""


def test_run_through_x_arithmetic_frees_its_manager(no_cyclic_gc,
                                                    monkeypatch):
    before = _live_stores()
    calls = []
    constrain = BddManager.constrain

    def counting(mgr, f, c):
        calls.append(c)
        return constrain(mgr, f, c)

    monkeypatch.setattr(BddManager, "constrain", counting)
    sim = repro.open_sim(X_ARITH, top="tb")
    result = sim.run(until=10)
    assert calls, "the care-set branch was not taken"
    refs = _weak(sim.kernel, sim.mgr) + _kernels(sim.mgr)
    del sim, result
    assert _all_dead(refs)
    assert _live_stores() == before


def test_latency_instrumented_manager_is_freed_by_refcount(no_cyclic_gc):
    before = _live_stores()
    mgr = BddManager()
    mgr.instrument_latency(MetricsRegistry(), sample_every=1)
    a, b = mgr.new_var("a"), mgr.new_var("b")
    assert mgr.xor(mgr.and_(a, b), mgr.ite(a, b, mgr.not_(b))) != a
    refs = _weak(mgr) + _kernels(mgr)
    del mgr
    assert _all_dead(refs)
    assert _live_stores() == before
