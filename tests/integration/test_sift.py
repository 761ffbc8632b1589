"""Dynamic sifting: the swap sequence it explores and when it fires.

* **Sift identity.**  ``BddManager.sift`` on a seeded random multi-root
  graph and on the live graph a gcd run leaves under GC builds exactly
  the swap count, the variable order and the post-``reorder`` arena
  recorded below.  Every intermediate size of the scratch graph steers
  the sift, so any change to the swap that builds a different graph
  shows up here.
* **Schedule tripwire.**  The benchmark's managed risc8 run sifts once.
  A second sift costs more than the rest of the run together, so an
  operator rewrite that changes how much garbage the run makes — the
  sift trigger counts arena nodes, garbage included — must not add one
  unnoticed.
"""

import hashlib
import json
import random

import repro
from repro import ResourceBudgets, SimOptions, SimStatus
from repro.bdd import BddManager
from repro.designs import load

#: Table 1's FULL+GC column, as the managed benchmark workload runs it.
GC_KNOBS = dict(gc_threshold=50_000, dyn_reorder=True,
                reorder_threshold=60_000)


class _Roots:
    """An ordered root provider (handles enumerate in hash order)."""

    def __init__(self, nodes):
        self.nodes = list(nodes)

    def bdd_roots(self):
        return self.nodes

    def bdd_remap(self, lookup, level_map):
        self.nodes = [lookup(node) for node in self.nodes]


def _random_graph(seed=11, nvars=24, nops=160, nroots=8):
    rng = random.Random(seed)
    mgr = BddManager()
    nodes = [mgr.new_var(f"v{i}") for i in range(nvars)]
    for _ in range(nops):
        f, g, h = (rng.choice(nodes) for _ in range(3))
        op = rng.randrange(4)
        if op == 0:
            node = mgr.and_(f, g)
        elif op == 1:
            node = mgr.or_(f, mgr.not_(g))
        elif op == 2:
            node = mgr.xor(f, g)
        else:
            node = mgr.ite(f, g, h)
        nodes.append(node)
    roots = _Roots(rng.sample(nodes[nvars:], nroots))
    mgr.register_root_provider(roots)
    return mgr, roots


def _sifted(mgr):
    """(swaps, order, live nodes, arena sha256) after one ``sift``."""
    mgr.sift()
    arena = json.dumps([mgr._level, mgr._low, mgr._high]).encode()
    return (mgr.cache_stats()["reorder_swaps"], mgr._var_names,
            mgr.total_nodes, hashlib.sha256(arena).hexdigest())


RANDOM_ORDER = ["v11", "v14", "v3", "v2", "v13", "v7", "v10", "v9", "v0",
                "v15", "v16", "v8", "v1", "v20", "v6", "v18", "v5", "v12",
                "v4", "v19", "v17", "v21", "v22", "v23"]
RANDOM_CONVERGED_ORDER = [
    "v11", "v14", "v3", "v2", "v13", "v7", "v19", "v9", "v10", "v0", "v15",
    "v16", "v8", "v1", "v20", "v12", "v5", "v21", "v6", "v4", "v18", "v17",
    "v22", "v23"]
GCD_ORDER = ["random0.0@t0[0]", "random1.0@t0[0]", "random0.0@t0[4]",
             "random0.0@t0[3]", "random0.0@t0[2]", "random0.0@t0[1]",
             "random1.0@t0[1]", "random1.0@t0[4]", "random1.0@t0[2]",
             "random1.0@t0[3]"]


def test_random_graph_sift_is_identical():
    mgr, _ = _random_graph()
    assert _sifted(mgr) == (
        917, RANDOM_ORDER, 267,
        "af9993f75896f47898ee30d705e5f8b35766d8489ef4547f59d44bfafe9ea895")


def test_converged_random_graph_sift_is_identical():
    mgr, _ = _random_graph()
    mgr.sift_converge = True
    assert _sifted(mgr) == (
        3311, RANDOM_CONVERGED_ORDER, 231,
        "29751d5d8c453a48f8d10ecd41d1fb668b4d54dbccdf74b7277953375d90cd23")


def test_gcd_live_graph_sift_is_identical():
    source, top, defines = load("gcd", rounds=1, width=5)
    sim = repro.open_sim(source, top=top, defines=defines,
                         options=SimOptions(**GC_KNOBS))
    assert sim.run(until=5000).status is SimStatus.OK
    assert _sifted(sim.mgr) == (
        168, GCD_ORDER, 1520,
        "052939bf7474df17525bd8fdec1854e16ab13c0f182e8bb70aa620d3d0dba7d5")


def test_managed_risc8_sifts_once(monkeypatch):
    sifts = []
    sift = BddManager.sift

    def counting(mgr):
        sifts.append(mgr.total_nodes)
        return sift(mgr)

    monkeypatch.setattr(BddManager, "sift", counting)
    source, top, defines = load("risc8", runtime=180)
    budgets = ResourceBudgets(wall_seconds=24 * 3600.0,
                              max_live_nodes=500_000_000,
                              max_events=10 ** 12)
    sim = repro.open_sim(source, top=top, defines=defines,
                         options=SimOptions(budgets=budgets, **GC_KNOBS))
    assert sim.run(until=400).status is SimStatus.OK
    assert len(sifts) == 1, f"sifted at arena sizes {sifts}"
