"""Dynamic sifting: the swap sequence it explores and when it fires.

* **Sift identity.**  ``BddManager.sift`` on a seeded random multi-root
  graph and on the live graph a gcd run leaves under GC builds exactly
  the swap count, the variable order and the post-``reorder`` arena
  recorded below.  Every intermediate size of the scratch graph steers
  the sift, so any change to the swap that builds a different graph
  shows up here.
* **Schedule.**  The benchmark's managed risc8 run sifts once, at the
  sim time and with the swap count recorded below, whatever the GC
  threshold, under an extra garbage load and across a checkpoint.  The
  first sift is due once ``reorder_threshold`` nodes have been *built*,
  so how often GC runs cannot move it; a sift one safe point too late
  lands past a cliff and costs more than the rest of the run together
  (docs/PERFORMANCE.md "The sift schedule").  The mcu8 bug hunt under
  the same knobs sifts once too, where sifting costs more than it
  saves (ROADMAP item 6); its verdict and work are pinned as they are.
  So is an 8-bit accumulator under a small GC threshold, the second
  design where sifting loses: it re-sifts ten times and more than
  doubles the peak it runs to without sifting.

The mcu8 hunt runs on both node stores; the Python store's sifts are
checked against the native one's by ``tests/unit/test_bdd_native.py``.
"""

import hashlib
import json
import random

import pytest

import repro
from repro import ResourceBudgets, SimOptions, SimStatus
from repro.bdd import FALSE, TRUE, BddManager
from repro.designs import load
from repro.guard import save_checkpoint
from repro.sim.kernel import Kernel

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
    nodes = mgr.arena.image()
    arena = json.dumps([nodes["level"], nodes["low"],
                        nodes["high"]]).encode()
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
    # dynamic sifting off: the graph sifted here does not depend on when
    # (or whether) the run sifted itself
    source, top, defines = load("gcd", rounds=1, width=5)
    sim = repro.open_sim(source, top=top, defines=defines,
                         options=SimOptions(gc_threshold=50_000))
    assert sim.run(until=5000).status is SimStatus.OK
    assert _sifted(sim.mgr) == (
        168, GCD_ORDER, 1520,
        "052939bf7474df17525bd8fdec1854e16ab13c0f182e8bb70aa620d3d0dba7d5")


#: (sim time, swaps) of the one sift of managed risc8 to t=400
RISC8_SIFTS = [(97, 8612)]
#: its arena high-water mark under ``GC_KNOBS``
RISC8_PEAK = 144_425


@pytest.fixture
def sifts(monkeypatch):
    """(sim time, swaps) of every sift run at a kernel's safe point."""
    log = []
    now = []
    maintain, sift = Kernel._maintain, BddManager.sift

    def timed_maintain(kernel):
        now.append(kernel.now)
        maintain(kernel)

    def logged_sift(mgr):
        swaps = mgr.cache_stats()["reorder_swaps"]
        saved = sift(mgr)
        log.append((now[-1], mgr.cache_stats()["reorder_swaps"] - swaps))
        return saved

    monkeypatch.setattr(Kernel, "_maintain", timed_maintain)
    monkeypatch.setattr(BddManager, "sift", logged_sift)
    return log


def _risc8(resume=None, **knobs):
    source, top, defines = load("risc8", runtime=180)
    budgets = ResourceBudgets(wall_seconds=24 * 3600.0,
                              max_live_nodes=500_000_000,
                              max_events=10 ** 12)
    options = SimOptions(budgets=budgets, **{**GC_KNOBS, **knobs})
    return repro.open_sim(source, top=top, defines=defines,
                          options=options, resume=resume)


def test_managed_risc8_sifts_once(sifts):
    sim = _risc8()
    assert sim.run(until=400).status is SimStatus.OK
    assert sifts == RISC8_SIFTS
    assert sim.mgr.peak_nodes == RISC8_PEAK


@pytest.mark.parametrize("gc_threshold", [20_000, 45_000, 55_000])
def test_managed_risc8_sift_ignores_gc_threshold(sifts, gc_threshold):
    sim = _risc8(gc_threshold=gc_threshold)
    assert sim.run(until=400).status is SimStatus.OK
    assert sifts == RISC8_SIFTS


def _garbage_load(monkeypatch, share):
    """Before each safe point, build ``share`` of the step's arena
    growth again as unreferenced minterm chains over the last levels."""
    maintain = Kernel._maintain
    state = {"last": 0, "next": 0}

    def loaded(kernel):
        mgr = kernel.mgr
        target = mgr.total_nodes + int(
            share * max(mgr.total_nodes - state["last"], 0))
        depth = min(16, mgr.var_count)
        while mgr.total_nodes < target:
            minterm, node = state["next"], TRUE
            state["next"] += 1
            for i in range(depth):
                level = mgr.var_count - 1 - i
                node = (mgr.arena.mk(level, FALSE, node) if minterm >> i & 1
                        else mgr.arena.mk(level, node, FALSE))
        maintain(kernel)
        state["last"] = mgr.total_nodes

    monkeypatch.setattr(Kernel, "_maintain", loaded)


def test_managed_risc8_sift_survives_garbage(monkeypatch, sifts):
    _garbage_load(monkeypatch, 0.05)
    sim = _risc8()
    assert sim.run(until=400).status is SimStatus.OK
    assert len(sifts) == 1, f"sifted at {sifts}"
    assert sim.mgr.peak_nodes <= RISC8_PEAK * 1.1


@pytest.mark.parametrize("split", [50, 100])  # before / after the sift
def test_resumed_risc8_sifts_like_the_whole_run(tmp_path, sifts, split):
    head = _risc8()
    assert head.run(until=split).status is SimStatus.OK
    path = str(tmp_path / "risc8.ckpt")
    save_checkpoint(head.kernel, path)
    del head
    resumed = _risc8(resume=path)
    assert resumed.run(until=400).status is SimStatus.OK
    assert sifts == RISC8_SIFTS


#: (sim time, swaps) of the one sift of the mcu8 bug hunt to t=200
MCU8_SIFTS = [(46, 3913)]
#: its arena high-water mark: the peak is built within one time step,
#: before the first safe point past ``reorder_threshold``
MCU8_PEAK = 763_572


def test_mcu8_hunt_sifts_once_under_managed_knobs(sifts, store):
    source, top, defines = load("mcu8", runtime=100)
    sim = repro.open_sim(source, top=top, defines=defines,
                         options=SimOptions(**GC_KNOBS))
    result = sim.run(until=200)
    assert result.status is SimStatus.ASSERT_FAILED
    assert [v.time for v in result.violations][:1] == [47]
    assert sifts == MCU8_SIFTS
    assert sim.mgr.peak_nodes == MCU8_PEAK


#: a symbolic 8-bit accumulator over 12 clock edges
ACCUMULATOR = """
module tb;
  reg clk;
  reg [7:0] a;
  reg [7:0] acc;
  integer i;
  initial begin
    clk = 0; acc = 0;
    for (i = 0; i < 24; i = i + 1) #5 clk = ~clk;
    $assert(acc != 8'hff);
    $finish;
  end
  always @(posedge clk) begin
    a = $random;
    acc = acc + (a[0] ? a : 8'd3);
  end
endmodule
"""


@pytest.mark.parametrize("store", ["native"], indirect=True)
def test_accumulator_sifts_at_a_loss_under_a_small_gc_threshold(store):
    """Ten sifts, 29,856 swaps and a 173,283-node peak, against a
    71,147-node peak without ``dyn_reorder``.  The native store runs it
    in about 2 s.  The Python store's sift takes about 29 s here, so
    this runs on the native store only; the two stores' sifts are
    compared on small graphs by ``tests/unit/test_bdd_native.py``."""
    sim = repro.open_sim(ACCUMULATOR, options=SimOptions(
        gc_threshold=200, dyn_reorder=True))
    assert sim.run().status is SimStatus.OK
    stats = sim.mgr.cache_stats()
    assert (stats["reorder_runs"], stats["reorder_swaps"],
            stats["gc_runs"], stats["peak_nodes"]) == (10, 29_856, 20,
                                                       173_283)
