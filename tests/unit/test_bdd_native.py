"""The native node store against the Python one, and its fallback.

* **Differential.**  Random operation sequences (``ite``/``not``/
  ``and``/``or``/``xor``/``constrain``/``new_var`` with ``collect``,
  ``sift``, ``reorder`` and ``image()``/``restore()`` between them) run
  on a native manager and on a Python one; after every step the two
  hold the same image, peak and dropped count, and the native store
  (lossy computed tables) has missed at least as often per table as
  the Python one (exact tables): a key's first occurrence misses on
  both, and only the native store can miss on it again.
* **Sift.**  On random multi-root graphs, with the sift's bounds cut
  small enough that the swap budget runs out mid-variable, the growth
  limit ends sweeps and candidates are dropped, the C sift makes the
  Python one's swaps and finds its order, with and without converging.
* **Fallback.**  Without cffi a manager runs the Python store and says
  why; the native store is built on first use only, into a per-user
  cache keyed by its source.
"""

import os
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import TRUE, BddManager, native
from repro.bdd.arena import Arena
from repro.errors import BddError

NATIVE = native.unavailable()
needs_native = pytest.mark.skipif(
    NATIVE is not None, reason=f"native BDD store unavailable: {NATIVE}")


class _Pool:
    """The nodes a sequence holds (a root provider)."""

    def __init__(self, nodes):
        self.nodes = list(nodes)

    def bdd_roots(self):
        return self.nodes

    def bdd_remap(self, lookup, level_map):
        self.nodes = [lookup(node) for node in self.nodes]


def _manager(fastpath):
    # fast paths off: the Python store, as under --no-fastpath
    mgr = BddManager()
    mgr.fastpath = fastpath
    pool = _Pool([mgr.new_var("v0"), mgr.new_var("v1")])
    mgr.register_root_provider(pool)
    return mgr, pool


def _step(mgr, pool, op, args):
    nodes = pool.nodes
    pick = [nodes[arg % len(nodes)] for arg in args]
    if op == "new_var":
        nodes.append(mgr.new_var())
    elif op == "ite":
        nodes.append(mgr.ite(*pick))
    elif op == "not":
        nodes.append(mgr.not_(pick[0]))
    elif op in ("and", "or", "xor"):
        nodes.append(getattr(mgr, op + ("_" if op != "xor" else ""))(
            pick[0], pick[1]))
    elif op == "constrain":
        nodes.append(mgr.constrain(pick[0], pick[1]))
    elif op == "collect":
        del nodes[1::3]  # drop roots, but never the last one
        mgr.collect()
    elif op == "sift":
        mgr.sift()
    elif op == "reorder":
        order = list(range(mgr.var_count))
        random.Random(args[0]).shuffle(order)
        mgr.reorder(order)
    elif op == "restore":
        mgr.restore(mgr.image())


def _state(mgr, pool):
    arena = mgr.arena
    return (mgr.image(), arena.peak, arena.dropped, pool.nodes)


OPS = st.tuples(
    st.sampled_from(["new_var", "ite", "not", "and", "or", "xor",
                     "constrain", "ite", "and", "xor", "collect", "sift",
                     "reorder", "restore"]),
    st.lists(st.integers(0, 1000), min_size=3, max_size=3))


@needs_native
@settings(max_examples=60, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_native_store_matches_python_store(ops):
    fast, fast_pool = _manager(True)
    slow, slow_pool = _manager(False)
    assert fast.bdd_kernel == "native"
    assert slow.bdd_kernel == "python (--no-fastpath)"
    for op, args in ops:
        _step(fast, fast_pool, op, args)
        _step(slow, slow_pool, op, args)
        assert _state(fast, fast_pool) == _state(slow, slow_pool), op
        pairs = list(zip(fast.arena.misses(), slow.arena.misses()))
        assert all(lossy >= exact for lossy, exact in pairs), (op, pairs)


SIFT_BOUNDS = st.tuples(
    st.one_of(st.integers(0, 40), st.just(1_000_000)),       # swaps
    st.sampled_from([1.0, 1.05, 1.2, 2.0]),                  # growth
    st.one_of(st.integers(0, 6), st.just(1000)))             # variables


def _sift_graph(fastpath, seed, nvars, nops):
    """A manager holding a random graph's roots through two providers
    that share some of them and two handles on one of those; returns it
    and its holders.  (Handles enumerate in hash order, and ``reorder``
    numbers nodes in root order, so handles on distinct nodes would
    make the image after the sift differ from run to run.)"""
    rng = random.Random(seed)
    mgr = BddManager()
    mgr.fastpath = fastpath
    nodes = [mgr.new_var(f"v{i}") for i in range(nvars)]
    for _ in range(nops):
        f, g, h = (rng.choice(nodes) for _ in range(3))
        nodes.append((mgr.and_(f, g), mgr.or_(f, mgr.not_(g)),
                      mgr.xor(f, g), mgr.ite(f, g, h))[rng.randrange(4)])
    picked = rng.sample(nodes[nvars:], min(nops, 6))
    holders = [_Pool(picked[:4]), _Pool(picked[2:]),
               [mgr.ref(picked[-1]), mgr.ref(picked[-1])]]
    for pool in holders[:2]:
        mgr.register_root_provider(pool)
    return mgr, holders


@needs_native
@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 10), st.integers(1, 90),
       st.booleans(), SIFT_BOUNDS)
def test_native_sift_matches_python_sift(seed, nvars, nops, converge,
                                         bounds):
    from repro.bdd import manager

    seen = []
    with pytest.MonkeyPatch.context() as patch:
        for name, value in zip(("SIFT_MAX_SWAP", "SIFT_MAX_GROWTH",
                                "SIFT_MAX_VARS"), bounds):
            patch.setattr(manager, name, value)
        for fastpath in (True, False):
            mgr, holders = _sift_graph(fastpath, seed, nvars, nops)
            assert (mgr.bdd_kernel == "native") is fastpath
            mgr.sift_converge = converge
            mgr.sift()
            seen.append((mgr._var_names, mgr.cache_stats()["reorder_swaps"],
                         mgr.image(), holders[0].nodes, holders[1].nodes,
                         [handle.node for handle in holders[2]]))
    assert seen[0] == seen[1]


@needs_native
def test_native_sift_errors_are_one_line():
    mgr = BddManager()
    a, b = mgr.new_var(), mgr.new_var()
    mgr.and_(a, b)
    with pytest.raises(BddError, match="not a node of this manager: 99"):
        mgr.arena.sift_order([a, 99], 2, False, 10, 1.2, 2)
    # a node whose level names no variable
    with pytest.raises(BddError, match="not a node of this manager: 3"):
        mgr.arena.sift_order([a], 1, False, 10, 1.2, 2)
    # the store still sifts, as the Python one does
    python = Arena.from_image(mgr.arena.image(), 2)
    assert (mgr.arena.sift_order([a, b], 2, False, 10, 1.2, 2)
            == python.sift_order([a, b], 2, False, 10, 1.2, 2) == ([0, 1], 4))


@needs_native
def test_native_errors_are_one_line():
    mgr = BddManager()
    a = mgr.new_var("a")
    with pytest.raises(BddError, match="not a node of this manager: 99"):
        mgr.and_(a, 99)
    with pytest.raises(BddError, match="not a node"):
        mgr.arena.node(-1)
    assert mgr.and_(a, mgr.not_(a)) == 0  # the store still works


@needs_native
def test_recursion_past_the_stack_is_one_error():
    # a 20,000-level chain walked by a thread with a 512 KiB stack: the
    # kernels stop at the stack's floor instead of overflowing it
    mgr = BddManager()
    chain = TRUE
    for var in reversed([mgr.new_var() for _ in range(20_000)]):
        chain = mgr.and_(var, chain)
    outcome = []

    def walk():
        try:
            outcome.append(mgr.not_(chain))
        except BddError as exc:
            outcome.append(str(exc))

    saved = threading.stack_size(512 * 1024)
    try:
        thread = threading.Thread(target=walk)
        thread.start()
        thread.join(timeout=60)
    finally:
        threading.stack_size(saved)
    assert not thread.is_alive()
    assert outcome == ["BDD operation recursed deeper than the C stack "
                       "allows"]
    a, b = mgr.var(0), mgr.var(1)
    assert mgr.and_(a, b) == mgr.not_(mgr.or_(mgr.not_(a), mgr.not_(b)))


def test_missing_cffi_falls_back_to_python(monkeypatch):
    monkeypatch.setattr(native, "_loaded", None)
    monkeypatch.setitem(sys.modules, "cffi", None)  # import raises
    mgr = BddManager()
    assert mgr.bdd_kernel == "python (no BDD variables)"
    a, b = mgr.new_var("a"), mgr.new_var("b")
    assert mgr.bdd_kernel == "python (cffi not installed)"
    assert mgr.xor(a, b) == mgr.or_(mgr.and_(a, mgr.not_(b)),
                                    mgr.and_(mgr.not_(a), b))


def test_store_is_chosen_at_the_first_variable(monkeypatch):
    loads = []
    monkeypatch.setattr(native, "unavailable",
                        lambda: loads.append(1) or "disabled here")
    mgr = BddManager()
    assert mgr.and_(1, 1) == 1 and mgr.ite(0, 0, 1) == 1
    assert not loads  # a terminal-only manager never looks
    mgr.new_var()
    mgr.new_var()
    assert loads == [1]
    assert mgr.bdd_kernel == "python (disabled here)"


@needs_native
def test_build_is_cached_per_source(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_loaded", None)
    assert native.unavailable() is None
    cache = tmp_path / "repro"
    assert oct(cache.stat().st_mode & 0o777) == oct(0o700)
    built = os.listdir(cache)
    assert len(built) == 1 and built[0].startswith("_repro_bdd_")
    # a second process (here: a second load) reuses the same file
    monkeypatch.setattr(native, "_loaded", None)
    assert native.unavailable() is None
    assert os.listdir(cache) == built


def test_build_failure_names_a_missing_compiler(monkeypatch):
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    assert native._build_failure("gcc: not found\n") == "no C compiler"
