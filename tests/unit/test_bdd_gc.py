"""Mark-and-sweep GC, stable handles, root providers and sifting.

Unit layer for the BddManager memory-management machinery: collection
reclaims exactly the unreachable arena, handles and provider roots
survive with their truth tables intact, in-place reordering preserves
semantics while renumbering, and sifting actually finds the interleaved
order on the canonical ripple-adder worst case.
"""

import random

import pytest

from repro.bdd import FALSE, TRUE, BddManager
from repro.bdd.manager import BddRef
from repro.errors import BddError
from repro.obs.metrics import MetricsRegistry


def fresh(nvars=4):
    mgr = BddManager()
    vs = [mgr.new_var(f"v{i}") for i in range(nvars)]
    return mgr, vs


def truth_table(mgr, node, nvars):
    return tuple(
        mgr.eval(node, {i: bool(mask >> i & 1) for i in range(nvars)})
        for mask in range(1 << nvars)
    )


class TestCollect:
    def test_unreferenced_nodes_are_reclaimed(self):
        mgr, vs = fresh()
        for i in range(3):
            mgr.and_(vs[i], vs[i + 1])  # results dropped immediately
        before = mgr.total_nodes
        reclaimed = mgr.collect()
        assert reclaimed > 0
        assert mgr.total_nodes == before - reclaimed
        stats = mgr.cache_stats()
        assert stats["gc_runs"] == 1
        assert stats["gc_reclaimed"] == reclaimed

    def test_handles_pin_and_follow_nodes(self):
        mgr, vs = fresh()
        f = mgr.xor(mgr.and_(vs[0], vs[1]), vs[2])
        table = truth_table(mgr, f, 4)
        ref = mgr.ref(f)
        mgr.or_(vs[2], vs[3])  # garbage
        mgr.collect()
        # the handle is rewritten in place; its function is unchanged
        assert truth_table(mgr, ref.deref(), 4) == table

    def test_dropping_handle_frees_its_nodes(self):
        mgr, vs = fresh()
        ref = mgr.ref(mgr.and_(mgr.and_(vs[0], vs[1]), vs[2]))
        mgr.collect()
        pinned = mgr.total_nodes
        del ref
        mgr.collect()
        assert mgr.total_nodes < pinned

    def test_var_bdds_always_survive(self):
        mgr, vs = fresh()
        mgr.collect()
        for i in range(4):
            assert mgr.level_of(mgr.var(i)) == i
        assert mgr.eval(mgr.var(2), {2: True})

    def test_terminals_are_stable(self):
        mgr, vs = fresh()
        mgr.and_(vs[0], vs[1])
        mgr.collect()
        assert mgr.and_(vs[0], FALSE) == FALSE
        assert mgr.or_(vs[0], TRUE) == TRUE

    def test_canonicity_after_collect(self):
        # rebuilding the same function after GC must yield the same id
        mgr, vs = fresh()
        ref = mgr.ref(mgr.xor(vs[0], mgr.and_(vs[1], vs[3])))
        mgr.or_(vs[1], vs[2])
        mgr.collect()
        again = mgr.xor(mgr.var(0), mgr.and_(mgr.var(1), mgr.var(3)))
        assert again == ref.deref()

    def test_collect_idempotent_when_everything_live(self):
        mgr, vs = fresh()
        ref = mgr.ref(mgr.and_(vs[0], vs[1]))
        mgr.collect()
        assert mgr.collect() == 0
        assert truth_table(mgr, ref.deref(), 4)[-1] is True


class TestRootProviders:
    class Holder:
        def __init__(self, nodes):
            self.nodes = list(nodes)

        def bdd_roots(self):
            return iter(self.nodes)

        def bdd_remap(self, lookup, level_map):
            self.nodes = [lookup(n) for n in self.nodes]
            self.level_map = level_map

    def test_provider_roots_survive_and_remap(self):
        mgr, vs = fresh()
        f = mgr.or_(mgr.and_(vs[0], vs[1]), vs[3])
        table = truth_table(mgr, f, 4)
        holder = self.Holder([f])
        mgr.register_root_provider(holder)
        mgr.and_(vs[2], vs[3])  # garbage
        mgr.collect()
        assert truth_table(mgr, holder.nodes[0], 4) == table
        assert holder.level_map is None  # pure GC: levels unchanged

    def test_unregistered_provider_roots_die(self):
        mgr, vs = fresh()
        holder = self.Holder([mgr.and_(mgr.and_(vs[0], vs[1]), vs[2])])
        mgr.register_root_provider(holder)
        mgr.collect()
        pinned = mgr.total_nodes
        mgr.unregister_root_provider(holder)
        mgr.collect()
        assert mgr.total_nodes < pinned

    def test_provider_sees_level_map_on_reorder(self):
        mgr, vs = fresh()
        holder = self.Holder([mgr.and_(vs[0], vs[3])])
        mgr.register_root_provider(holder)
        mgr.reorder([3, 2, 1, 0])
        assert list(holder.level_map) == [3, 2, 1, 0]
        # old level 0 ("v0") now sits at position 3
        assert mgr.var_name(3) == "v0"
        assert mgr.eval(holder.nodes[0], {0: True, 3: True})


class TestThresholds:
    def test_gc_due_tracks_growth_since_last_collect(self):
        mgr, vs = fresh()
        mgr.gc_threshold = 8
        while not mgr.gc_due():
            mgr.xor(vs[0], mgr.and_(vs[1], vs[2]))
            mgr.and_(vs[2], vs[3])
        assert mgr.maybe_collect() > 0
        assert not mgr.gc_due()

    def test_no_threshold_means_no_gc(self):
        mgr, vs = fresh()
        assert mgr.gc_threshold is None
        mgr.and_(vs[0], vs[1])
        assert not mgr.gc_due()
        assert mgr.maybe_collect() == 0
        assert mgr.cache_stats()["gc_runs"] == 0

    def test_sift_due_needs_dyn_reorder(self):
        mgr, vs = fresh()
        mgr.sift_threshold = 1
        assert not mgr.sift_due()
        mgr.dyn_reorder = True
        assert mgr.sift_due()
        assert mgr.maybe_sift() >= 0
        # after a sift the next one waits for reorder_growth
        assert not mgr.sift_due()

    @staticmethod
    def _churn(mgr, vs, rng, ops=8):
        """Build ``ops`` random functions nobody keeps (fresh garbage)."""
        made = []
        for _ in range(ops):
            f, g, h = (rng.choice(vs) for _ in range(3))
            made.append(mgr.ite(f, mgr.xor(g, h), mgr.and_(h, f)))
            vs = vs + made[-1:]
        return made

    def test_first_sift_counts_nodes_built_not_arena(self):
        # Collections keep the arena far below sift_threshold, so a
        # trigger on arena size would never fire with dyn_reorder on.
        mgr, vs = fresh(8)
        mgr.gc_threshold, mgr.dyn_reorder, mgr.sift_threshold = 40, True, 400
        rng = random.Random(3)
        holder = TestRootProviders.Holder(self._churn(mgr, vs, rng, 2))
        mgr.register_root_provider(holder)
        for _ in range(1000):
            if mgr.sift_due():
                break
            self._churn(mgr, vs, rng)
            if mgr.gc_due():
                mgr.collect()
            assert mgr.total_nodes < mgr.sift_threshold
        else:
            pytest.fail("never sifted")
        assert mgr.cache_stats()["gc_runs"] > 0
        assert mgr.nodes_built >= mgr.sift_threshold
        assert mgr.nodes_built - mgr.cache_stats()["gc_reclaimed"] \
            == mgr.total_nodes
        mgr.sift()
        assert not mgr.sift_due()

    def test_rearm_fires_on_live_growth_only(self):
        mgr, vs = fresh(8)
        mgr.dyn_reorder, mgr.sift_threshold = True, 20
        rng = random.Random(5)
        holder = TestRootProviders.Holder(self._churn(mgr, vs, rng, 4))
        mgr.register_root_provider(holder)
        mgr.sift()
        trigger = mgr._next_sift_at
        assert trigger == max(20, 2 * mgr.total_nodes)
        mgr.gc_threshold = 4 * trigger
        # garbage alone: the arena passes the trigger between
        # collections and nodes built grow without bound, yet no
        # collection leaves the trigger's worth of live nodes
        passed = False
        for _ in range(40):
            self._churn(mgr, vs, rng)
            passed = passed or mgr.total_nodes >= trigger
            if mgr.gc_due():
                mgr.collect()
            assert not mgr.sift_due()
        assert passed and mgr.cache_stats()["gc_runs"] > 0
        # live growth: due once a collection leaves >= trigger nodes
        while mgr._last_gc_size < trigger:
            holder.nodes += self._churn(mgr, vs, rng)
            assert not mgr.sift_due()
            mgr.collect()
        assert mgr.sift_due()

    def test_without_gc_the_arena_counts(self):
        mgr, vs = fresh(8)
        mgr.dyn_reorder, mgr.sift_threshold = True, 60
        rng = random.Random(9)
        holder = TestRootProviders.Holder(self._churn(mgr, vs, rng, 4))
        mgr.register_root_provider(holder)
        while not mgr.sift_due():
            assert mgr.nodes_built == mgr.total_nodes < 60
            self._churn(mgr, vs, rng, 1)
        mgr.sift()
        trigger = mgr._next_sift_at
        # nothing is reclaimed, so garbage re-arms it like live nodes
        while mgr.total_nodes < trigger:
            assert not mgr.sift_due()
            self._churn(mgr, vs, rng, 1)
        assert mgr.sift_due()


class TestInPlaceReorder:
    def test_truth_preserved_under_permutation(self):
        mgr, vs = fresh()
        f = mgr.ite(vs[0], mgr.xor(vs[1], vs[2]), vs[3])
        name_table = {}
        for mask in range(16):
            cube = {i: bool(mask >> i & 1) for i in range(4)}
            key = tuple(sorted((mgr.var_name(i), v) for i, v in cube.items()))
            name_table[key] = mgr.eval(f, cube)
        ref = mgr.ref(f)
        mgr.reorder([2, 0, 3, 1])
        level_of = {mgr.var_name(i): i for i in range(4)}
        for key, expected in name_table.items():
            cube = {level_of[name]: v for name, v in key}
            assert mgr.eval(ref.deref(), cube) == expected

    def test_reorder_compacts_dead_nodes_too(self):
        mgr, vs = fresh()
        ref = mgr.ref(mgr.and_(vs[0], vs[1]))
        for i in range(3):
            mgr.xor(vs[i], vs[i + 1])  # garbage
        mgr.reorder([3, 2, 1, 0])
        # live graph after reorder: the 4 var nodes + the AND chain
        assert mgr.total_nodes <= 4 + 2
        level_of = {mgr.var_name(i): i for i in range(4)}
        cube = {i: False for i in range(4)}
        cube[level_of["v0"]] = True
        cube[level_of["v1"]] = True
        assert mgr.eval(ref.deref(), cube) is True

    def test_bad_orders_rejected(self):
        mgr, vs = fresh()
        with pytest.raises(BddError):
            mgr.reorder([0, 1])
        with pytest.raises(BddError):
            mgr.reorder([0, 0, 1, 2])

    def test_counters_and_metrics_gauges(self):
        mgr, vs = fresh()
        registry = MetricsRegistry()
        mgr.attach_metrics(registry)
        mgr.ref(mgr.and_(vs[0], vs[3]))
        mgr.xor(vs[1], vs[2])
        mgr.collect()
        mgr.reorder([1, 0, 2, 3])
        snap = {m["name"]: m["value"]
                for m in registry.snapshot()["metrics"]}
        assert snap["bdd.gc.runs"] == 1
        assert snap["bdd.gc.reclaimed_nodes"] >= 1
        assert snap["bdd.reorder.runs"] == 1
        assert snap["bdd.gc.seconds"] >= 0.0
        assert snap["bdd.reorder.seconds"] >= 0.0


class TestQueryRegression:
    """sat_count / support / eval pinned across GC and reorder."""

    def test_queries_stable_across_churn(self):
        mgr, vs = fresh()
        f = mgr.or_(mgr.and_(vs[0], vs[1]), mgr.xor(vs[1], vs[3]))
        count = mgr.sat_count(f, 4)
        support_names = {mgr.var_name(lv) for lv in mgr.support(f)}
        assert support_names == {"v0", "v1", "v3"}
        evals = {}
        for mask in range(16):
            cube = {i: bool(mask >> i & 1) for i in range(4)}
            key = tuple(sorted(
                (mgr.var_name(i), v) for i, v in cube.items()))
            evals[key] = mgr.eval(f, cube)
        ref = mgr.ref(f)
        mgr.xor(vs[0], vs[2])  # garbage
        mgr.collect()
        mgr.reorder([3, 1, 0, 2])
        mgr.collect()
        node = ref.deref()
        assert mgr.sat_count(node, 4) == count
        assert {mgr.var_name(lv) for lv in mgr.support(node)} == \
            support_names
        level_of = {mgr.var_name(i): i for i in range(4)}
        for key, expected in evals.items():
            cube = {level_of[name]: v for name, v in key}
            assert mgr.eval(node, cube) == expected


def ripple_adder(mgr, a_vars, b_vars):
    """MSB-first carry chain — the classic bad-order showcase."""
    carry = FALSE
    outs = []
    for a, b in zip(a_vars, b_vars):
        outs.append(mgr.xor(mgr.xor(a, b), carry))
        carry = mgr.or_(
            mgr.and_(a, b), mgr.and_(carry, mgr.or_(a, b))
        )
    outs.append(carry)
    return outs


class TestSifting:
    def test_sift_finds_interleaved_adder_order(self):
        mgr = BddManager()
        n = 6
        a = [mgr.new_var(f"a{i}") for i in range(n)]
        b = [mgr.new_var(f"b{i}") for i in range(n)]
        refs = [mgr.ref(s) for s in ripple_adder(mgr, a, b)]
        mgr.collect()
        blocked = mgr.total_nodes
        saved = mgr.sift()
        assert saved > 0
        assert mgr.total_nodes < blocked / 2  # 377 -> 91 in practice
        assert mgr.cache_stats()["reorder_swaps"] > 0
        # sum bit 3 must still be a3 ^ b3 ^ carry3 under any order
        name_level = {mgr.var_name(i): i for i in range(mgr.var_count)}
        s3 = refs[3].deref()
        cube = {level: False for level in range(mgr.var_count)}
        cube[name_level["a3"]] = True
        assert mgr.eval(s3, cube) is True

    def test_sift_respects_max_growth_noop_on_optimal(self):
        mgr = BddManager()
        vs = [mgr.new_var(f"v{i}") for i in range(4)]
        ref = mgr.ref(mgr.and_all(vs))
        mgr.collect()
        before = mgr.total_nodes
        mgr.sift()
        assert mgr.total_nodes <= before
        assert truth_table(mgr, ref.deref(), 4)[0b1111] is True


class TestHandleOrder:
    """Handles are roots in creation order, so the node numbering that
    reorder/sift give does not depend on where the handles live."""

    @staticmethod
    def _build(shuffle_seed, step):
        mgr = BddManager()
        a = [mgr.new_var(f"a{i}") for i in range(4)]
        b = [mgr.new_var(f"b{i}") for i in range(4)]
        rng = random.Random(shuffle_seed)
        handles, spare = [], []
        for out in ripple_adder(mgr, a, b)[:-1] + [mgr.and_all(a)]:
            # free same-sized objects in a seeded order, so each handle
            # lands at an address that differs from build to build
            junk = [BddRef(None, i) for i in range(rng.randrange(8, 64))]
            rng.shuffle(junk)
            spare.append(junk[: len(junk) // 2])
            del junk
            handles.append(mgr.ref(out))
        step(mgr)
        return repr(mgr.image())

    @pytest.mark.parametrize("step", [
        lambda mgr: mgr.reorder(list(range(mgr.var_count))[::-1]),
        lambda mgr: mgr.sift(),
    ], ids=["reorder", "sift"])
    def test_same_build_gives_one_image(self, step):
        builds = {self._build(seed, step) for seed in range(6)}
        assert len(builds) == 1
