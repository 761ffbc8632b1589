"""The BDD node format stays inside ``repro.bdd``.

Only ``repro.bdd`` may read or write the node store: the arena's
fields, and the manager state its checkpoint image covers.  Everything
else goes through methods (``mgr.image()``/``mgr.restore()``,
``mgr.total_nodes``, ``arena.level_counts()``...), so replacing the
store means replacing one class: the native store
(``repro.bdd.native.NativeArena``) offers every method of the Python
one.  The word fast-path counters
(``_fp_*``) and the call memo (``_call_*``) are shared with the
operator layers on purpose and are not checked here.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: The fields of ``repro.bdd.arena.Arena``.
ARENA_FIELDS = frozenset({
    "level", "low", "high", "unique", "ite_cache", "not_cache",
    "and_cache", "or_cache", "xor_cache", "constrain_cache", "call_memo",
    "hits",
    "miss_base", "peak", "dropped",
})

#: Manager fields that hold (or held) the node store, its counters or
#: the state ``BddManager.image`` covers.
PRIVATE = frozenset({
    "_level", "_low", "_high", "_unique", "_ite_cache", "_not_cache",
    "_and_cache", "_or_cache", "_xor_cache", "_hits", "_ite_miss_base",
    "_not_miss_base", "_and_miss_base", "_or_miss_base", "_xor_miss_base",
    "_peak", "_dropped", "_var_names", "_var_bdds", "_concretized",
    "_last_gc_size", "_next_sift_at", "_mk", "_drop_op_caches",
    "_bind_kernels", "_ensure_recursion_limit",
})


def _reaches(tree):
    """(line, text) of every access to the node store from outside."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if node.attr in PRIVATE and not (
                isinstance(base, ast.Name) and base.id == "self"):
            yield node.lineno, ast.unparse(node)
        elif (node.attr in ARENA_FIELDS and isinstance(base, ast.Attribute)
              and base.attr == "arena"):
            yield node.lineno, ast.unparse(node)


def test_no_module_outside_bdd_reaches_the_node_store():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.parent.name == "bdd":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(f"{path.relative_to(SRC)}:{line}: {text}"
                     for line, text in _reaches(tree))
    assert not found, "\n".join(found)


def test_arena_fields_are_listed():
    from repro.bdd.arena import Arena

    assert set(Arena.__slots__) == ARENA_FIELDS


def test_both_stores_offer_one_interface():
    from repro.bdd.arena import Arena
    from repro.bdd.native import NativeArena

    def public(cls):
        return {name for name in dir(cls) if not name.startswith("_")}

    # fail(): only a native kernel reports a failure by its result
    assert public(Arena) - {"fail"} <= public(NativeArena) | ARENA_FIELDS
    assert public(NativeArena) - {"fail"} <= public(Arena)
    # the sift's swap space is the store's too
    assert "sift_order" in public(Arena) & public(NativeArena)


def test_the_check_sees_a_reach():
    tree = ast.parse("n = len(kern.mgr._level)\nm = mgr.arena.unique\n"
                     "self._concretized = []\n")
    assert sorted(line for line, _ in _reaches(tree)) == [1, 2]
