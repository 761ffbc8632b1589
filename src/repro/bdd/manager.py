"""Hash-consed reduced ordered binary decision diagrams.

Nodes are plain integers.  The two terminals are the constants
:data:`FALSE` (``0``) and :data:`TRUE` (``1``); internal nodes are ids
``>= 2`` into the node store, the :class:`~repro.bdd.arena.Arena` a
:class:`BddManager` holds.  Because the unique table enforces
structural sharing, two nodes represent the same Boolean function iff
their ids are equal — the property the simulator relies on to detect
dead execution paths (``control == FALSE``) in O(1).  The manager
keeps the policy: variables, roots, when to collect, sift or
concretize.

The manager deliberately avoids *reference counting*: symbolic
simulation creates and drops huge numbers of intermediate functions,
and per-operation count maintenance in pure Python costs more than it
saves at the scale this package targets.  Instead, memory is managed
at *safe points* with mark-and-sweep garbage collection
(:meth:`BddManager.collect`): holders of node ids register as *root
providers* (:meth:`register_root_provider`) or pin individual nodes
through the stable handle table (:meth:`ref`); a collection marks from
the registered roots, compacts the arena, rebuilds the unique table
and remaps every registered reference, so all held ids stay valid.

Variable order management comes in three flavours:

* :meth:`rebuild` — static reordering into a *fresh* manager (the
  original API, kept for standalone analyses);
* :meth:`reorder` — in-place reordering of *this* manager: live roots
  are re-expressed under the new order and every registered reference
  is remapped;
* :meth:`sift` — dynamic sifting (Rudell): the store moves each
  variable through the order with adjacent-level swaps on a scratch
  copy of the live graph, bounded by ``SIFT_MAX_SWAP``/
  ``SIFT_MAX_GROWTH`` the way CUDD bounds its reordering passes, and
  the best order found is then applied with :meth:`reorder`.

``clear_caches`` can still be called to drop just the operator caches
between simulation phases if memory pressure matters.

The operators run as the store's kernels (:meth:`Arena.kernels`).
There are two stores with one interface and one node format: the
native one (:class:`~repro.bdd.native.NativeArena`, C) whenever it can
be built and fast paths are on, else the Python :class:`Arena`.  The
manager picks one before its first non-terminal node and names it in
:attr:`BddManager.bdd_kernel`; both build the same nodes in the same
order.  Recursion depth is bounded by the variable count, and the
manager raises the interpreter's limit to fit as variables are
created.  No kernel refers to itself or to the manager, and root
providers are held weakly, so a dropped manager — and a dropped
simulation with it (the simulation kernel empties the constant-vector
cache, whose vectors point back here) — frees its arena through
reference counting at once.
"""

from __future__ import annotations

import sys
import time as _time
import weakref
from itertools import chain
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.bdd import native
from repro.bdd.arena import _AND, _ITE, _NOT, _OR, _XOR, Arena, FALSE, TRUE
from repro.errors import BddError

#: Interpreter frames reserved for the callers of a BDD operation on
#: top of the ``2 * var_count`` the kernels may use.
_RECURSION_MARGIN = 200

#: Dynamic sifting bounds (cf. CUDD's reordering limits): total swaps
#: per sift, intermediate growth per variable, variables per pass.
SIFT_MAX_SWAP = 1_000_000
SIFT_MAX_GROWTH = 1.2
SIFT_MAX_VARS = 1000



class BddRef:
    """A GC-stable reference to one node of a :class:`BddManager`.

    Raw node ids held outside the manager are invalidated by
    :meth:`BddManager.collect` and :meth:`BddManager.reorder` unless
    their holder participates in the root-provider protocol.  A
    ``BddRef`` (from :meth:`BddManager.ref`) is the lightweight
    alternative: the manager keeps a weak handle table and rewrites
    ``ref.node`` on every collection/reorder, so the reference both
    pins the node (it is a GC root) and stays valid across arena
    compactions.  Dropping the last strong reference to the handle
    un-pins the node automatically.
    """

    __slots__ = ("manager", "node", "__weakref__")

    def __init__(self, manager: "BddManager", node: int) -> None:
        self.manager = manager
        self.node = node

    def deref(self) -> int:
        """The current node id (valid until the next safe-point op)."""
        return self.node

    def __repr__(self) -> str:
        return f"BddRef({self.node})"


class BddManager:
    """Owner of a BDD node :class:`Arena` and the policy over it.

    All node ids returned by one manager are only meaningful to that
    manager.  Typical use::

        m = BddManager()
        a = m.new_var("a")
        b = m.new_var("b")
        f = m.and_(a, m.not_(b))
        assert m.eval(f, {0: True, 1: False})
    """

    def __init__(self) -> None:
        # The node store: arrays, unique and computed tables, counters.
        # A Python arena until the store is chosen (_choose_store).
        self.arena = Arena()
        self._kernel: Optional[str] = None
        # Interned constant FourVecs (terminal rails only, so entries
        # stay valid across GC and reordering).  Owned here because the
        # vector layer has no per-manager state of its own.  Each entry
        # points back at this manager; a simulation kernel empties the
        # cache when it is dropped, which breaks that cycle.
        self._const_vec_cache: Dict[Tuple[int, int, bool], object] = {}
        self._var_names: List[str] = []
        self._var_bdds: List[int] = []
        # --- word-level fast-path telemetry (repro.fourval.ops) -------
        # The four-valued operator layer dispatches to pure-integer
        # word-level implementations when operands are fully
        # concrete-known; it reports here so the concrete-hit ratio is
        # one place (the manager travels with every FourVec).
        self.fastpath = True          # SimOptions.no_fastpath clears it
        self._fp_word = 0             # whole operators done word-level
        self._fp_sym = 0              # operators on the per-bit BDD path
        # --- pure-function calls (repro.compile.funcs) ----------------
        # The memo is ``arena.call_memo``, aliased as ``_call_memo``.
        self._calls = 0               # user function calls, memo or not
        self._call_hits = 0           # TRUE-control calls the memo answered
        self._call_derived = 0        # narrower-control calls derived from it
        # --- memory management (safe-point operations) ----------------
        # Knobs are plain attributes so the kernel/CLI can configure a
        # manager after construction; ``None``/``False`` keep the
        # original append-only behaviour.
        self.gc_threshold: Optional[int] = None  # arena growth before GC
        self.dyn_reorder = False          # enable sifting at safe points
        self.reorder_growth = 2.0         # re-sift after this live growth
        self.sift_threshold = 4096        # nodes built before the first sift
        self.sift_converge = False        # repeat passes until no gain
        # Weak, keyed by a creation serial: roots are visited in the
        # order the handles were made, so reorder/rebuild number their
        # nodes the same way on every run.
        self._handles: "weakref.WeakValueDictionary[int, BddRef]" = (
            weakref.WeakValueDictionary())
        self._handle_serial = 0
        # Weak, in registration order: a provider (the kernel) holds
        # its manager, so a strong list here would be a cycle that
        # keeps a finished simulation's arena alive until the cyclic
        # collector runs.
        self._root_providers: List["weakref.ref"] = []
        self._last_gc_size = 0            # arena size after the last GC
        # Sift trigger state (see sift_due): None until the first sift,
        # then the live count that re-arms it.
        self._next_sift_at: Optional[int] = None
        self._gc_runs = 0
        self._gc_reclaimed = 0
        self._gc_seconds = 0.0
        self._reorder_runs = 0
        self._reorder_swaps = 0
        self._reorder_seconds = 0.0
        self._reorder_saved = 0
        # Variables forced to a constant by the resource guard
        # (level -> chosen value); keys follow the order on reorder().
        self._concretized: Dict[int, bool] = {}
        self._concretize_runs = 0
        self._concretize_seconds = 0.0
        # No kernel runs before the first non-terminal node (every
        # operator answers terminal operands itself), so _start_store
        # binds them; the call memo is in use from the start.
        self._call_memo = self.arena.call_memo

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------

    @property
    def var_count(self) -> int:
        """Number of variables created so far."""
        return len(self._var_names)

    def new_var(self, name: Optional[str] = None) -> int:
        """Create a fresh variable at the bottom of the order.

        Returns the BDD of the variable itself.  ``name`` is only used
        for diagnostics (:meth:`var_name`, :meth:`to_expr`).
        """
        if self._kernel is None:
            self._choose_store()
        level = len(self._var_names)
        self._var_names.append(name if name is not None else f"v{level}")
        self._ensure_recursion_limit()
        node = self.arena.mk(level, FALSE, TRUE)
        self._var_bdds.append(node)
        return node

    def var(self, level: int) -> int:
        """Return the BDD for the existing variable at ``level``."""
        try:
            return self._var_bdds[level]
        except IndexError:
            raise BddError(f"unknown variable level {level}") from None

    def var_name(self, level: int) -> str:
        """Return the diagnostic name of the variable at ``level``."""
        try:
            return self._var_names[level]
        except IndexError:
            raise BddError(f"unknown variable level {level}") from None

    def level_of(self, node: int) -> int:
        """Return the level (order position) of ``node``'s top variable."""
        return self.arena.node(node)[0]

    def cofactors(self, node: int, level: int) -> Tuple[int, int]:
        """Return the (low, high) cofactors of ``node`` w.r.t. ``level``.

        ``level`` must not be below ``node``'s top level.
        """
        node_level, low, high = self.arena.node(node)
        if node_level == level:
            return low, high
        return node, node

    # ------------------------------------------------------------------
    # the node store
    # ------------------------------------------------------------------

    @property
    def bdd_kernel(self) -> str:
        """The store this manager runs: ``"native"`` or ``"python
        (<reason>)"``."""
        return self._kernel or "python (no BDD variables)"

    def _choose_store(self) -> None:
        """Pick the store, once, before the first non-terminal node:
        the native one unless fast paths are off or it cannot run."""
        if not self.fastpath:
            self._start_store("python (--no-fastpath)")
        else:
            reason = native.unavailable()
            self._start_store("native" if reason is None
                              else f"python ({reason})")

    def _start_store(self, kernel: str) -> None:
        """Replace the (still empty) arena with an empty ``kernel`` store
        and bind its kernels."""
        self._kernel = kernel
        if kernel == "native":
            # only terminal rails so far: the call memo stays valid
            memo = self.arena.call_memo
            self.arena = native.NativeArena()
            self.arena.call_memo = memo
        self._bind_kernels()

    # ------------------------------------------------------------------
    # core operators
    # ------------------------------------------------------------------

    def _bind_kernels(self) -> None:
        """Bind the kernels (and alias the call memo) to the arena's
        current tables; whatever replaces the arena or a table calls
        this.  The hot path then reads one attribute per operation.  A
        native kernel returns a negative id on failure, which the
        operators turn into the arena's one-line error."""
        arena = self.arena
        (self._ite_k, self._not_k, self._and_k, self._or_k,
         self._xor_k, self._constrain_k) = arena.kernels()
        self._call_memo = arena.call_memo

    def _ensure_recursion_limit(self) -> None:
        """Raise the interpreter recursion limit to fit this manager.

        Each kernel frame sits at least one variable level below its
        caller (bar a few hand-offs between kernels), and the recursive
        helpers (``compose``, ``restrict``, ``rebuild``) start at most
        one kernel chain per level they descend, so ``2 * var_count``
        frames plus a margin for the caller's own stack always fit.
        The limit is only ever raised, and only by a manager that
        needs it — never at import.
        """
        need = 2 * len(self._var_names) + _RECURSION_MARGIN
        if sys.getrecursionlimit() < need:
            sys.setrecursionlimit(need)

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f·g + ¬f·h`` — the universal BDD operator.

        Recursive kernel with commutative-triple canonicalization:
        conjunction-shaped triples ``ite(f, g, 0)`` and
        disjunction-shaped triples ``ite(f, 1, h)`` are routed to the
        dedicated :meth:`and_` / :meth:`or_` kernels, whose
        operand-sorted two-key caches recognize
        ``ite(f, g, 0) == ite(g, f, 0)`` as one entry.
        """
        if f <= TRUE:
            return g if f == TRUE else h
        result = self._ite_k(f, g, h)
        if result < 0:
            self.arena.fail()
        return result

    # On two terminal operands (concrete bits, the common case outside
    # symbolic regions) the result is the bitwise operator on the ids,
    # answered here without entering a kernel.

    def not_(self, f: int) -> int:
        """Boolean complement (cached in both directions)."""
        if f <= TRUE:
            return f ^ 1
        result = self._not_k(f)
        if result < 0:
            self.arena.fail()
        return result

    def and_(self, f: int, g: int) -> int:
        """Conjunction — dedicated apply (operands sorted, own cache)."""
        if f <= TRUE and g <= TRUE:
            return f & g
        result = self._and_k(f, g)
        if result < 0:
            self.arena.fail()
        return result

    def or_(self, f: int, g: int) -> int:
        """Disjunction — dedicated apply (operands sorted, own cache)."""
        if f <= TRUE and g <= TRUE:
            return f | g
        result = self._or_k(f, g)
        if result < 0:
            self.arena.fail()
        return result

    def xor(self, f: int, g: int) -> int:
        """Exclusive or — dedicated apply (operands sorted, own cache)."""
        if f <= TRUE and g <= TRUE:
            return f ^ g
        result = self._xor_k(f, g)
        if result < 0:
            self.arena.fail()
        return result

    def constrain(self, f: int, c: int) -> int:
        """Generalized cofactor ``f↓c`` (Coudert–Madre; ``Cudd_bddConstrain``).

        The result agrees with ``f`` wherever ``c`` holds and is free
        outside it, which usually makes it smaller: where one cofactor
        of ``c`` is empty the variable is dropped and the other branch
        taken.  ``c == FALSE`` gives ``FALSE``; ``f == c`` gives
        ``TRUE``.  Its memo is a table of the store's, kept to the next
        safe point, so callers that constrain several functions by the
        same ``c`` share it.  No computed table is touched, so the cache
        counters do not move.
        """
        if c == TRUE or f <= TRUE:
            return f
        result = self._constrain_k(f, c)
        if result < 0:
            self.arena.fail()
        return result

    def xnor(self, f: int, g: int) -> int:
        """Equivalence (complement of the shared xor cache entry)."""
        return self.not_(self.xor(f, g))

    def nand(self, f: int, g: int) -> int:
        """Negated conjunction."""
        return self.not_(self.and_(f, g))

    def nor(self, f: int, g: int) -> int:
        """Negated disjunction."""
        return self.not_(self.or_(f, g))

    def implies(self, f: int, g: int) -> int:
        """Implication ``f → g``."""
        return self.ite(f, g, TRUE)

    def and_all(self, nodes: Iterable[int]) -> int:
        """Conjunction of an iterable of functions (TRUE when empty).

        Reduces as a balanced tree rather than a linear fold: wide
        reductions combine neighbours pairwise, which keeps intermediate
        BDDs small and lets repeated subtrees hit the apply cache.
        Absorbing elements (FALSE) still exit early.
        """
        items: List[int] = []
        for node in nodes:
            if node == FALSE:
                return FALSE
            if node != TRUE:
                items.append(node)
        if not items:
            return TRUE
        while len(items) > 1:
            paired: List[int] = []
            for i in range(0, len(items) - 1, 2):
                result = self.and_(items[i], items[i + 1])
                if result == FALSE:
                    return FALSE
                paired.append(result)
            if len(items) & 1:
                paired.append(items[-1])
            items = paired
        return items[0]

    def or_all(self, nodes: Iterable[int]) -> int:
        """Disjunction of an iterable of functions (FALSE when empty).

        Balanced-tree reduction; see :meth:`and_all`.
        """
        items: List[int] = []
        for node in nodes:
            if node == TRUE:
                return TRUE
            if node != FALSE:
                items.append(node)
        if not items:
            return FALSE
        while len(items) > 1:
            paired: List[int] = []
            for i in range(0, len(items) - 1, 2):
                result = self.or_(items[i], items[i + 1])
                if result == TRUE:
                    return TRUE
                paired.append(result)
            if len(items) & 1:
                paired.append(items[-1])
            items = paired
        return items[0]

    # ------------------------------------------------------------------
    # restriction / composition / quantification
    # ------------------------------------------------------------------

    def restrict(self, f: int, level: int, value: bool) -> int:
        """Cofactor ``f`` with the variable at ``level`` fixed to ``value``."""
        return self._restrict(f, level, bool(value), {})

    def _restrict(
        self, f: int, level: int, value: bool, memo: Dict[int, int]
    ) -> int:
        node_level, low, high = self.arena.node(f)
        if node_level > level:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        if node_level == level:
            result = high if value else low
        else:
            low = self._restrict(low, level, value, memo)
            high = self._restrict(high, level, value, memo)
            result = self.arena.mk(node_level, low, high)
        memo[f] = result
        return result

    def restrict_many(self, f: int, assignment: Dict[int, bool]) -> int:
        """Cofactor ``f`` under a partial assignment ``{level: value}``."""
        if not assignment:
            return f
        return self._restrict_many(f, assignment, {})

    def _restrict_many(
        self, f: int, assignment: Dict[int, bool], memo: Dict[int, int]
    ) -> int:
        if f <= TRUE:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        level, low, high = self.arena.node(f)
        value = assignment.get(level)
        if value is None:
            low = self._restrict_many(low, assignment, memo)
            high = self._restrict_many(high, assignment, memo)
            result = self.arena.mk(level, low, high)
        elif value:
            result = self._restrict_many(high, assignment, memo)
        else:
            result = self._restrict_many(low, assignment, memo)
        memo[f] = result
        return result

    def compose(self, f: int, level: int, g: int) -> int:
        """Substitute the function ``g`` for the variable at ``level`` in ``f``."""
        return self._compose(f, level, g, {})

    def _compose(self, f: int, level: int, g: int, memo: Dict[int, int]) -> int:
        node_level, low, high = self.arena.node(f)
        if node_level > level:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        if node_level == level:
            result = self.ite(g, high, low)
        else:
            low = self._compose(low, level, g, memo)
            high = self._compose(high, level, g, memo)
            result = self.ite(self.var(node_level), high, low)
        memo[f] = result
        return result

    def exists(self, f: int, levels: Iterable[int]) -> int:
        """Existentially quantify the variables at ``levels`` out of ``f``."""
        level_set = frozenset(levels)
        if not level_set:
            return f
        return self._exists(f, level_set, {})

    def _exists(self, f: int, levels: frozenset, memo: Dict[int, int]) -> int:
        if f <= TRUE:
            return f
        cached = memo.get(f)
        if cached is not None:
            return cached
        level, low, high = self.arena.node(f)
        low = self._exists(low, levels, memo)
        high = self._exists(high, levels, memo)
        if level in levels:
            result = self.or_(low, high)
        else:
            result = self.arena.mk(level, low, high)
        memo[f] = result
        return result

    def forall(self, f: int, levels: Iterable[int]) -> int:
        """Universally quantify the variables at ``levels`` out of ``f``."""
        return self.not_(self.exists(self.not_(f), levels))

    # ------------------------------------------------------------------
    # evaluation / satisfiability
    # ------------------------------------------------------------------

    def eval(self, f: int, assignment: Dict[int, bool]) -> bool:
        """Evaluate ``f`` under a total assignment ``{level: value}``.

        Variables missing from ``assignment`` default to ``False`` — the
        convention used when completing an error-trace witness (don't
        care bits are reported as zero, like the paper's resimulation).
        """
        node = self.arena.node
        while f > TRUE:
            level, low, high = node(f)
            f = high if assignment.get(level, False) else low
        return f == TRUE

    def sat_one(self, f: int) -> Optional[Dict[int, bool]]:
        """Return one satisfying (partial) assignment, or ``None``.

        Only the variables on the chosen path appear in the result;
        absent variables are don't-cares.
        """
        if f == FALSE:
            return None
        node = self.arena.node
        cube: Dict[int, bool] = {}
        while f > TRUE:
            level, low, high = node(f)
            cube[level] = high != FALSE
            f = high if high != FALSE else low
        return cube

    def sat_count(self, f: int, nvars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables.

        ``nvars`` defaults to the total number of manager variables.
        """
        if nvars is None:
            nvars = self.var_count
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << nvars
        memo: Dict[int, int] = {}
        node_of = self.arena.node

        def eff_level(node: int) -> int:
            return nvars if node <= TRUE else node_of(node)[0]

        def count(node: int) -> int:
            # Satisfying assignments over the variables in
            # [level(node), nvars); terminals sit at level nvars.
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            cached = memo.get(node)
            if cached is None:
                level, low, high = node_of(node)
                cached = count(low) * (1 << (eff_level(low) - level - 1)) + count(
                    high
                ) * (1 << (eff_level(high) - level - 1))
                memo[node] = cached
            return cached

        # Variables ordered above the root are free choices.
        return count(f) * (1 << node_of(f)[0])

    def all_sat(self, f: int, levels: Optional[Sequence[int]] = None) -> Iterator[Dict[int, bool]]:
        """Yield every satisfying assignment of ``f``.

        When ``levels`` is given, each yielded assignment is total over
        exactly those levels (don't-cares expanded); otherwise partial
        path assignments are yielded.
        """
        if f == FALSE:
            return
        if levels is None:
            yield from self._all_paths(f, {})
            return
        level_list = list(levels)

        def expand(index: int, cube: Dict[int, bool]) -> Iterator[Dict[int, bool]]:
            if index == len(level_list):
                yield dict(cube)
                return
            level = level_list[index]
            if level in cube:
                yield from expand(index + 1, cube)
                return
            for value in (False, True):
                cube[level] = value
                yield from expand(index + 1, cube)
                del cube[level]

        for path in self._all_paths(f, {}):
            yield from expand(0, path)

    def _all_paths(self, f: int, cube: Dict[int, bool]) -> Iterator[Dict[int, bool]]:
        if f == FALSE:
            return
        if f == TRUE:
            yield dict(cube)
            return
        level, low, high = self.arena.node(f)
        cube[level] = False
        yield from self._all_paths(low, cube)
        cube[level] = True
        yield from self._all_paths(high, cube)
        del cube[level]

    def support(self, f: int) -> Set[int]:
        """Set of variable levels ``f`` depends on."""
        seen: Set[int] = set()
        support: Set[int] = set()
        node_of = self.arena.node
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            level, low, high = node_of(node)
            support.add(level)
            stack.append(low)
            stack.append(high)
        return support

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def node_count(self, f: int) -> int:
        """Number of internal nodes in ``f`` (terminals excluded)."""
        seen: Set[int] = set()
        node_of = self.arena.node
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            _, low, high = node_of(node)
            stack.append(low)
            stack.append(high)
        return len(seen)

    @property
    def total_nodes(self) -> int:
        """Nodes currently in the arena (a growth metric).

        Between collections this grows append-only; :meth:`collect`
        compacts it back down to the live count.
        """
        return self.arena.size()

    @property
    def peak_nodes(self) -> int:
        """High-water mark of the arena across collections."""
        return max(self.arena.peak, self.arena.size())

    @property
    def apply_cache_hits(self) -> int:
        """Hits across the specialized and/or/xor apply caches."""
        return sum(self.arena.hits[_AND:])

    @property
    def apply_cache_misses(self) -> int:
        """Misses across the specialized and/or/xor apply caches."""
        return sum(self.arena.misses()[_AND:])

    @property
    def fastpath_word_ops(self) -> int:
        """Operators the word-level (fully concrete) fast path handled."""
        return self._fp_word

    @property
    def fastpath_symbolic_ops(self) -> int:
        """Operators that fell through to the per-bit BDD path."""
        return self._fp_sym

    def cache_stats(self) -> Dict[str, float]:
        """Cache/arena counters as a flat dict (repro.obs schema).

        Hit rates are fractions in [0, 1]; ``nodes``/``peak_nodes``
        count internal nodes (terminals excluded).
        """
        hits = self.arena.hits
        misses = self.arena.misses()
        ite_hits, ite_misses = hits[_ITE], misses[_ITE]
        not_hits, not_misses = hits[_NOT], misses[_NOT]
        apply_hits, apply_misses = sum(hits[_AND:]), sum(misses[_AND:])
        ite_total = ite_hits + ite_misses
        not_total = not_hits + not_misses
        apply_total = apply_hits + apply_misses
        fp_total = self._fp_word + self._fp_sym
        return {
            "ite_hits": ite_hits,
            "ite_misses": ite_misses,
            "ite_hit_rate": ite_hits / ite_total if ite_total else 0.0,
            "not_hits": not_hits,
            "not_misses": not_misses,
            "not_hit_rate": not_hits / not_total if not_total else 0.0,
            "apply_hits": apply_hits,
            "apply_misses": apply_misses,
            "apply_hit_rate": apply_hits / apply_total if apply_total else 0.0,
            "fastpath_word_ops": self._fp_word,
            "fastpath_symbolic_ops": self._fp_sym,
            "fastpath_word_ratio": self._fp_word / fp_total if fp_total
            else 0.0,
            "function_calls": self._calls,
            "call_memo_hits": self._call_hits,
            "call_memo_derived": self._call_derived,
            "nodes": self.total_nodes,
            "peak_nodes": self.peak_nodes,
            "var_count": self.var_count,
            "gc_runs": self._gc_runs,
            "gc_reclaimed": self._gc_reclaimed,
            "gc_seconds": self._gc_seconds,
            "reorder_runs": self._reorder_runs,
            "reorder_swaps": self._reorder_swaps,
            "reorder_seconds": self._reorder_seconds,
            "reorder_saved": self._reorder_saved,
            "concretize_runs": self._concretize_runs,
            "concretize_seconds": self._concretize_seconds,
        }

    def attach_metrics(self, registry) -> None:
        """Register live gauges on a :class:`repro.obs.MetricsRegistry`.

        Gauges are callback-backed: they read the manager at snapshot
        time, so attaching costs nothing on the operator hot paths.
        """
        pairs = [
            ("bdd.nodes", "internal nodes in the arena",
             lambda: self.total_nodes),
            ("bdd.peak_nodes", "arena high-water mark across GCs",
             lambda: self.peak_nodes),
            ("bdd.vars", "BDD variables created",
             lambda: self.var_count),
            ("bdd.apply.hits", "and/or/xor apply-cache hits",
             lambda: self.apply_cache_hits),
            ("bdd.apply.misses", "and/or/xor apply-cache misses",
             lambda: self.apply_cache_misses),
            ("bdd.gc.runs", "mark-and-sweep collections",
             lambda: self._gc_runs),
            ("bdd.gc.reclaimed_nodes", "dead nodes reclaimed by GC",
             lambda: self._gc_reclaimed),
            ("bdd.gc.live_nodes", "live nodes after the last GC",
             lambda: self._last_gc_size),
            ("bdd.gc.seconds", "wall time spent collecting",
             lambda: self._gc_seconds),
            ("bdd.reorder.runs", "in-place reorders applied",
             lambda: self._reorder_runs),
            ("bdd.reorder.swaps", "adjacent-level swaps while sifting",
             lambda: self._reorder_swaps),
            ("bdd.reorder.seconds", "wall time spent reordering",
             lambda: self._reorder_seconds),
            ("bdd.reorder.nodes_saved", "live-node reduction from sifting",
             lambda: self._reorder_saved),
        ]
        for slot, name, table in (
                (_ITE, "ite_cache", "ite computed-table"),
                (_NOT, "not_cache", "not cache"),
                (_AND, "apply.and", "and apply-cache"),
                (_OR, "apply.or", "or apply-cache"),
                (_XOR, "apply.xor", "xor apply-cache")):
            pairs.append((f"bdd.{name}.hits", f"{table} hits",
                          lambda slot=slot: self.arena.hits[slot]))
            pairs.append((f"bdd.{name}.misses", f"{table} misses",
                          lambda slot=slot: self.arena.misses()[slot]))
        for name, help_, fn in pairs:
            registry.gauge(name, help_).set_function(fn)

    def instrument_latency(self, registry, sample_every: int = 64) -> None:
        """Record per-operation latency histograms (opt-in, sampled).

        Wraps :meth:`ite`, :meth:`not_` and the specialized apply
        operators (:meth:`and_`/:meth:`or_`/:meth:`xor`) on *this
        instance* so every ``sample_every``-th top-level call is timed
        into ``bdd.op_seconds{op=...}``.  Work an operator delegates
        (e.g. the ``and_`` an ``ite`` hands a conjunction-shaped
        triple to) runs inside the kernels, never through a wrapper,
        and a wrapper entered from another passes through untimed (a
        shared depth counter), so a sample measures one whole operator
        application.  Only instrumented
        managers pay the wrapper cost; plain managers are untouched.
        The wrappers live on the instance and reach it through a weak
        reference, so they form no cycle that would keep a dropped
        manager's arena alive.
        """
        hist = registry.histogram(
            "bdd.op_seconds", "top-level BDD operator latency",
            labels=("op",),
        )
        state = {"depth": 0, "n": 0}
        manager = weakref.ref(self)

        def timed(method, op_hist):
            def wrapper(*args: int) -> int:
                if state["depth"]:
                    return method(manager(), *args)
                state["n"] += 1
                if state["n"] % sample_every:
                    state["depth"] = 1
                    try:
                        return method(manager(), *args)
                    finally:
                        state["depth"] = 0
                started = _time.perf_counter()
                state["depth"] = 1
                try:
                    return method(manager(), *args)
                finally:
                    state["depth"] = 0
                    op_hist.observe(_time.perf_counter() - started)
            return wrapper

        for name, attr in (("ite", "ite"), ("not", "not_"),
                           ("and", "and_"), ("or", "or_"), ("xor", "xor")):
            setattr(self, attr,
                    timed(getattr(BddManager, attr), hist.labels(op=name)))

    def clear_caches(self) -> None:
        """Drop the operator caches and the call memo (nodes are kept)."""
        self.arena.drop_caches()
        self._bind_kernels()

    def to_expr(self, f: int) -> str:
        """Render ``f`` as a nested ``ite(...)`` string for debugging."""
        if f == FALSE:
            return "0"
        if f == TRUE:
            return "1"
        level, low, high = self.arena.node(f)
        name = self._var_names[level]
        low = self.to_expr(low)
        high = self.to_expr(high)
        if low == "0" and high == "1":
            return name
        if low == "1" and high == "0":
            return f"!{name}"
        return f"ite({name}, {high}, {low})"

    def rebuild(
        self, order: Sequence[int], roots: Iterable[int]
    ) -> Tuple["BddManager", Dict[int, int]]:
        """Re-express ``roots`` in a fresh manager with a new variable order.

        ``order`` lists existing levels in their new order (a
        permutation of ``range(var_count)``).  Returns the new manager
        and a map from each requested old root to its translated node.

        This is *static* reordering: the paper's experiments ran with
        dynamic reordering disabled, but order still matters enormously
        (see ``benchmarks/bench_ordering.py`` for the classic adder
        example), and callers that know their structure — e.g.
        interleaving operand bits — can use this between phases.
        """
        roots = set(roots)
        new, memo = self._translated(list(order), roots)
        return new, {root: memo[root] for root in roots}

    def _translated(self, order: List[int], roots: Iterable[int]
                    ) -> Tuple["BddManager", Dict[int, int]]:
        """Translate ``roots`` into a fresh manager ordered by ``order``;
        returns it and the memo of every node translated.  One ``ite``
        per node, low child's graph first (the recursive post-order, on
        an explicit stack), so the new ids depend on the roots alone."""
        if sorted(order) != list(range(self.var_count)):
            raise BddError(
                f"order must be a permutation of range({self.var_count})"
            )
        new = BddManager()
        new._start_store(self.bdd_kernel)
        var_bdd = [0] * self.var_count
        for old_level in order:
            var_bdd[old_level] = new.new_var(self._var_names[old_level])
        levels, lows, highs = self.arena.export()
        memo: Dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
        stack: List[int] = []
        for root in roots:
            if root in memo:
                continue
            stack.append(root)
            while stack:
                node = stack[-1]
                if node in memo:
                    stack.pop()
                    continue
                low, high = lows[node], highs[node]
                done = True
                if high not in memo:
                    stack.append(high)
                    done = False
                if low not in memo:
                    stack.append(low)
                    done = False
                if done:
                    memo[node] = new.ite(
                        var_bdd[levels[node]], memo[high], memo[low]
                    )
                    stack.pop()
        return new, memo

    # ------------------------------------------------------------------
    # garbage collection / in-place reordering (safe-point operations)
    # ------------------------------------------------------------------
    #
    # Node ids are arena indices, so compaction and in-place reordering
    # renumber them.  Both operations are therefore only legal at *safe
    # points* — when no raw ids live in Python locals of an in-flight
    # operator (the kernel calls them between time steps).  Everything
    # that holds ids across a safe point must be reachable through the
    # handle table (:meth:`ref`) or a registered root provider.

    def ref(self, node: int) -> BddRef:
        """Pin ``node`` with a GC-stable handle (see :class:`BddRef`)."""
        handle = BddRef(self, node)
        self._handle_serial += 1
        self._handles[self._handle_serial] = handle
        return handle

    def register_root_provider(self, provider) -> None:
        """Register an object enumerating live roots for GC/reordering.

        ``provider`` must implement ``bdd_roots() -> Iterable[int]``
        (every node id it holds) and ``bdd_remap(lookup, level_map)``
        where ``lookup`` is a callable taking each previously-yielded
        old id to its new id and ``level_map`` — ``None`` for a pure
        collection — maps old variable levels to their new order
        positions (for state keyed by level, e.g. witness cubes).

        The manager holds ``provider`` weakly: a provider that is
        dropped stops contributing roots, and one that holds the
        manager (the simulation kernel) forms no reference cycle.
        """
        self._root_providers.append(weakref.ref(provider))

    def unregister_root_provider(self, provider) -> None:
        """Remove a previously registered root provider."""
        self._root_providers.remove(weakref.ref(provider))

    def _providers(self) -> List[object]:
        """The live root providers, in registration order."""
        live = []
        for ref in self._root_providers:
            provider = ref()
            if provider is not None:
                live.append(provider)
        return live

    def _iter_roots(self) -> Iterator[int]:
        """Every externally live node: variables, handles, providers."""
        yield from self._var_bdds
        for handle in list(self._handles.values()):
            yield handle.node
        for provider in self._providers():
            yield from provider.bdd_roots()

    def collect(self) -> int:
        """Mark-and-sweep: compact the arena down to the live nodes.

        Marks from the registered roots, slides the survivors down
        (children always precede parents in the arena, so one ascending
        pass suffices), rebuilds the unique table, drops the operator
        caches and remaps every handle and root provider.  Returns the
        number of nodes reclaimed.
        """
        started = _time.perf_counter()
        arena = self.arena
        size = arena.size()
        handles = list(self._handles.values())
        # Compaction rebuilds the unique table and drops the computed
        # tables (they are keyed by old ids), so the kernels rebind.
        node_map = arena.compact(arena.mark(self._iter_roots()))
        self._bind_kernels()
        self._var_bdds = [node_map[node] for node in self._var_bdds]
        for handle in handles:
            handle.node = node_map[handle.node]
        lookup = node_map.__getitem__
        for provider in self._providers():
            provider.bdd_remap(lookup, None)
        reclaimed = size - arena.size()
        self._last_gc_size = arena.size()
        self._gc_runs += 1
        self._gc_reclaimed += reclaimed
        self._gc_seconds += _time.perf_counter() - started
        return reclaimed

    def gc_due(self) -> bool:
        """True when the arena grew ``gc_threshold`` nodes since last GC."""
        threshold = self.gc_threshold
        return (threshold is not None
                and self.arena.size() - self._last_gc_size >= threshold)

    def maybe_collect(self) -> int:
        """Collect iff :meth:`gc_due`; a no-op with the default config.

        The kernel calls this at every safe point.
        """
        if not self.gc_due():
            return 0
        return self.collect()

    def reorder(self, order: Sequence[int]) -> None:
        """Re-express the live graph of *this* manager under a new order.

        ``order`` lists existing levels in their new order (a
        permutation of ``range(var_count)``), exactly like
        :meth:`rebuild` — but instead of returning a fresh manager, the
        rebuilt arena replaces this manager's own, dead nodes are
        dropped as a side effect, and every handle and root provider is
        remapped (``level_map`` tells providers where each old level
        went, for anything keyed by variable level).  Node ids held
        outside the root protocol are invalidated.
        """
        started = _time.perf_counter()
        order = list(order)
        handles = list(self._handles.values())
        roots = list(self._iter_roots())
        scratch, memo = self._translated(order, roots)
        level_map = [0] * self.var_count
        for pos, old_level in enumerate(order):
            level_map[old_level] = pos
        # Translation leaves superseded intermediate results, and an
        # internal old node's translation need not lie under any root's:
        # compact the scratch arena down to the variables and the roots,
        # then adopt it whole with this manager's counters.
        arena = scratch.arena
        var_bdds = scratch._var_bdds
        node_map = arena.compact(arena.mark(
            chain(var_bdds, (memo[root] for root in roots))))
        arena.inherit(self.arena)
        self.arena = arena
        self._bind_kernels()
        self._var_names = [self._var_names[old] for old in order]
        self._var_bdds = [node_map[node] for node in var_bdds]
        root_map = {root: node_map[memo[root]] for root in roots}
        for handle in handles:
            handle.node = root_map[handle.node]
        lookup = root_map.__getitem__
        for provider in self._providers():
            provider.bdd_remap(lookup, level_map)
        self._concretized = {
            level_map[level]: chosen
            for level, chosen in self._concretized.items()
        }
        self._last_gc_size = arena.size()
        self._reorder_runs += 1
        self._reorder_seconds += _time.perf_counter() - started

    def sift(self) -> int:
        """One round of dynamic sifting (Rudell); returns nodes saved.

        Collects first (sifting cost scales with live size), then has
        the store (:meth:`Arena.sift_order`, in C on the native one)
        move each variable through the order with adjacent-level swaps
        on a scratch copy of the live graph — bounded by ``SIFT_MAX_SWAP``
        total swaps, ``SIFT_MAX_GROWTH`` intermediate growth per
        variable and ``SIFT_MAX_VARS`` candidates per pass, with
        ``sift_converge`` repeating passes while they improve, the same
        shape as CUDD's ``CUDD_REORDER_SIFT``/``_CONVERGE`` — and
        finally applies the best order found with :meth:`reorder`.
        """
        started = _time.perf_counter()
        self.collect()
        before = self.arena.size()
        saved = 0
        if self.var_count >= 2 and before > 0:
            order, swaps = self.arena.sift_order(
                self._iter_roots(), self.var_count, self.sift_converge,
                SIFT_MAX_SWAP, SIFT_MAX_GROWTH, SIFT_MAX_VARS)
            self._reorder_swaps += swaps
            self._reorder_seconds += _time.perf_counter() - started
            if order != list(range(self.var_count)):
                self.reorder(order)  # adds its own time share
            saved = before - self.arena.size()
            if saved > 0:
                self._reorder_saved += saved
        else:
            self._reorder_seconds += _time.perf_counter() - started
        live = self.arena.size()
        self._next_sift_at = max(self.sift_threshold,
                                 int(live * self.reorder_growth))
        return saved

    @property
    def nodes_built(self) -> int:
        """Nodes this manager has built: the arena plus every node a
        collection or reorder has dropped.  No collection lowers it."""
        return self.arena.dropped + self.arena.size()

    def sift_due(self) -> bool:
        """True when dynamic sifting is armed and its trigger is met.

        Before the first sift the trigger is ``sift_threshold`` nodes
        *built*, so how often GC runs cannot move it.  After a sift it
        re-arms on live growth, CUDD-style: due once a collection
        leaves ``max(sift_threshold, reorder_growth × live after the
        last sift)`` live nodes.  With ``gc_threshold=None`` nothing is
        reclaimed and the arena is the live count.  Safe-point callers
        check this before their own GC (a sift collects first) and,
        when it is false, again after it.
        """
        if not self.dyn_reorder:
            return False
        trigger = self._next_sift_at
        if trigger is None:
            return self.nodes_built >= self.sift_threshold
        if self.gc_threshold is None:
            return self.arena.size() >= trigger
        return self._last_gc_size >= trigger

    def maybe_sift(self) -> int:
        """Sift iff :meth:`sift_due`."""
        if not self.sift_due():
            return 0
        return self.sift()

    # ------------------------------------------------------------------
    # concretization (graceful degradation under memory pressure)
    # ------------------------------------------------------------------

    @property
    def concretized(self) -> Dict[int, bool]:
        """Levels the guard has forced to a constant (level -> value)."""
        return dict(self._concretized)

    def _restricted_size(
        self, roots: Sequence[int], level: int, value: bool
    ) -> int:
        """Live node count if every root were cofactored at ``level``.

        Builds the restricted functions in the arena (the junk is
        reclaimed by the ``collect`` that follows a concretization) and
        counts the unique internal nodes reachable from them.
        """
        memo: Dict[int, int] = {}
        seen: Set[int] = set()
        stack: List[int] = []
        for root in roots:
            restricted = self._restrict(root, level, value, memo)
            if restricted > TRUE and restricted not in seen:
                seen.add(restricted)
                stack.append(restricted)
        node_of = self.arena.node
        while stack:
            node = stack.pop()
            for child in node_of(node)[1:]:
                if child > TRUE and child not in seen:
                    seen.add(child)
                    stack.append(child)
        return len(seen)

    def concretize(self, level: int, value: Optional[bool] = None) -> bool:
        """Fix the variable at ``level`` to a constant in every live root.

        The graceful-degradation lever (cf. Ryan & Sturton's selective
        concretization): every handle and root-provider reference is
        replaced by its cofactor with ``level`` forced to ``value``,
        then the arena is collected.  Restricting *all* roots with the
        same assignment keeps the state sound — path controls, value
        rails, violation conditions and the ``$random`` invocation
        vectors are all conditioned on the same choice, so error traces
        built afterwards remain witnesses of real runs (the dropped
        half of the space is simply no longer explored).

        When ``value`` is ``None`` the smaller cofactor is chosen by
        sizing both restrictions.  This is a safe-point operation: raw
        node ids outside the root protocol are invalidated.  Returns
        the value chosen.
        """
        if not 0 <= level < self.var_count:
            raise BddError(f"unknown variable level {level}")
        started = _time.perf_counter()
        handles = list(self._handles.values())
        providers = self._providers()
        roots: List[int] = [handle.node for handle in handles]
        for provider in providers:
            roots.extend(provider.bdd_roots())
        if value is None:
            high_size = self._restricted_size(roots, level, True)
            low_size = self._restricted_size(roots, level, False)
            value = high_size < low_size
        value = bool(value)
        memo: Dict[int, int] = {}

        def lookup(node: int) -> int:
            return self._restrict(node, level, value, memo)

        for handle in handles:
            handle.node = lookup(handle.node)
        for provider in providers:
            provider.bdd_remap(lookup, None)
        self._concretized[level] = value
        self._concretize_runs += 1
        # The variable's own node survives (it is pinned by the
        # manager's variable table), so levels stay stable; everything
        # the sizing pass and the restriction built gets swept here.
        self.collect()
        self._concretize_seconds += _time.perf_counter() - started
        return value

    def check_node(self, f: int) -> None:
        """Validate that ``f`` is a node of this manager (for API misuse)."""
        if not isinstance(f, int) or f < 0 or f >= self.arena.size() + 2:
            raise BddError(f"not a node of this manager: {f!r}")

    # ------------------------------------------------------------------
    # checkpoint image
    # ------------------------------------------------------------------

    def image(self) -> Dict[str, object]:
        """Arena, variables and GC/sift state as builtins (checkpoint
        format v2); node ids elsewhere in a checkpoint index it."""
        arena = self.arena.image()
        # the key order is part of a checkpoint's bytes
        return {"level": arena["level"], "low": arena["low"],
                "high": arena["high"], "var_names": list(self._var_names),
                "var_bdds": list(self._var_bdds),
                "concretized": dict(self._concretized),
                "last_gc_size": self._last_gc_size,
                "next_sift_at": self._next_sift_at,
                "dropped": arena["dropped"], "peak": arena["peak"]}

    def restore(self, image: Dict[str, object]) -> None:
        """Replace nodes and variables with a validated :meth:`image`;
        caches, hit/miss and fast-path counters restart from zero."""
        var_names = list(image["var_names"])
        if self._kernel is None:
            self._choose_store()
        self.arena = type(self.arena).from_image(image, len(var_names))
        self._bind_kernels()
        self._var_names = var_names
        self._var_bdds = list(image["var_bdds"])
        self._ensure_recursion_limit()
        self._concretized = {int(level): bool(value)
                             for level, value in image["concretized"].items()}
        self._last_gc_size = image["last_gc_size"]
        self._next_sift_at = image["next_sift_at"]
        self._fp_word = self._fp_sym = 0
