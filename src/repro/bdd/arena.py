"""The BDD node store, the one place that knows the node format.

Internal nodes are ids ``>= 2`` into the parallel ``level``/``low``/
``high`` arrays of an :class:`Arena` (0 and 1 are the terminals);
children precede their parents, and the unique table maps each
``(level, low, high)`` triple to its one node.  The
:class:`~repro.bdd.manager.BddManager` holding an arena keeps the
policy and reaches the store only through its methods, so the native
store (:class:`repro.bdd.native.NativeArena`, the same interface over
C) replaces this one class.  This one is the oracle and the fallback,
for the kernels and for the sift's swap space (:class:`_SiftSpace`).
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import Dict, Iterable, List, Tuple

from repro.errors import BddError

FALSE = 0
TRUE = 1

_TERMINAL_LEVEL = 1 << 30

#: Indices into ``Arena.hits`` and ``Arena.miss_base`` (one slot per
#: computed table).
_ITE, _NOT, _AND, _OR, _XOR = range(5)

#: Binary apply opcodes (offsets of ``_AND``/``_OR``/``_XOR``).
_OP_AND, _OP_OR, _OP_XOR = range(3)


def _make_kernels(levels: List[int], lows: List[int], highs: List[int],
                  unique: Dict[Tuple[int, int, int], int],
                  ite_cache: Dict[Tuple[int, int, int], int],
                  not_cache: Dict[int, int],
                  and_cache: Dict[Tuple[int, int], int],
                  or_cache: Dict[Tuple[int, int], int],
                  xor_cache: Dict[Tuple[int, int], int],
                  constrain_cache: Dict[Tuple[int, int], int],
                  hits: List[int]):
    """Build the recursive ``ite``/``not``/``and``/``or``/``xor``/``constrain`` kernels.

    Each kernel takes *itself* as its first argument and recurses
    through it, so no closure refers to itself, the arena or the
    manager: a dropped manager frees its arena by reference counting.
    Every kernel expands the low cofactor first and stores the same
    keys in the same order, so node ids are a pure function of the
    operation sequence.  Terminal shortcuts are counted as neither hit
    nor miss.  ``constrain``'s memo is a table of its own, kept like
    the computed tables to the next safe point but counted nowhere: a
    hit there returns the node a recomputation would find again.
    """
    unique_get = unique.get

    def not_k(rec, f):
        if f <= TRUE:
            return f ^ 1
        result = not_cache.get(f)
        if result is not None:
            hits[_NOT] += 1
            return result
        r0 = rec(rec, lows[f])
        r1 = rec(rec, highs[f])
        # complements of distinct canonical children stay distinct
        level = levels[f]
        key = (level, r0, r1)
        result = unique_get(key)
        if result is None:
            result = len(levels)
            levels.append(level)
            lows.append(r0)
            highs.append(r1)
            unique[key] = result
        not_cache[f] = result
        not_cache[result] = f
        return result

    def apply_k(op: int, cache: Dict[Tuple[int, int], int]):
        # One binary recursion per operator; ``op`` only steers the
        # terminal cases, so the expanding path is the same for all.
        slot = _AND + op

        def kernel(rec, f, g):
            if f > g:
                f, g = g, f
            # f <= g, so a terminal g implies a terminal f: the
            # f-checks below cover every terminal case.
            if f == FALSE:
                return FALSE if op == _OP_AND else g
            if f == TRUE:
                if op == _OP_AND:
                    return g
                if op == _OP_OR:
                    return TRUE
                return not_k(not_k, g)
            if f == g:
                return FALSE if op == _OP_XOR else g
            key = (f, g)
            result = cache.get(key)
            if result is not None:
                hits[slot] += 1
                return result
            lf = levels[f]
            lg = levels[g]
            if lf == lg:
                top = lf
                r0 = rec(rec, lows[f], lows[g])
                r1 = rec(rec, highs[f], highs[g])
            elif lf < lg:
                top = lf
                r0 = rec(rec, lows[f], g)
                r1 = rec(rec, highs[f], g)
            else:
                top = lg
                r0 = rec(rec, f, lows[g])
                r1 = rec(rec, f, highs[g])
            if r0 == r1:
                result = r0
            else:
                ukey = (top, r0, r1)
                result = unique_get(ukey)
                if result is None:
                    result = len(levels)
                    levels.append(top)
                    lows.append(r0)
                    highs.append(r1)
                    unique[ukey] = result
            cache[key] = result
            return result

        return kernel

    and_k = apply_k(_OP_AND, and_cache)
    or_k = apply_k(_OP_OR, or_cache)
    xor_k = apply_k(_OP_XOR, xor_cache)

    def ite_k(rec, f, g, h):
        # Terminal and triple reductions (cheap canonicalization that
        # multiplies computed-table hit rates).
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == f:
            g = TRUE
        if h == f:
            h = FALSE
        if g == TRUE:
            if h == FALSE:
                return f
            return or_k(or_k, f, h)
        if h == FALSE:
            return and_k(and_k, f, g)
        key = (f, g, h)
        result = ite_cache.get(key)
        if result is not None:
            hits[_ITE] += 1
            return result
        lf = levels[f]
        lg = levels[g]
        lh = levels[h]
        top = lf if lf < lg else lg
        if lh < top:
            top = lh
        if lf == top:
            f0 = lows[f]
            f1 = highs[f]
        else:
            f0 = f1 = f
        if lg == top:
            g0 = lows[g]
            g1 = highs[g]
        else:
            g0 = g1 = g
        if lh == top:
            h0 = lows[h]
            h1 = highs[h]
        else:
            h0 = h1 = h
        r0 = rec(rec, f0, g0, h0)
        r1 = rec(rec, f1, g1, h1)
        if r0 == r1:
            result = r0
        else:
            ukey = (top, r0, r1)
            result = unique_get(ukey)
            if result is None:
                result = len(levels)
                levels.append(top)
                lows.append(r0)
                highs.append(r1)
                unique[ukey] = result
        ite_cache[key] = result
        return result

    def constrain_k(rec, f, c):
        # Coudert-Madre generalized cofactor: where one cofactor of the
        # care set is empty, follow the other and drop the variable.
        if c == TRUE or f <= TRUE:
            return f
        if c == FALSE:
            return FALSE
        if f == c:
            return TRUE
        key = (f, c)
        result = constrain_cache.get(key)
        if result is not None:
            return result
        lf = levels[f]
        lc = levels[c]
        top = lf if lf < lc else lc
        if lf == top:
            f0 = lows[f]
            f1 = highs[f]
        else:
            f0 = f1 = f
        if lc == top:
            c0 = lows[c]
            c1 = highs[c]
        else:
            c0 = c1 = c
        if c0 == FALSE:
            result = rec(rec, f1, c1)
        elif c1 == FALSE:
            result = rec(rec, f0, c0)
        else:
            r0 = rec(rec, f0, c0)
            r1 = rec(rec, f1, c1)
            if r0 == r1:
                result = r0
            else:
                ukey = (top, r0, r1)
                result = unique_get(ukey)
                if result is None:
                    result = len(levels)
                    levels.append(top)
                    lows.append(r0)
                    highs.append(r1)
                    unique[ukey] = result
        constrain_cache[key] = result
        return result

    return ite_k, not_k, and_k, or_k, xor_k, constrain_k


class Arena:
    """Node arrays, unique and computed tables, and their counters.

    ``hits`` counts computed-table hits per table (indexed by
    ``_ITE``/``_NOT``/``_AND``/``_OR``/``_XOR``).  A miss costs nothing
    on the hot path: it inserts one entry (a pair for ``not``), and
    :meth:`drop_caches` folds table lengths into ``miss_base``.
    ``peak``/``dropped``: node high-water mark, nodes removed.

    The computed tables here are exact dicts that keep every entry to
    the next safe point.  The native store's are bounded, lossy caches:
    it builds the same nodes, but computes an evicted key again and
    counts it again, so its hits and misses equal these only while it
    has overwritten no live entry, and its misses are never fewer.
    """

    __slots__ = ("level", "low", "high", "unique", "ite_cache", "not_cache",
                 "and_cache", "or_cache", "xor_cache", "constrain_cache",
                 "call_memo", "hits", "miss_base", "peak", "dropped")

    def __init__(self) -> None:
        # Slots 0/1 are placeholders for the terminals.
        self.level: List[int] = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self.low: List[int] = [0, 0]
        self.high: List[int] = [0, 0]
        self.unique: Dict[Tuple[int, int, int], int] = {}
        self.hits = [0] * 5
        self.miss_base = [0] * 5
        self.peak = 0
        self.dropped = 0
        self._empty_tables()

    def mk(self, level: int, low: int, high: int) -> int:
        """Find-or-create the node ``(level, low, high)`` (reduced)."""
        if low == high:
            return low
        key = (level, low, high)
        node = self.unique.get(key)
        if node is None:
            node = len(self.level)
            self.level.append(level)
            self.low.append(low)
            self.high.append(high)
            self.unique[key] = node
        return node

    def node(self, f: int) -> Tuple[int, int, int]:
        """``(level, low, high)`` of node ``f``."""
        return self.level[f], self.low[f], self.high[f]

    def size(self) -> int:
        """Internal nodes in the arena (terminals excluded)."""
        return len(self.level) - 2

    def export(self) -> Tuple[List[int], List[int], List[int]]:
        """Copies of the level, low and high arrays (terminals first)."""
        return list(self.level), list(self.low), list(self.high)

    def misses(self) -> List[int]:
        """Computed-table misses per table, indexed like ``hits``."""
        base = self.miss_base
        return [base[_ITE] + len(self.ite_cache),
                base[_NOT] + len(self.not_cache) // 2,  # pairs f <-> r
                base[_AND] + len(self.and_cache),
                base[_OR] + len(self.or_cache),
                base[_XOR] + len(self.xor_cache)]

    def table_bytes(self) -> None:
        """The native store's table footprint; dicts report none."""
        return None

    def kernels(self):
        """``ite``/``not``/``and``/``or``/``xor``/``constrain``, bound to
        the current lists and tables (each called with its node ids
        alone): rebuild them after :meth:`drop_caches` or :meth:`compact`."""
        return tuple(partial(kernel, kernel) for kernel in _make_kernels(
            self.level, self.low, self.high, self.unique, self.ite_cache,
            self.not_cache, self.and_cache, self.or_cache, self.xor_cache,
            self.constrain_cache, self.hits))

    def drop_caches(self) -> None:
        """Empty the computed tables and the call memo; their lengths
        fold into ``miss_base`` first, so miss counts stay monotonic."""
        self.miss_base = self.misses()
        self._empty_tables()

    def _empty_tables(self) -> None:
        self.ite_cache: Dict[Tuple[int, int, int], int] = {}
        self.not_cache: Dict[int, int] = {}
        # and/or/xor: operand-sorted two-key tables of their own
        self.and_cache: Dict[Tuple[int, int], int] = {}
        self.or_cache: Dict[Tuple[int, int], int] = {}
        self.xor_cache: Dict[Tuple[int, int], int] = {}
        # (f, c) -> f constrained to c; counted nowhere
        self.constrain_cache: Dict[Tuple[int, int], int] = {}
        # (function token, argument rails...) -> (result rails, known
        # word or None, fast-path counter deltas): repro.compile.funcs
        self.call_memo: Dict[tuple, tuple] = {}

    def mark(self, roots: Iterable[int]) -> bytearray:
        """Flags of the nodes reachable from ``roots``, terminals set."""
        lows, highs = self.low, self.high
        marked = bytearray(len(lows))
        marked[FALSE] = marked[TRUE] = 1
        stack: List[int] = []
        for root in roots:
            if not marked[root]:
                marked[root] = 1
                stack.append(root)
        while stack:
            node = stack.pop()
            child = lows[node]
            if not marked[child]:
                marked[child] = 1
                stack.append(child)
            child = highs[node]
            if not marked[child]:
                marked[child] = 1
                stack.append(child)
        return marked

    def compact(self, marked: bytearray) -> List[int]:
        """Slide the ``marked`` nodes down in place; returns ``node_map``
        (old id -> new id, for marked ids).  Children precede parents,
        so one ascending pass suffices.  The unique table is rebuilt and
        the computed tables dropped."""
        levels, lows, highs = self.level, self.low, self.high
        size = len(levels)
        if size - 2 > self.peak:
            self.peak = size - 2
        node_map = list(range(size))
        write = 2
        for node in range(2, size):
            if marked[node]:
                node_map[node] = write
                levels[write] = levels[node]
                lows[write] = node_map[lows[node]]
                highs[write] = node_map[highs[node]]
                write += 1
        del levels[write:]
        del lows[write:]
        del highs[write:]
        self.unique = {
            (levels[node], lows[node], highs[node]): node
            for node in range(2, write)
        }
        self.dropped += size - write
        self.drop_caches()
        return node_map

    def inherit(self, old: "Arena") -> None:
        """Take over the counters of ``old``, which this arena replaces;
        its own (a reorder's translation work) are discarded."""
        old.drop_caches()
        self.drop_caches()
        self.hits = old.hits
        self.miss_base = old.miss_base
        before = old.size()
        self.peak = max(old.peak, before)
        self.dropped = old.dropped + max(0, before - self.size())

    def level_counts(self, var_count: int) -> List[int]:
        """Nodes per variable level (junk rows of a blow-up included)."""
        counts = [0] * var_count
        for level in islice(self.level, 2, None):
            counts[level] += 1
        return counts

    def pad(self, level: int, count: int) -> None:
        """Append ``count`` dead rows no table holds (fault injection's
        ``arena-blowup``): a chain ``(level, FALSE, previous row)`` of
        distinct triples no kernel asks for, so :meth:`image` stays a
        valid image."""
        start = len(self.level)
        self.level.extend([level] * count)
        self.low.extend([FALSE] * count)
        self.high.extend(range(start - 1, start + count - 1))

    def image(self) -> Dict[str, object]:
        """The node arrays and node counters as builtins (ids verbatim)."""
        level, low, high = self.export()
        return {"level": level, "low": low, "high": high,
                "dropped": self.dropped, "peak": self.peak}

    @classmethod
    def from_image(cls, image, var_count: int) -> "Arena":
        """Rebuild an arena from :meth:`image`, with empty tables and
        zero hits.  Raises one :class:`BddError` unless the arrays have
        equal lengths and every node has a level below ``var_count``,
        two distinct children that precede it, and a triple of its own.
        """
        levels = list(image["level"])
        lows = list(image["low"])
        highs = list(image["high"])
        size = len(levels)
        if len(lows) != size or len(highs) != size or size < 2:
            raise BddError(
                f"arena arrays differ in length or lack the terminals "
                f"(level {size}, low {len(lows)}, high {len(highs)})")
        unique: Dict[Tuple[int, int, int], int] = {}
        for node in range(2, size):
            level, low, high = levels[node], lows[node], highs[node]
            if not (0 <= low < node and 0 <= high < node):
                raise BddError(
                    f"arena node {node} has a child ({low}, {high}) that "
                    "does not precede it")
            if low == high:
                raise BddError(f"arena node {node} has two equal children")
            if not 0 <= level < var_count:
                raise BddError(
                    f"arena node {node} has level {level}, not below "
                    f"the {var_count} variables")
            key = (level, low, high)
            if key in unique:
                raise BddError(
                    f"arena node {node} duplicates node {unique[key]}")
            unique[key] = node
        arena = cls()
        arena.level = levels
        arena.low = lows
        arena.high = highs
        arena.unique = unique
        arena.dropped = image["dropped"]
        arena.peak = image["peak"]
        return arena

    def sift_order(self, roots: Iterable[int], var_count: int,
                   converge: bool, max_swap: int, max_growth: float,
                   max_vars: int) -> Tuple[List[int], int]:
        """Sift a scratch copy of the arena (Rudell): ``(order, swaps)``,
        the best order found (position -> level) and the swaps made.

        ``roots`` are pinned; every node should be live (sift right
        after a collection).  The bounds: ``max_swap`` swaps in all,
        each variable's sweep abandoned past ``max_growth`` times the
        size it started from, the ``max_vars`` largest levels per pass,
        and with ``converge`` repeated passes while they gain.  The
        arena itself is left as it was.
        """
        space = _SiftSpace(self, roots, var_count)
        space.run(converge, max_swap, max_growth, max_vars)
        return space.order, space.swaps


class _SiftSpace:
    """Scratch graph for dynamic sifting.

    A mutable copy of an arena that supports the classic adjacent-level
    swap in place, the shape of CUDD's ``cuddSwapInPlace``.  Scratch
    nodes are labelled by *variable* (their level in the arena when the
    copy was made), not by order position, and every variable keeps one
    subtable mapping ``(low, high)`` to its node: the variable's unique
    table and its node list at once.  Exchanging the variables at order
    positions ``p`` and ``p+1`` therefore only re-expresses the upper
    variable's nodes that have a child labelled with the lower one;
    every other node keeps its label, its key and its children.  Node
    ids never change here, so ``order`` (position → original level) is
    the only output.

    Unlike the manager, the scratch graph *is* reference counted
    (``parents``), because swaps must know when a node of the lower
    variable dies; roots are pinned with an extra count.  Every size it
    steers by is a live node count, which does not depend on the ids
    it hands out: ``native.c``'s ``bdd_sift`` is its twin and makes the
    same swaps.
    """

    def __init__(self, arena: "Arena", roots: Iterable[int],
                 var_count: int) -> None:
        # Terminals keep _TERMINAL_LEVEL, which labels no variable.
        self.var, self.low, self.high = arena.export()
        size = len(self.var)
        self.nvars = var_count
        self.order = list(range(self.nvars))     # position -> orig level
        self.pos_of = list(range(self.nvars))    # orig level -> position
        self.tables: List[Dict[Tuple[int, int], int]] = [
            {} for _ in range(self.nvars)]
        self.parents = [0] * size
        for node in range(2, size):
            low, high = self.low[node], self.high[node]
            self.tables[self.var[node]][(low, high)] = node
            if low > TRUE:
                self.parents[low] += 1
            if high > TRUE:
                self.parents[high] += 1
        for root in roots:
            if root > TRUE:
                self.parents[root] += 1          # pin
        self.size = size - 2
        self.free: List[int] = []
        self.swaps = 0

    def swap(self, p: int) -> None:
        """Exchange the variables at order positions ``p`` and ``p+1``."""
        self.swaps += 1
        order = self.order
        u, w = order[p], order[p + 1]
        var = self.var
        low = self.low
        high = self.high
        parents = self.parents
        upper = self.tables[u]
        lower = self.tables[w]
        # A node of u interacts with the swap iff a child is a node of
        # w.  The others do not depend on w: they keep everything and
        # simply end up one position lower.
        work = []
        for (f0, f1), node in upper.items():
            f0w = var[f0] == w
            f1w = var[f1] == w
            if f0w or f1w:
                work.append((node, f0, f1, f0w, f1w))
        free = self.free
        pending: List[int] = []
        size = self.size
        # Re-express each interacting node over the risen variable:
        #   ite(u, f1, f0) == ite(w, ite(u, f11, f01), ite(u, f10, f00))
        # The node keeps its id (parents above are untouched) but is
        # now a node of w; its u-cofactors are fresh or shared nodes of
        # u.  Its new key cannot collide with an old node of w: those
        # have no child of u, and at least one of these children is
        # one (else f0 and f1 would have equal cofactors).
        for node, f0, f1, f0w, f1w in work:
            del upper[(f0, f1)]
            if f0w:
                f00, f01 = low[f0], high[f0]
            else:
                f00 = f01 = f0
            if f1w:
                f10, f11 = low[f1], high[f1]
            else:
                f10 = f11 = f1
            children = []
            for lo, hi in ((f00, f10), (f01, f11)):
                # Find-or-create (u, lo, hi).  Sharing with an existing
                # node, even one whose count just hit zero, revives it;
                # the sweep below re-checks counts for that reason.
                if lo == hi:
                    child = lo
                else:
                    child = upper.get((lo, hi))
                    if child is None:
                        if free:
                            child = free.pop()
                            var[child] = u
                            low[child] = lo
                            high[child] = hi
                        else:
                            child = len(var)
                            var.append(u)
                            low.append(lo)
                            high.append(hi)
                            parents.append(0)
                        upper[(lo, hi)] = child
                        if lo > TRUE:
                            parents[lo] += 1
                        if hi > TRUE:
                            parents[hi] += 1
                        size += 1
                if child > TRUE:
                    parents[child] += 1
                children.append(child)
            for old in (f0, f1):
                if old > TRUE:
                    parents[old] -= 1
                    if parents[old] == 0:
                        pending.append(old)
            lo_node, hi_node = children
            var[node] = w
            low[node] = lo_node
            high[node] = hi_node
            lower[(lo_node, hi_node)] = node
        # Sweep nodes orphaned by the re-expression (cascading to
        # their children), skipping any that sharing revived.
        tables = self.tables
        while pending:
            node = pending.pop()
            if parents[node] != 0 or var[node] < 0:
                continue
            lo, hi = low[node], high[node]
            del tables[var[node]][(lo, hi)]
            for child in (lo, hi):
                if child > TRUE:
                    parents[child] -= 1
                    if parents[child] == 0:
                        pending.append(child)
            var[node] = -1
            free.append(node)
            size -= 1
        self.size = size
        order[p], order[p + 1] = w, u
        self.pos_of[w] = p
        self.pos_of[u] = p + 1

    def _sift_one(self, pos: int, budget: List[int],
                  max_growth: float) -> None:
        """Move one variable through the order, settle at its best spot."""
        limit = int(self.size * max_growth) + 2
        best_size = self.size
        best_pos = pos
        cur = pos
        top = self.nvars - 1
        # Head for the nearer end first (fewer swaps wasted if the
        # sweep aborts on the growth limit).
        phases = ("up", "down") if pos <= top - pos else ("down", "up")
        for phase in phases:
            if phase == "up":
                while cur > 0 and budget[0] > 0 and self.size <= limit:
                    self.swap(cur - 1)
                    budget[0] -= 1
                    cur -= 1
                    if self.size < best_size:
                        best_size = self.size
                        best_pos = cur
            else:
                while cur < top and budget[0] > 0 and self.size <= limit:
                    self.swap(cur)
                    budget[0] -= 1
                    cur += 1
                    if self.size < best_size:
                        best_size = self.size
                        best_pos = cur
        # Return to the best position seen — off budget, since stopping
        # anywhere else would leave a worse order than we started with.
        while cur > best_pos:
            self.swap(cur - 1)
            cur -= 1
        while cur < best_pos:
            self.swap(cur)
            cur += 1

    def run(self, converge: bool, max_swap: int, max_growth: float,
            max_vars: int) -> None:
        """Sift the largest levels first; optionally repeat to converge."""
        budget = [max_swap]
        while True:
            start_size = self.size
            # Largest first; equal sizes in order position.  Candidates
            # are variables, not positions: earlier sifts shift the
            # positions of later candidates.
            tables = self.tables
            candidates = sorted(self.order, key=lambda var: len(tables[var]),
                                reverse=True)[:max_vars]
            for var in candidates:
                if budget[0] <= 0:
                    break
                self._sift_one(self.pos_of[var], budget, max_growth)
            if not converge or budget[0] <= 0 or self.size >= start_size:
                break
