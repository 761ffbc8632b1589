"""The native node store: the :class:`~repro.bdd.arena.Arena` interface
with its arrays, tables and kernels in C (``native.c``).

Both stores hold the same format and build the same nodes in the same
order, so node ids, images and everything derived from them do not
depend on which one ran.  The counters may: this store's computed
tables are lossy, bounded caches where the Python store's are exact
dicts, so a key evicted here is computed again (building no new node)
and counted as a second miss.  Hit and miss counts agree only while no
live entry has been overwritten; the native misses are never fewer.  The manager picks this one
when it can (:func:`unavailable` says why not) and keeps every policy
in Python.

The extension is built with cffi's API mode on first use, never at
import, and installed once per machine in ``$XDG_CACHE_HOME/repro``
(else ``~/.cache/repro``) under a name keyed by the sha256 of its
source and the interpreter's extension suffix: a child interpreter
compiles it in a temporary directory inside the cache, then one atomic
``os.replace`` installs it, so concurrent processes and fresh checkouts
share one build and the building process loads no build tooling.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bdd.arena import Arena
from repro.errors import BddError

_CDEF = """
typedef struct {
    int32_t *level;
    int32_t *low;
    int32_t *high;
    int64_t size;
    int64_t hits[5];
    int64_t misses[5];
    int64_t peak;
    int64_t dropped;
    int64_t table_peak;
    int32_t err;
    int32_t bad;
    ...;
} bdd_store;
bdd_store *bdd_new(void);
void bdd_free(bdd_store *);
int64_t bdd_live_stores(void);
int32_t bdd_mk(bdd_store *, int32_t, int32_t, int32_t);
int32_t bdd_ite(bdd_store *, int32_t, int32_t, int32_t);
int32_t bdd_not(bdd_store *, int32_t);
int32_t bdd_and(bdd_store *, int32_t, int32_t);
int32_t bdd_or(bdd_store *, int32_t, int32_t);
int32_t bdd_xor(bdd_store *, int32_t, int32_t);
int32_t bdd_constrain(bdd_store *, int32_t, int32_t);
void bdd_misses(bdd_store *, int64_t *);
int64_t bdd_table_bytes(bdd_store *);
void bdd_drop_caches(bdd_store *);
int32_t bdd_mark(bdd_store *, const int32_t *, int64_t, uint8_t *);
int32_t bdd_compact(bdd_store *, const uint8_t *, int32_t *);
int32_t bdd_level_counts(bdd_store *, int64_t *, int32_t);
int32_t bdd_pad(bdd_store *, int32_t, int64_t);
int32_t bdd_load(bdd_store *, const int32_t *, const int32_t *,
                 const int32_t *, int64_t, int32_t, int64_t *);
int32_t bdd_sift(bdd_store *, const int32_t *, int64_t, int32_t, int32_t,
                 int64_t, double, int64_t, int32_t *, int64_t *);
"""

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")

#: What the child interpreter runs: argv is the cdef, the module name,
#: the source path and the build directory; prints the built file.
_BUILD = """
import sys
import cffi
cdef, name, source, scratch = sys.argv[1:]
builder = cffi.FFI()
builder.cdef(cdef)
with open(source, encoding="utf-8") as handle:
    builder.set_source(name, handle.read())
print(builder.compile(tmpdir=scratch, verbose=False))
"""

#: (ffi, lib) once loaded, or the reason the native store cannot run.
_loaded = None


class _Unavailable(Exception):
    """Why the native store cannot run here (one short phrase)."""


def unavailable() -> Optional[str]:
    """``None`` when the native store runs in this process, else the
    reason it does not ("cffi not installed", "no C compiler"...).
    Builds or loads the extension on the first call."""
    global _loaded
    if _loaded is None:
        try:
            _loaded = _load()
        except _Unavailable as exc:
            _loaded = str(exc)
    return _loaded if isinstance(_loaded, str) else None


def cache_dir() -> str:
    """The per-user directory holding built extensions."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def _load():
    try:
        import cffi  # noqa: F401  (the built module needs its backend)
    except ImportError:
        raise _Unavailable("cffi not installed") from None
    with open(_SOURCE, encoding="utf-8") as handle:
        source = handle.read()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    key = hashlib.sha256(
        (_CDEF + source + suffix).encode("utf-8")).hexdigest()[:16]
    name = f"_repro_bdd_{key}"
    directory = cache_dir()
    path = os.path.join(directory, name + suffix)
    if not os.path.exists(path):
        _build(name, directory, path)
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as exc:
        raise _Unavailable(f"cannot load {path}: {exc}") from None
    return module.ffi, module.lib


def _build(name: str, directory: str, path: str) -> None:
    """Compile the extension in a child interpreter, into a temporary
    directory inside the cache, and move it to ``path`` in one step."""
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="build-", dir=directory)
    except OSError as exc:
        raise _Unavailable(f"cache not writable: {exc}") from None
    try:
        built = subprocess.run(
            [sys.executable, "-c", _BUILD, _CDEF, name, _SOURCE, scratch],
            capture_output=True, text=True)
        if built.returncode != 0:
            raise _Unavailable(_build_failure(built.stdout + built.stderr))
        try:
            os.replace(built.stdout.strip().splitlines()[-1], path)
        except OSError as exc:
            raise _Unavailable(f"cache not writable: {exc}") from None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _build_failure(output: str) -> str:
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        return "no C compiler"
    lines = [line.strip() for line in output.splitlines() if line.strip()]
    errors = [line for line in lines if "error" in line.lower()]
    return "build failed: " + (errors[0] if errors else
                               lines[-1] if lines else "no output")


def _lib():
    if unavailable() is not None:
        raise BddError(f"native BDD store unavailable: {unavailable()}")
    return _loaded


def live_stores() -> int:
    """Native stores not yet freed in this process."""
    return _lib()[1].bdd_live_stores()


class NativeArena:
    """The :class:`~repro.bdd.arena.Arena` interface over ``native.c``.

    The store is one C struct owned through ``ffi.gc``: a dropped arena
    frees its memory at once.  Every result an operation returns below
    zero means it failed; :meth:`fail` raises the one-line error.
    ``call_memo`` is the same Python dict the Python store keeps.
    """

    __slots__ = ("_ffi", "_lib", "_s", "call_memo")

    def __init__(self) -> None:
        self._ffi, self._lib = _lib()
        store = self._lib.bdd_new()
        if store == self._ffi.NULL:
            raise MemoryError("native BDD store: out of memory")
        self._s = self._ffi.gc(store, self._lib.bdd_free)
        self.call_memo: Dict[tuple, tuple] = {}

    def fail(self):
        """Raise the error the last operation left (and clear it)."""
        s = self._s
        code, s.err = s.err, 0  # native.c's ERR_* codes
        if code == 2:
            raise BddError("BDD operation recursed deeper than the C stack "
                           "allows")
        if code == 4:
            raise BddError(f"not a node of this manager: {s.bad}")
        if code == 3:
            raise MemoryError("native BDD store: node ids exhausted")
        raise MemoryError("native BDD store: out of memory")

    def _checked(self, result: int) -> int:
        if result < 0:
            self.fail()
        return result

    # -- nodes ---------------------------------------------------------

    def mk(self, level: int, low: int, high: int) -> int:
        """Find-or-create the node ``(level, low, high)`` (reduced)."""
        return self._checked(self._lib.bdd_mk(self._s, level, low, high))

    def node(self, f: int) -> Tuple[int, int, int]:
        """``(level, low, high)`` of node ``f``."""
        s = self._s
        if not 0 <= f < s.size:
            raise BddError(f"not a node of this manager: {f!r}")
        return s.level[f], s.low[f], s.high[f]

    def size(self) -> int:
        """Internal nodes in the arena (terminals excluded)."""
        return self._s.size - 2

    def export(self) -> Tuple[List[int], List[int], List[int]]:
        """Copies of the level, low and high arrays (terminals first)."""
        s, unpack = self._s, self._ffi.unpack
        size = s.size
        return (unpack(s.level, size), unpack(s.low, size),
                unpack(s.high, size))

    # -- counters ------------------------------------------------------

    @property
    def hits(self) -> List[int]:
        return list(self._s.hits)

    @property
    def peak(self) -> int:
        return self._s.peak

    @property
    def dropped(self) -> int:
        return self._s.dropped

    def misses(self) -> List[int]:
        """Computations per computed table, indexed like ``hits``: one
        per miss, a recomputation after an eviction included."""
        out = self._ffi.new("int64_t[5]")
        self._lib.bdd_misses(self._s, out)
        return list(out)

    def table_bytes(self) -> int:
        """Bytes the unique and computed tables held at their peak."""
        return self._lib.bdd_table_bytes(self._s)

    # -- kernels and tables ----------------------------------------------

    def kernels(self):
        """``ite``/``not``/``and``/``or``/``xor``/``constrain`` bound to
        the store; each returns a negative id on failure."""
        lib, s = self._lib, self._s
        return tuple(partial(fn, s) for fn in (
            lib.bdd_ite, lib.bdd_not, lib.bdd_and, lib.bdd_or, lib.bdd_xor,
            lib.bdd_constrain))

    def drop_caches(self) -> None:
        """Empty the computed tables and the call memo.  The miss
        counts are counted per computation, so they keep their values."""
        self._lib.bdd_drop_caches(self._s)
        self.call_memo = {}

    def mark(self, roots: Iterable[int]) -> bytearray:
        """Flags of the nodes reachable from ``roots``, terminals set."""
        roots = list(roots)
        marked = bytearray(self._s.size)
        self._checked(self._lib.bdd_mark(
            self._s, self._ffi.new("int32_t[]", roots), len(roots),
            self._ffi.from_buffer(marked)))
        return marked

    def compact(self, marked: bytearray) -> List[int]:
        """Slide the ``marked`` nodes down; returns ``node_map``."""
        size = self._s.size
        if len(marked) != size:
            raise BddError(f"{len(marked)} mark flags for {size} nodes")
        node_map = self._ffi.new("int32_t[]", size)
        self._checked(self._lib.bdd_compact(
            self._s, self._ffi.from_buffer(marked), node_map))
        self.call_memo = {}
        return self._ffi.unpack(node_map, size)

    def inherit(self, old) -> None:
        """Take over the counters of ``old``, which this arena replaces."""
        old.drop_caches()
        self.drop_caches()
        s = self._s
        for slot, (hits, misses) in enumerate(zip(old.hits, old.misses())):
            s.hits[slot] = hits
            s.misses[slot] = misses
        s.table_peak = max(s.table_peak, old.table_bytes())
        before = old.size()
        s.peak = max(old.peak, before)
        s.dropped = old.dropped + max(0, before - self.size())

    def level_counts(self, var_count: int) -> List[int]:
        """Nodes per variable level (junk rows of a blow-up included)."""
        counts = self._ffi.new("int64_t[]", var_count)
        self._checked(self._lib.bdd_level_counts(self._s, counts, var_count))
        return list(counts)

    def pad(self, level: int, count: int) -> None:
        """Append ``count`` dead rows no table holds (see ``Arena.pad``)."""
        self._checked(self._lib.bdd_pad(self._s, level, count))

    def sift_order(self, roots: Iterable[int], var_count: int,
                   converge: bool, max_swap: int, max_growth: float,
                   max_vars: int) -> Tuple[List[int], int]:
        """``(order, swaps)`` of ``Arena.sift_order``, sifted in C on a
        scratch copy of the rows."""
        ffi = self._ffi
        roots = list(roots)
        order = ffi.new("int32_t[]", var_count)
        swaps = ffi.new("int64_t *")
        # the candidates per pass, as a slice [:max_vars] counts them
        candidates = len(range(var_count)[:max_vars])
        self._checked(self._lib.bdd_sift(
            self._s, ffi.new("int32_t[]", roots), len(roots), var_count,
            bool(converge), max_swap, max_growth, candidates, order, swaps))
        return ffi.unpack(order, var_count), swaps[0]

    # -- images --------------------------------------------------------

    def image(self) -> Dict[str, object]:
        """The node arrays and node counters as builtins (ids verbatim)."""
        level, low, high = self.export()
        return {"level": level, "low": low, "high": high,
                "dropped": self.dropped, "peak": self.peak}

    @classmethod
    def from_image(cls, image, var_count: int) -> "NativeArena":
        """Rebuild an arena from an image; the checks and their errors
        are :meth:`Arena.from_image`'s."""
        arena = cls()
        ffi, s = arena._ffi, arena._s
        levels, lows, highs = (list(image[key])
                               for key in ("level", "low", "high"))
        size = len(levels)
        try:
            if len(lows) != size or len(highs) != size or size < 2:
                raise ValueError
            arrays = [ffi.new("int32_t[]", values)
                      for values in (levels, lows, highs)]
            s.dropped = image["dropped"]
            s.peak = image["peak"]
        except (ValueError, OverflowError, TypeError):
            # a value no int32 holds: the Python store names the node
            Arena.from_image(image, var_count)
            raise BddError("arena image does not fit the native store")
        where = ffi.new("int64_t[2]")
        check = arena._checked(arena._lib.bdd_load(
            s, *arrays, size, var_count, where))
        node = where[0]
        if check == 1:
            raise BddError(
                f"arena node {node} has a child ({lows[node]}, "
                f"{highs[node]}) that does not precede it")
        if check == 2:
            raise BddError(f"arena node {node} has two equal children")
        if check == 3:
            raise BddError(
                f"arena node {node} has level {levels[node]}, not below "
                f"the {var_count} variables")
        if check == 4:
            raise BddError(f"arena node {node} duplicates node {where[1]}")
        return arena
