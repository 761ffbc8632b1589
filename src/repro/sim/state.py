"""The symbolic value store.

Every elaborated net/variable holds a :class:`FourVec`; memories hold a
lazy word map where unwritten words read as all-X.  Initial values
follow 1364: variables start all-X, nets float at all-Z (until a driver
resolves), named events start at a known 0 so a trigger toggle is a
guaranteed value change.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.bdd import FALSE, BddManager
from repro.errors import SimulationError
from repro.frontend.elaborate import Design, NetInfo
from repro.fourval import FourVec, ops


class SimState:
    """Holds the current symbolic value of every storage object.

    A slot normally holds a :class:`FourVec`; the compiled tier may
    instead park a plain ``int`` — a fully-known word, masked to the
    declared width — via :meth:`store_raw`.  Raw words materialize
    into the exact vector a generic write would have stored the first
    time a consumer needs bits (:meth:`value`), so every reader above
    this class still sees only ``FourVec``.  Concrete vectors hold
    only terminal rails, which is why raw slots are invisible to the
    GC/reorder root walk.
    """

    def __init__(self, mgr: BddManager, design: Design) -> None:
        self.mgr = mgr
        self.design = design
        self._values: Dict[str, FourVec] = {}
        self._arrays: Dict[str, Dict[int, FourVec]] = {}
        for name, info in design.nets.items():
            self.register(info)

    def register(self, info: NetInfo) -> None:
        """(Re)initialize storage for one net (also used for shadows)."""
        if info.array is not None:
            self._arrays[info.full_name] = {}
            return
        if info.kind == "event":
            value = FourVec.from_int(self.mgr, 0, 1)
        elif info.is_net:
            value = FourVec.all_z(self.mgr, info.width)
        else:
            value = FourVec.all_x(self.mgr, info.width)
        signed = info.signed or info.kind in ("integer", "time")
        self._values[info.full_name] = value.as_signed(signed)

    def sync_with_design(self) -> None:
        """Register any nets added to the design after construction
        (shadow registers created during compilation)."""
        for name, info in self.design.nets.items():
            if name not in self._values and name not in self._arrays:
                self.register(info)

    # ------------------------------------------------------------------
    # scalar / vector objects
    # ------------------------------------------------------------------

    def value(self, name: str) -> FourVec:
        try:
            stored = self._values[name]
        except KeyError:
            if name in self._arrays:
                raise SimulationError(
                    f"memory {name!r} read without a word index"
                ) from None
            raise SimulationError(f"unknown object {name!r}") from None
        if type(stored) is int:
            return self._materialize(name, stored)
        return stored

    def _materialize(self, name: str, raw: int) -> FourVec:
        """Expand a raw word into the vector a generic write stores."""
        info = self.design.net(name)
        signed = info.signed or info.kind in ("integer", "time")
        vec = FourVec.from_int(self.mgr, raw, info.width).as_signed(signed)
        self._values[name] = vec
        return vec

    def peek(self, name: str):
        """The slot as stored: an ``int`` raw word or a ``FourVec``."""
        return self._values[name]

    def known_word(self, name: str):
        """Raw unsigned word iff the value is fully known, else None.

        Equivalent to ``value(name).known_int()`` but does not
        materialize raw slots — the compiled tier's word probes stay
        in the integer domain end to end.
        """
        stored = self._values[name]
        if type(stored) is int:
            return stored
        return stored.known_int()

    def store_raw(self, name: str, raw: int) -> None:
        """Park a fully-known word (pre-masked to the declared width)."""
        self._values[name] = raw

    def set_value(self, name: str, value: FourVec) -> None:
        if name not in self._values:
            raise SimulationError(f"unknown object {name!r}")
        self._values[name] = value

    def names(self) -> Iterator[str]:
        return iter(self._values)

    # ------------------------------------------------------------------
    # memories
    # ------------------------------------------------------------------

    def is_array(self, name: str) -> bool:
        return name in self._arrays

    def array_words(self, name: str) -> Dict[int, FourVec]:
        return self._arrays[name]

    def read_array(
        self, name: str, index: FourVec, low: int, high: int
    ) -> FourVec:
        """Read ``name[index]`` — symbolic indices mux over written words.

        Out-of-range and X/Z indices read all-X, as do unwritten words.
        """
        info = self.design.net(name)
        words = self._arrays[name]
        concrete = index.to_int_or_none()
        if concrete is not None and index.is_fully_known():
            if low <= concrete <= high:
                return words.get(concrete, FourVec.all_x(self.mgr, info.width))
            return FourVec.all_x(self.mgr, info.width)
        result = FourVec.all_x(self.mgr, info.width)
        for word_index, word in words.items():
            cond = ops.equal(
                index, FourVec.from_int(self.mgr, word_index, index.width)
            ).truthy()
            if cond == FALSE:
                continue
            result = word.ite(cond, result)
        return result

    def write_array(
        self,
        name: str,
        index: FourVec,
        value: FourVec,
        control: int,
        low: int,
        high: int,
    ) -> bool:
        """Guarded write of ``name[index]``; returns whether a word changed.

        A symbolic index updates every in-range word under the
        appropriate equality condition.  X/Z index bits make the write
        vanish on those paths (1364: writes to invalid addresses are
        lost).  Rails are canonical, so a word whose rails changed
        differs from its old value on some path: the flag is exactly
        ``change condition != FALSE`` without building that condition.
        """
        if control == FALSE:
            return False
        info = self.design.net(name)
        words = self._arrays[name]
        value = value.resize(info.width)
        concrete = index.to_int_or_none()
        if concrete is not None and index.is_fully_known():
            if not low <= concrete <= high:
                return False
            old = words.get(concrete, FourVec.all_x(self.mgr, info.width))
            new = value.ite(control, old)
            if new.bits == old.bits:
                return False
            words[concrete] = new
            return True
        changed = False
        known = index.known()
        for word_index in range(low, high + 1):
            cond = ops.equal(
                index, FourVec.from_int(self.mgr, word_index, index.width)
            ).truthy()
            cond = self.mgr.and_(self.mgr.and_(cond, control), known)
            if cond == FALSE:
                continue
            old = words.get(word_index, FourVec.all_x(self.mgr, info.width))
            new = value.ite(cond, old)
            if new.bits != old.bits:
                words[word_index] = new
                changed = True
        return changed

    # ------------------------------------------------------------------
    # BDD root-provider protocol (GC / in-place reordering)
    # ------------------------------------------------------------------

    def bdd_roots(self) -> Iterator[int]:
        """Every BDD node id held by a net value or memory word."""
        for vec in self._values.values():
            if type(vec) is int:
                continue  # raw word: terminal rails only, no live nodes
            for a, b in vec.bits:
                yield a
                yield b
        for words in self._arrays.values():
            for vec in words.values():
                for a, b in vec.bits:
                    yield a
                    yield b

    def bdd_remap(self, lookup, level_map) -> None:
        """Rewrite the store after an arena compaction/reorder."""
        values = self._values
        for name, vec in values.items():
            if type(vec) is int:
                continue  # raw word: nothing to remap
            values[name] = vec.remap(lookup)
        for words in self._arrays.values():
            for index, vec in words.items():
                words[index] = vec.remap(lookup)

    # ------------------------------------------------------------------
    # witness substitution (error-trace support)
    # ------------------------------------------------------------------

    def snapshot_names(self) -> Tuple[str, ...]:
        return tuple(self._values)

    # ------------------------------------------------------------------
    # checkpoint support (repro.guard)
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """Pure-builtin image of the store (node ids + signedness).

        Node ids are only meaningful against the arena image saved in
        the same checkpoint; the pair round-trips exactly.
        """
        return {
            "values": {
                # value() materializes raw words, so a compiled-tier
                # checkpoint is byte-identical to an interpreter one.
                name: (list(vec.bits), vec.signed)
                for name, vec in [(n, self.value(n))
                                  for n in list(self._values)]
            },
            "arrays": {
                name: {
                    index: (list(vec.bits), vec.signed)
                    for index, vec in words.items()
                }
                for name, words in self._arrays.items()
            },
        }

    def restore(self, image: Dict[str, Dict]) -> None:
        """Rebuild the store from a :meth:`snapshot` image."""
        self._values = {
            name: FourVec(self.mgr, [tuple(bit) for bit in bits], signed)
            for name, (bits, signed) in image["values"].items()
        }
        self._arrays = {
            name: {
                index: FourVec(self.mgr, [tuple(bit) for bit in bits], signed)
                for index, (bits, signed) in words.items()
            }
            for name, words in image["arrays"].items()
        }
