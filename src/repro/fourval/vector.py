"""The :class:`FourVec` symbolic vector type.

A ``FourVec`` is an immutable little-endian tuple of dual-rail bits
(see package docstring for the encoding) plus a ``signed`` flag.  All
Boolean structure lives in the owning :class:`repro.bdd.BddManager`;
``FourVec`` itself is a thin, hashable value object so vectors can be
stored, compared and merged freely by the simulation kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bdd import FALSE, TRUE, BddManager
from repro.errors import FourValueError
from repro.fourval.word import to_signed

#: One four-valued bit: ``(a, b)`` BDD pair in aval/bval encoding.
BitPair = Tuple[int, int]

_CHAR_TO_PAIR = {
    "0": (FALSE, FALSE),
    "1": (TRUE, FALSE),
    "z": (FALSE, TRUE),
    "x": (TRUE, TRUE),
}
_PAIR_TO_CHAR = {v: k for k, v in _CHAR_TO_PAIR.items()}

BIT_0: BitPair = _CHAR_TO_PAIR["0"]
BIT_1: BitPair = _CHAR_TO_PAIR["1"]
BIT_X: BitPair = _CHAR_TO_PAIR["x"]
BIT_Z: BitPair = _CHAR_TO_PAIR["z"]


class FourVec:
    """An immutable four-valued symbolic bit vector.

    Attributes:
        mgr: owning BDD manager.
        bits: little-endian tuple of ``(a, b)`` BDD pairs.
        signed: Verilog signedness (only ``integer`` values and
            ``$signed`` casts are signed in 1364-1995).
    """

    __slots__ = ("mgr", "bits", "signed", "_summary")

    def __init__(
        self, mgr: BddManager, bits: Sequence[BitPair], signed: bool = False
    ) -> None:
        if not bits:
            raise FourValueError("zero-width vector")
        self.mgr = mgr
        self.bits = tuple(bits)
        self.signed = signed
        #: cached (known_mask, value) concrete summary; see
        #: :meth:`concrete_summary`.  Lazily computed, incrementally
        #: carried by the structural operations where possible.
        self._summary: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_int(
        cls, mgr: BddManager, value: int, width: int, signed: bool = False
    ) -> "FourVec":
        """Constant vector from a Python integer (two's complement wrap)."""
        value &= (1 << width) - 1
        # FourVec is immutable and constant rails are terminal node ids
        # (stable across GC/reorder), so identical constants can share
        # one instance — the word-level fast path mints them constantly.
        cache = mgr._const_vec_cache
        key = (value, width, signed)
        vec = cache.get(key)
        if vec is not None:
            return vec
        bits = [BIT_1 if (value >> i) & 1 else BIT_0 for i in range(width)]
        vec = cls(mgr, bits, signed)
        vec._summary = ((1 << width) - 1, value)
        if len(cache) < 16384:
            cache[key] = vec
        return vec

    @classmethod
    def from_verilog_bits(
        cls, mgr: BddManager, text: str, signed: bool = False
    ) -> "FourVec":
        """Constant from a bit string like ``"10xz"`` (MSB first)."""
        bits: List[BitPair] = []
        for char in reversed(text.lower()):
            if char == "_":
                continue
            pair = _CHAR_TO_PAIR.get(char)
            if pair is None:
                raise FourValueError(f"invalid four-valued digit {char!r}")
            bits.append(pair)
        return cls(mgr, bits, signed)

    @classmethod
    def all_x(cls, mgr: BddManager, width: int) -> "FourVec":
        """Vector of all-X bits — the initial value of every ``reg``."""
        return cls(mgr, [BIT_X] * width)

    @classmethod
    def all_z(cls, mgr: BddManager, width: int) -> "FourVec":
        """Vector of all-Z bits — the value of an undriven net."""
        return cls(mgr, [BIT_Z] * width)

    @classmethod
    def fresh_symbol(
        cls, mgr: BddManager, width: int, name: str, four_valued: bool = False
    ) -> "FourVec":
        """Vector of fresh symbolic variables (the ``$random`` payload).

        With ``four_valued=True`` each bit gets *two* fresh variables so
        it ranges over all of {0,1,X,Z} (the paper's ``$randomxz``);
        otherwise one variable per bit ranging over {0,1}.
        """
        bits: List[BitPair] = []
        for i in range(width):
            a = mgr.new_var(f"{name}[{i}]")
            b = mgr.new_var(f"{name}[{i}].xz") if four_valued else FALSE
            bits.append((a, b))
        return cls(mgr, bits)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def width(self) -> int:
        """Number of bits."""
        return len(self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FourVec)
            and self.mgr is other.mgr
            and self.bits == other.bits
            and self.signed == other.signed
        )

    def __hash__(self) -> int:
        return hash((id(self.mgr), self.bits, self.signed))

    def __repr__(self) -> str:
        if self.is_constant():
            return f"FourVec('{self.to_verilog_bits()}')"
        return f"FourVec(width={self.width}, symbolic)"

    def is_constant(self) -> bool:
        """True when every rail is a constant BDD (no symbolic bits)."""
        return all(a <= TRUE and b <= TRUE for a, b in self.bits)

    def is_fully_known(self) -> bool:
        """True when no bit can ever be X or Z."""
        return all(b == FALSE for _, b in self.bits)

    def concrete_summary(self) -> Tuple[int, int]:
        """``(known_mask, value)`` summary of the concrete-known bits.

        Bit *i* of ``known_mask`` is set iff bit *i* is concrete-known —
        a constant 0 or 1 on both rails (``b == FALSE`` and ``a`` a
        terminal).  ``value`` holds the integer value of exactly those
        bits (zero elsewhere).  The word-level fast path in
        :mod:`repro.fourval.ops` dispatches on this summary.

        Cached on first use; constructors and structural operations
        carry it incrementally where they can, so steady-state concrete
        traffic never rescans the rails.
        """
        summary = self._summary
        if summary is None:
            mask = 0
            value = 0
            pos = 1
            for a, b in self.bits:
                if b == FALSE and a <= TRUE:
                    mask |= pos
                    if a == TRUE:
                        value |= pos
                pos <<= 1
            summary = (mask, value)
            self._summary = summary
        return summary

    def known_int(self) -> Optional[int]:
        """The raw unsigned integer value iff *every* bit is
        concrete-known, else ``None``.  (Signedness is the caller's
        concern — this is the fast-path dispatch test.)"""
        summary = self._summary
        if summary is None:
            summary = self.concrete_summary()
        mask, value = summary
        if mask == (1 << len(self.bits)) - 1:
            return value
        return None

    def has_xz(self) -> int:
        """BDD condition: *some* bit of this vector is X or Z."""
        return self.mgr.or_all(b for _, b in self.bits)

    def known(self) -> int:
        """BDD condition: *every* bit is 0 or 1."""
        return self.mgr.not_(self.has_xz())

    def to_int(self) -> int:
        """Convert a constant, fully-known vector to a Python int.

        Raises :class:`FourValueError` if any bit is symbolic or X/Z.
        Signed vectors convert via two's complement.
        """
        summary = self._summary
        if summary is not None and summary[0] == (1 << len(self.bits)) - 1:
            value = summary[1]
            return to_signed(value, self.width) if self.signed else value
        value = 0
        for i, (a, b) in enumerate(self.bits):
            if b != FALSE or a > TRUE:
                raise FourValueError(
                    "vector is not a known constant "
                    f"(bit {i} is {'symbolic' if a > TRUE or b > TRUE else 'x/z'})"
                )
            if a == TRUE:
                value |= 1 << i
        return to_signed(value, self.width) if self.signed else value

    def to_int_or_none(self) -> Optional[int]:
        """Like :meth:`to_int` but returning ``None`` instead of raising."""
        try:
            return self.to_int()
        except FourValueError:
            return None

    def to_verilog_bits(self) -> str:
        """Render a constant vector as an MSB-first 0/1/x/z string."""
        chars = []
        for a, b in reversed(self.bits):
            if a > TRUE or b > TRUE:
                raise FourValueError("vector is symbolic")
            chars.append(_PAIR_TO_CHAR[(a, b)])
        return "".join(chars)

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------

    def as_signed(self, signed: bool = True) -> "FourVec":
        """Same bits with the given signedness."""
        if signed == self.signed:
            return self
        result = FourVec(self.mgr, self.bits, signed)
        result._summary = self._summary
        return result

    def remap(self, lookup) -> "FourVec":
        """Rebuild with every rail id passed through ``lookup``.

        Used by the BDD garbage collector's root-provider protocol:
        after an arena compaction or in-place reorder, every held node
        id must be translated to its new value.
        """
        result = FourVec(
            self.mgr, [(lookup(a), lookup(b)) for a, b in self.bits],
            self.signed,
        )
        # Terminal ids are stable across compaction/reorder, so the
        # concrete summary survives the remap untouched.
        result._summary = self._summary
        return result

    def resize(self, width: int) -> "FourVec":
        """Truncate or extend to ``width``.

        Extension is sign extension for signed vectors, zero extension
        otherwise — the 1364 context-sizing rule.
        """
        own = len(self.bits)
        if width == own:
            return self
        if width < own:
            result = FourVec(self.mgr, self.bits[:width], self.signed)
            if self._summary is not None:
                mask = (1 << width) - 1
                result._summary = (self._summary[0] & mask,
                                   self._summary[1] & mask)
            return result
        fill = self.bits[-1] if self.signed else BIT_0
        result = FourVec(
            self.mgr, self.bits + (fill,) * (width - own), self.signed
        )
        if self._summary is not None:
            mask, value = self._summary
            ext = ((1 << width) - 1) ^ ((1 << own) - 1)
            if fill == BIT_0:
                result._summary = (mask | ext, value)
            elif mask >> (own - 1) & 1:
                if value >> (own - 1) & 1:
                    result._summary = (mask | ext, value | ext)
                else:
                    result._summary = (mask | ext, value)
            else:
                result._summary = (mask, value)
        return result

    def slice(self, low: int, width: int) -> "FourVec":
        """Constant-index part select ``[low + width - 1 : low]``.

        Out-of-range bits read as X, matching 1364 semantics.
        """
        own = len(self.bits)
        if 0 <= low and low + width <= own:
            bits: List[BitPair] = list(self.bits[low:low + width])
        else:
            bits = [self.bits[i] if 0 <= i < own else BIT_X
                    for i in range(low, low + width)]
        result = FourVec(self.mgr, bits)
        if self._summary is not None and low >= 0:
            mask = (1 << width) - 1
            result._summary = ((self._summary[0] >> low) & mask,
                               (self._summary[1] >> low) & mask)
        return result

    def concat(self, other: "FourVec") -> "FourVec":
        """Concatenation ``{self, other}`` (``other`` is the LSB part)."""
        result = FourVec(self.mgr, other.bits + self.bits)
        if self._summary is not None and other._summary is not None:
            shift = other.width
            result._summary = (
                other._summary[0] | (self._summary[0] << shift),
                other._summary[1] | (self._summary[1] << shift),
            )
        return result

    def replicate(self, count: int) -> "FourVec":
        """Replication ``{count{self}}``."""
        if count < 1:
            raise FourValueError(f"invalid replication count {count}")
        result = FourVec(self.mgr, self.bits * count)
        if self._summary is not None:
            mask, value = self._summary
            rmask = rvalue = 0
            for i in range(count):
                rmask |= mask << (i * self.width)
                rvalue |= value << (i * self.width)
            result._summary = (rmask, rvalue)
        return result

    # ------------------------------------------------------------------
    # merge / change — the primitives the kernel is built from
    # ------------------------------------------------------------------

    def ite(self, control: int, other: "FourVec") -> "FourVec":
        """Per-bit ``ite(control, self, other)``.

        This is the paper's fundamental guarded-assignment operator:
        ``new = ite(control, rhs, old)`` (Section 3.2).  Widths must
        match.
        """
        if self.width != other.width:
            raise FourValueError(
                f"ite width mismatch: {self.width} vs {other.width}"
            )
        if control == TRUE:
            return self
        if control == FALSE:
            return other
        mgr = self.mgr
        bits = [
            (mgr.ite(control, a1, a2), mgr.ite(control, b1, b2))
            for (a1, b1), (a2, b2) in zip(self.bits, other.bits)
        ]
        return FourVec(mgr, bits, self.signed)

    def change_condition(self, other: "FourVec") -> int:
        """BDD condition under which ``self`` differs from ``other``.

        Used to decide, symbolically, whether an assignment generated a
        value-change event on a net (DESIGN.md "Event controls").
        """
        if self.width != other.width:
            raise FourValueError(
                f"change width mismatch: {self.width} vs {other.width}"
            )
        mgr = self.mgr
        diffs = []
        for (a1, b1), (a2, b2) in zip(self.bits, other.bits):
            diffs.append(mgr.or_(mgr.xor(a1, a2), mgr.xor(b1, b2)))
        return mgr.or_all(diffs)

    def substitute(self, assignment: Dict[int, bool]) -> "FourVec":
        """Cofactor every rail under a partial variable assignment.

        Used when concretizing an error-trace witness (Section 5).
        """
        mgr = self.mgr
        bits = [
            (mgr.restrict_many(a, assignment), mgr.restrict_many(b, assignment))
            for a, b in self.bits
        ]
        return FourVec(mgr, bits, self.signed)

    def truthy(self) -> int:
        """BDD condition under which this value is *true* in Verilog.

        Per 1364, a condition is true iff it compares unequal to zero
        with a *known* result — i.e. at least one bit is a known 1.
        An all-X value is not true (the else branch runs).
        """
        mgr = self.mgr
        return mgr.or_all(mgr.and_(a, mgr.not_(b)) for a, b in self.bits)
