"""Verilog integer semantics on raw unsigned words (IEEE 1364-2001 §4).

This module is the one definition of what an operator computes on
fully known operands.  The tier-A word dispatch of
:mod:`repro.fourval.ops` and the compiled word twins of
:mod:`repro.compile.expr` both call it; no BDD and no ``FourVec``
appear here.

A *word* is the raw unsigned contents of a vector: an ``int`` in
``[0, 2**width)``.  Signedness is a separate flag, as in a
``FourVec``.  Every operator function returns an ``int`` congruent to
its result modulo ``2**width`` (callers mask it to the width they
store), or ``None`` where 1364 gives all X.  The signatures are:

* binary: ``fn(a, b, width, signed)`` — ``a`` and ``b`` are operand
  words already sized to ``width``, except the shift amount and the
  logical operands, which are self-determined;
* unary and reduction: ``fn(a, width)``.

``===``/``!==`` and ``==``/``!=`` agree on known words, as do the
``casez``/``casex`` wildcards, which a known word cannot contain.
"""

from __future__ import annotations

from typing import Optional


def to_signed(value: int, width: int) -> int:
    """Two's-complement reading of a ``width``-bit word."""
    if value >> (width - 1):
        return value - (1 << width)
    return value


def resize(value: int, width: int, signed: bool, ctx_width: int) -> int:
    """A ``width``-bit word truncated or extended to ``ctx_width`` bits.

    Extension copies the sign bit of a signed word and zero-fills an
    unsigned one, like ``FourVec.resize``.
    """
    if ctx_width <= width:
        return value & ((1 << ctx_width) - 1)
    if signed and value >> (width - 1):
        return value | ((1 << ctx_width) - (1 << width))
    return value


# Arithmetic and bitwise: fn(a, b, width, signed).

def add(a, b, width, signed): return a + b
def sub(a, b, width, signed): return a - b
def mul(a, b, width, signed): return a * b
def and_(a, b, width, signed): return a & b
def or_(a, b, width, signed): return a | b
def xor(a, b, width, signed): return a ^ b
def xnor(a, b, width, signed): return ~(a ^ b)


def trunc_div(a: int, b: int) -> int:
    """Integer quotient rounded toward zero (``b`` nonzero)."""
    quo = abs(a) // abs(b)
    return -quo if (a < 0) != (b < 0) else quo


def trunc_mod(a: int, b: int) -> int:
    """Remainder with the sign of ``a`` (``b`` nonzero)."""
    rem = abs(a) % abs(b)
    return -rem if a < 0 else rem


def div(a: int, b: int, width: int, signed: bool) -> Optional[int]:
    """Quotient rounded toward zero; a zero divisor gives all X."""
    if not b:
        return None
    if signed:
        return trunc_div(to_signed(a, width), to_signed(b, width))
    return a // b


def mod(a: int, b: int, width: int, signed: bool) -> Optional[int]:
    """Remainder with the sign of ``a``; a zero divisor gives all X."""
    if not b:
        return None
    if signed:
        return trunc_mod(to_signed(a, width), to_signed(b, width))
    return a % b


def power(a: int, b: int, width: int, signed: bool) -> int:
    """``a ** b`` with both words read as unsigned, like ``ops.power``."""
    return pow(a, b, 1 << width)


# Compare: fn(a, b, width, signed) -> 0 or 1.

def lt(a: int, b: int, width: int, signed: bool) -> int:
    """``a < b``, on two's-complement readings when ``signed``."""
    if signed:
        a, b = to_signed(a, width), to_signed(b, width)
    return 1 if a < b else 0


def eq(a, b, width, signed): return 1 if a == b else 0
def ne(a, b, width, signed): return 1 if a != b else 0
def le(a, b, width, signed): return 1 - lt(b, a, width, signed)
def gt(a, b, width, signed): return lt(b, a, width, signed)
def ge(a, b, width, signed): return 1 - lt(a, b, width, signed)


# Shifts: fn(a, amount, width, signed); the amount is unsigned.

def shl(a, amount, width, signed): return a << amount if amount < width else 0
def shr(a, amount, width, signed): return a >> amount


def ashr(a: int, amount: int, width: int, signed: bool) -> int:
    """``>>>`` fills with the sign bit only when ``a`` is signed
    (1364-2001 §4.1.12); on an unsigned word it is ``>>``."""
    if signed:
        return to_signed(a, width) >> amount
    return a >> amount


# Logical: fn(a, b, width, signed), both operands self-determined.

def land(a, b, width, signed): return 1 if a and b else 0
def lor(a, b, width, signed): return 1 if a or b else 0


# Unary and reduction: fn(a, width).

def neg(a, width): return -a
def invert(a, width): return ~a
def lnot(a, width): return 0 if a else 1
def reduce_and(a, width): return 1 if a == (1 << width) - 1 else 0
def reduce_or(a, width): return 1 if a else 0
def reduce_xor(a, width): return bin(a).count("1") & 1
def reduce_nand(a, width): return 1 - reduce_and(a, width)
def reduce_nor(a, width): return 0 if a else 1
def reduce_xnor(a, width): return 1 - reduce_xor(a, width)


#: Binary operator token -> word function (the compiled twins' dispatch).
BINARY = {
    "+": add, "-": sub, "*": mul, "/": div, "%": mod, "**": power,
    "&": and_, "|": or_, "^": xor, "~^": xnor, "^~": xnor,
    "==": eq, "!=": ne, "===": eq, "!==": ne,
    "<": lt, "<=": le, ">": gt, ">=": ge,
    "<<": shl, ">>": shr, ">>>": ashr, "&&": land, "||": lor,
}

#: Unary and reduction operator token -> word function.
UNARY = {
    "-": neg, "~": invert, "!": lnot,
    "&": reduce_and, "|": reduce_or, "^": reduce_xor,
    "~&": reduce_nand, "~|": reduce_nor, "~^": reduce_xnor, "^~": reduce_xnor,
}
