"""IEEE-1364 operator semantics over :class:`FourVec`.

Every function here is pure: it takes vectors, returns a new vector (or
a raw BDD for predicates) and never mutates its inputs.  X/Z handling
follows the standard's pessimism rules:

* bitwise ops use the 4-valued truth tables (``0 & x = 0``,
  ``1 & x = x``, Z reads as X),
* arithmetic and relational ops produce all-X / X when any operand bit
  can be X or Z (guarded per-condition, not globally: a vector that is
  X/Z only under BDD condition ``c`` poisons the result only under
  ``c``),
* ``===``/``!==`` compare literally and always produce a known bit,
* the conditional operator merges branches bitwise when the selector
  is X.

Binary operators require pre-sized equal-width operands; the expression
compiler (``repro.compile.expr``) implements the 1364 context-sizing
rules and calls :meth:`FourVec.resize` before dispatching here.

Two-tier evaluation (docs/PERFORMANCE.md)
-----------------------------------------

Most of a real RTL run is concrete — testbench counters, literals,
resolved nets — so every operator first consults the vectors' cached
concrete summaries (:meth:`FourVec.concrete_summary`):

* **word level**: both operands fully concrete-known → one call into
  :mod:`repro.fourval.word`, no BDD calls at all (``mgr._fp_word``).
  That module is the one home of Verilog's integer semantics: the
  compiled tier's word twins call the same functions;
* **symbolic fallback**: the per-bit BDD path (``mgr._fp_sym``).  With
  fast paths on, ``& | ^``, ``===``/``!==``, two-valued ``==``/``!=``
  and the adder behind ``+ -`` build their rails with fused chains
  (closed-form dual rails, one difference chain, a majority carry),
  a shift by a known amount rearranges the rails once, and
  X-poisoned operators run on care-set operands; the generic chains
  stay as the oracle.

Every fast-path result is bit-identical to the fallback path: a fused
chain builds the same canonical function with fewer operations, and
constant operand bits reduce to the same terminal nodes inside the
manager either way.  Setting ``mgr.fastpath = False``
(``SimOptions.no_fastpath`` / ``--no-fastpath``) disables all of them
for differential testing.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.bdd import FALSE, TRUE, BddManager
from repro.errors import FourValueError
from repro.fourval import word
from repro.fourval.vector import BIT_X, BitPair, FourVec


def _check_same_width(x: FourVec, y: FourVec, op: str) -> None:
    if x.width != y.width:
        raise FourValueError(
            f"{op}: operand width mismatch {x.width} vs {y.width} "
            "(the expression compiler should have resized)"
        )


def _tier_a(fn: Callable, x: FourVec, y: Optional[FourVec], width: int,
            signed: bool = False, result_signed: bool = False
            ) -> Optional[FourVec]:
    """The word level: ``fn`` from :mod:`repro.fourval.word` on fully
    known operands, as a ``width``-bit constant (all X where ``fn``
    gives ``None``).  ``y`` is ``None`` for a unary ``fn``.

    Returns ``None`` with fast paths off, or when an operand is not
    fully known, after counting the op as symbolic.
    """
    mgr = x.mgr
    if not mgr.fastpath:
        return None
    a = x.known_int()
    if a is not None and y is None:
        value = fn(a, x.width)
    elif a is not None and (b := y.known_int()) is not None:
        value = fn(a, b, x.width, signed)
    else:
        mgr._fp_sym += 1
        return None
    mgr._fp_word += 1
    if value is None:
        return FourVec(mgr, (BIT_X,) * width, result_signed)
    return FourVec.from_int(mgr, value, width, result_signed)


def _known0(mgr: BddManager, bit: BitPair) -> int:
    """BDD: this bit is a known 0."""
    a, b = bit
    return mgr.nor(a, b)


def _known1(mgr: BddManager, bit: BitPair) -> int:
    """BDD: this bit is a known 1."""
    a, b = bit
    return mgr.and_(a, mgr.not_(b))


def _make_tristate(mgr: BddManager, is1: int, is0: int) -> BitPair:
    """Encode a 3-valued bit from disjoint is-1 / is-0 conditions.

    Anywhere neither holds, the bit is X.
    """
    b = mgr.nor(is1, is0)
    a = mgr.or_(is1, b)
    return a, b


# ----------------------------------------------------------------------
# bitwise operators
# ----------------------------------------------------------------------


def bitwise_not(x: FourVec) -> FourVec:
    """``~x`` — 4-valued inversion (X/Z stay X)."""
    mgr = x.mgr
    known = _tier_a(word.invert, x, None, x.width)
    if known is not None:
        return known
    bits = [(mgr.or_(b, mgr.not_(a)), b) for a, b in x.bits]
    # Z must become X, not Z: force the a-rail high wherever b is set —
    # done above — and normalize b unchanged (Z and X share b=1; with
    # a=1 both map to X).
    return FourVec(mgr, bits)


def _and_bit(mgr: BddManager, bx: BitPair, by: BitPair) -> BitPair:
    is0 = mgr.or_(_known0(mgr, bx), _known0(mgr, by))
    is1 = mgr.and_(_known1(mgr, bx), _known1(mgr, by))
    return _make_tristate(mgr, is1, is0)


def _or_bit(mgr: BddManager, bx: BitPair, by: BitPair) -> BitPair:
    is1 = mgr.or_(_known1(mgr, bx), _known1(mgr, by))
    is0 = mgr.and_(_known0(mgr, bx), _known0(mgr, by))
    return _make_tristate(mgr, is1, is0)


def _xor_bit(mgr: BddManager, bx: BitPair, by: BitPair) -> BitPair:
    known = mgr.nor(bx[1], by[1])
    value = mgr.xor(bx[0], by[0])
    is1 = mgr.and_(known, value)
    is0 = mgr.and_(known, mgr.not_(value))
    return _make_tristate(mgr, is1, is0)


# Fused rails: the closed forms of _and_bit/_or_bit/_xor_bit, built
# straight from the operand rails without the known-0/known-1
# complement copies (this package has no complement edges, so each
# ``not_`` builds a BDD of its own).  A bit is "a = 0" exactly where it
# is a known 0 and "b = 1" exactly where it is X/Z.  Two-valued
# operands give a two-valued result.  The fast path uses these on
# every bit; the oracle (fast paths off) keeps the generic chains
# above.


def _and_fused(mgr: BddManager, bx: BitPair, by: BitPair) -> BitPair:
    (ax, xx), (ay, xy) = bx, by
    if xx == FALSE and xy == FALSE:
        return mgr.and_(ax, ay), FALSE
    # not a known 0 on either side; X unless both are known 1s
    a = mgr.and_(mgr.or_(ax, xx), mgr.or_(ay, xy))
    return a, mgr.and_(a, mgr.or_(xx, xy))


def _or_fused(mgr: BddManager, bx: BitPair, by: BitPair) -> BitPair:
    (ax, xx), (ay, xy) = bx, by
    if xx == FALSE and xy == FALSE:
        return mgr.or_(ax, ay), FALSE
    # not a known 0 on both sides; X unless either is a known 1
    a = mgr.or_(mgr.or_(ax, xx), mgr.or_(ay, xy))
    is1 = mgr.or_(_known1(mgr, bx), _known1(mgr, by))
    return a, mgr.and_(a, mgr.not_(is1))


def _xor_fused(mgr: BddManager, bx: BitPair, by: BitPair) -> BitPair:
    (ax, xx), (ay, xy) = bx, by
    if xx == FALSE and xy == FALSE:
        return mgr.xor(ax, ay), FALSE
    b = mgr.or_(xx, xy)
    return mgr.or_(b, mgr.xor(ax, ay)), b


def _bitwise_binary(x: FourVec, y: FourVec, word_fn: Callable,
                    fused: Callable, generic: Callable,
                    name: str) -> FourVec:
    """``x name y``: the word level on known operands, else ``fused``
    (fast paths on) or ``generic`` rails on every bit."""
    _check_same_width(x, y, name)
    known = _tier_a(word_fn, x, y, x.width)
    if known is not None:
        return known
    mgr = x.mgr
    bit_op = fused if mgr.fastpath else generic
    return FourVec(mgr, [bit_op(mgr, bx, by) for bx, by in zip(x.bits, y.bits)])


def bitwise_and(x: FourVec, y: FourVec) -> FourVec:
    """``x & y``."""
    return _bitwise_binary(x, y, word.and_, _and_fused, _and_bit, "&")


def bitwise_or(x: FourVec, y: FourVec) -> FourVec:
    """``x | y``."""
    return _bitwise_binary(x, y, word.or_, _or_fused, _or_bit, "|")


def bitwise_xor(x: FourVec, y: FourVec) -> FourVec:
    """``x ^ y``."""
    return _bitwise_binary(x, y, word.xor, _xor_fused, _xor_bit, "^")


def bitwise_xnor(x: FourVec, y: FourVec) -> FourVec:
    """``x ~^ y``."""
    return bitwise_not(bitwise_xor(x, y))


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------


def reduce_and(x: FourVec) -> FourVec:
    """``&x`` — 1 iff all bits known 1, 0 if any bit known 0, else X."""
    mgr = x.mgr
    known = _tier_a(word.reduce_and, x, None, 1)
    if known is not None:
        return known
    is1 = mgr.and_all(_known1(mgr, bit) for bit in x.bits)
    is0 = mgr.or_all(_known0(mgr, bit) for bit in x.bits)
    return FourVec(mgr, [_make_tristate(mgr, is1, is0)])


def reduce_or(x: FourVec) -> FourVec:
    """``|x``."""
    mgr = x.mgr
    known = _tier_a(word.reduce_or, x, None, 1)
    if known is not None:
        return known
    is1 = mgr.or_all(_known1(mgr, bit) for bit in x.bits)
    is0 = mgr.and_all(_known0(mgr, bit) for bit in x.bits)
    return FourVec(mgr, [_make_tristate(mgr, is1, is0)])


def reduce_xor(x: FourVec) -> FourVec:
    """``^x`` — X if any bit is X/Z, else parity."""
    mgr = x.mgr
    known = _tier_a(word.reduce_xor, x, None, 1)
    if known is not None:
        return known
    any_xz = x.has_xz()
    parity = FALSE
    for a, _ in x.bits:
        parity = mgr.xor(parity, a)
    is1 = mgr.and_(mgr.not_(any_xz), parity)
    is0 = mgr.and_(mgr.not_(any_xz), mgr.not_(parity))
    return FourVec(mgr, [_make_tristate(mgr, is1, is0)])


def reduce_nand(x: FourVec) -> FourVec:
    """``~&x``."""
    return bitwise_not(reduce_and(x))


def reduce_nor(x: FourVec) -> FourVec:
    """``~|x``."""
    return bitwise_not(reduce_or(x))


def reduce_xnor(x: FourVec) -> FourVec:
    """``~^x``."""
    return bitwise_not(reduce_xor(x))


# ----------------------------------------------------------------------
# logical operators (3-valued truth)
# ----------------------------------------------------------------------


def _truth_conditions(x: FourVec) -> Tuple[int, int]:
    """Return BDDs (is-true, is-false) for a value used as a condition.

    True: some bit is a known 1.  False: every bit is a known 0.
    Anything else is unknown.
    """
    mgr = x.mgr
    is_true = x.truthy()
    is_false = mgr.and_all(_known0(mgr, bit) for bit in x.bits)
    return is_true, is_false


def logical_not(x: FourVec) -> FourVec:
    """``!x``."""
    mgr = x.mgr
    known = _tier_a(word.lnot, x, None, 1)
    if known is not None:
        return known
    is_true, is_false = _truth_conditions(x)
    return FourVec(mgr, [_make_tristate(mgr, is_false, is_true)])


def logical_and(x: FourVec, y: FourVec) -> FourVec:
    """``x && y`` (short-circuit pessimism per 1364)."""
    mgr = x.mgr
    known = _tier_a(word.land, x, y, 1)
    if known is not None:
        return known
    tx, fx = _truth_conditions(x)
    ty, fy = _truth_conditions(y)
    is1 = mgr.and_(tx, ty)
    is0 = mgr.or_(fx, fy)
    return FourVec(mgr, [_make_tristate(mgr, is1, is0)])


def logical_or(x: FourVec, y: FourVec) -> FourVec:
    """``x || y``."""
    mgr = x.mgr
    known = _tier_a(word.lor, x, y, 1)
    if known is not None:
        return known
    tx, fx = _truth_conditions(x)
    ty, fy = _truth_conditions(y)
    is1 = mgr.or_(tx, ty)
    is0 = mgr.and_(fx, fy)
    return FourVec(mgr, [_make_tristate(mgr, is1, is0)])


# ----------------------------------------------------------------------
# equality / relational
# ----------------------------------------------------------------------


def equal(x: FourVec, y: FourVec) -> FourVec:
    """``x == y`` — X when the comparison cannot be decided."""
    _check_same_width(x, y, "==")
    known = _tier_a(word.eq, x, y, 1)
    if known is not None:
        return known
    mgr = x.mgr
    if mgr.fastpath and all(bx[1] == FALSE and by[1] == FALSE
                            for bx, by in zip(x.bits, y.bits)):
        # Two-valued operands: every ``both_known`` below is TRUE, so
        # the tristate reduces to (¬diff, FALSE) — one chain.
        diff = FALSE
        for (ax, _), (ay, _) in zip(x.bits, y.bits):
            diff = mgr.or_(diff, mgr.xor(ax, ay))
        return FourVec(mgr, [(mgr.not_(diff), FALSE)])
    definite_diff = FALSE
    all_known_equal = TRUE
    for bx, by in zip(x.bits, y.bits):
        both_known = mgr.nor(bx[1], by[1])
        diff = mgr.xor(bx[0], by[0])
        definite_diff = mgr.or_(definite_diff, mgr.and_(both_known, diff))
        all_known_equal = mgr.and_(
            all_known_equal, mgr.and_(both_known, mgr.not_(diff))
        )
    return FourVec(mgr, [_make_tristate(mgr, all_known_equal, definite_diff)])


def not_equal(x: FourVec, y: FourVec) -> FourVec:
    """``x != y``."""
    return logical_not(equal(x, y))


def case_equal(x: FourVec, y: FourVec) -> FourVec:
    """``x === y`` — literal 4-valued match, always a known result."""
    _check_same_width(x, y, "===")
    known = _tier_a(word.eq, x, y, 1)
    if known is not None:
        return known
    mgr = x.mgr
    if mgr.fastpath:
        # One chain: the vectors differ where any rail differs.
        diff = FALSE
        for (ax, xx), (ay, xy) in zip(x.bits, y.bits):
            diff = mgr.or_(diff, mgr.or_(mgr.xor(ax, ay), mgr.xor(xx, xy)))
        return FourVec(mgr, [(mgr.not_(diff), FALSE)])
    match = TRUE
    for bx, by in zip(x.bits, y.bits):
        match = mgr.and_(
            match, mgr.and_(mgr.xnor(bx[0], by[0]), mgr.xnor(bx[1], by[1]))
        )
    return FourVec(mgr, [(match, FALSE)])


def case_not_equal(x: FourVec, y: FourVec) -> FourVec:
    """``x !== y``."""
    mgr = x.mgr
    match = case_equal(x, y).bits[0][0]
    return FourVec(mgr, [(mgr.not_(match), FALSE)])


def casez_match(expr: FourVec, item: FourVec) -> int:
    """BDD: ``casez`` item match (Z is a wildcard on either side)."""
    return _wildcard_match(expr, item, z_wild=True, x_wild=False)


def casex_match(expr: FourVec, item: FourVec) -> int:
    """BDD: ``casex`` item match (X and Z are wildcards on either side)."""
    return _wildcard_match(expr, item, z_wild=True, x_wild=True)


def _wildcard_match(
    expr: FourVec, item: FourVec, z_wild: bool, x_wild: bool
) -> int:
    _check_same_width(expr, item, "case-match")
    # Fully-known operands contain no Z/X, so no wildcard can fire.
    known = _tier_a(word.eq, expr, item, 1)
    if known is not None:
        return known.bits[0][0]
    mgr = expr.mgr
    match = TRUE
    for be, bi in zip(expr.bits, item.bits):
        if x_wild:
            wild = mgr.or_(be[1], bi[1])
        elif z_wild:
            is_z_e = mgr.and_(mgr.not_(be[0]), be[1])
            is_z_i = mgr.and_(mgr.not_(bi[0]), bi[1])
            wild = mgr.or_(is_z_e, is_z_i)
        else:
            wild = FALSE
        bits_same = mgr.and_(mgr.xnor(be[0], bi[0]), mgr.xnor(be[1], bi[1]))
        match = mgr.and_(match, mgr.or_(wild, bits_same))
    return match


def _unsigned_less_than(x: FourVec, y: FourVec) -> int:
    """BDD: x < y on the a-rails (caller handles X/Z poisoning)."""
    mgr = x.mgr
    lt = FALSE
    eq_above = TRUE
    for bx, by in zip(reversed(x.bits), reversed(y.bits)):
        here = mgr.and_(mgr.not_(bx[0]), by[0])
        lt = mgr.or_(lt, mgr.and_(eq_above, here))
        eq_above = mgr.and_(eq_above, mgr.xnor(bx[0], by[0]))
    return lt


def _signed_flip(x: FourVec) -> FourVec:
    """Invert the sign bit so unsigned compare implements signed compare."""
    mgr = x.mgr
    a, b = x.bits[-1]
    return FourVec(mgr, x.bits[:-1] + ((mgr.not_(a), b),), x.signed)


def less_than(x: FourVec, y: FourVec) -> FourVec:
    """``x < y`` — signed iff both operands are signed (1364 rule)."""
    _check_same_width(x, y, "<")
    mgr = x.mgr
    signed = x.signed and y.signed
    known = _tier_a(word.lt, x, y, 1, signed)
    if known is not None:
        return known
    if signed:
        x, y = _signed_flip(x), _signed_flip(y)
    known = mgr.and_(x.known(), y.known())
    care = _care_operands(mgr, known if mgr.fastpath else TRUE, (x, y))
    if care is None:
        return FourVec(mgr, [BIT_X])
    lt = _unsigned_less_than(*care)
    is1 = mgr.and_(known, lt)
    is0 = mgr.and_(known, mgr.not_(lt))
    return FourVec(mgr, [_make_tristate(mgr, is1, is0)])


def greater_than(x: FourVec, y: FourVec) -> FourVec:
    """``x > y``."""
    return less_than(y, x)


def less_equal(x: FourVec, y: FourVec) -> FourVec:
    """``x <= y``."""
    return logical_not(less_than(y, x))


def greater_equal(x: FourVec, y: FourVec) -> FourVec:
    """``x >= y``."""
    return logical_not(less_than(x, y))


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------


def _care_operands(
    mgr: BddManager, care: int, operands: Tuple[FourVec, ...]
) -> Optional[Tuple[FourVec, ...]]:
    """``operands`` with their a-rails simplified to the care set ``care``.

    ``care`` is where the caller's result is not already X.  Outside it
    the result is X whatever the a-rails compute, so each a-rail is
    replaced by its generalized cofactor (:meth:`BddManager.constrain`,
    whose memo all rails share): it agrees with the original wherever
    ``care`` holds, and a chain of pointwise Boolean operators run on
    the replacements therefore builds the same function there — the
    same canonical node once the caller masks the X region back in —
    while skipping the work the X region would have cost.  Returns the
    operands unchanged when ``care`` is TRUE and ``None`` when it is
    FALSE (the result is all-X; nothing needs computing).
    """
    if care == TRUE:
        return operands
    if care == FALSE:
        return None
    constrain = mgr.constrain
    return tuple(
        FourVec(mgr, [(constrain(a, care), b) for a, b in v.bits], v.signed)
        for v in operands
    )


def _poisoned(
    mgr: BddManager,
    xz: int,
    operands: Tuple[FourVec, ...],
    rails_of: Callable[..., List[int]],
    signed: bool,
) -> FourVec:
    """An operator whose whole result is X wherever ``xz`` holds.

    ``rails_of(*operands)`` computes the 2-valued result a-rails from
    the operands' a-rails; the result forces all-X where ``xz`` holds.
    With fast paths on, the operands are first simplified to the care
    set ``¬xz`` (:func:`_care_operands`); with them off (the oracle)
    the chain runs on the raw operands.  Where ``xz`` is FALSE both
    run the same operations.
    """
    care = mgr.not_(xz) if mgr.fastpath and xz != FALSE else TRUE
    simplified = _care_operands(mgr, care, operands)
    if simplified is None:
        return FourVec(mgr, (BIT_X,) * operands[0].width, signed)
    bits = [(mgr.or_(xz, a), xz) for a in rails_of(*simplified)]
    return FourVec(mgr, bits, signed)


def _add_rails(
    mgr: BddManager, x: FourVec, y: FourVec, carry_in: int
) -> List[int]:
    rails: List[int] = []
    carry = carry_in
    if mgr.fastpath:
        # Majority carry: where a and b agree the carry is their value,
        # elsewhere it propagates.  Same sums, no and/or carry terms.
        for (a, _), (b, _) in zip(x.bits, y.bits):
            t = mgr.xor(a, b)
            rails.append(mgr.xor(t, carry))
            carry = mgr.ite(t, carry, a)
        return rails
    for bx, by in zip(x.bits, y.bits):
        a, b = bx[0], by[0]
        rails.append(mgr.xor(mgr.xor(a, b), carry))
        carry = mgr.or_(mgr.and_(a, b), mgr.and_(carry, mgr.xor(a, b)))
    return rails


def add(x: FourVec, y: FourVec) -> FourVec:
    """``x + y`` (wrapping at the common width)."""
    _check_same_width(x, y, "+")
    mgr = x.mgr
    signed = x.signed and y.signed
    known = _tier_a(word.add, x, y, x.width, signed, signed)
    if known is not None:
        return known
    xz = mgr.or_(x.has_xz(), y.has_xz())
    return _poisoned(mgr, xz, (x, y),
                     lambda x, y: _add_rails(mgr, x, y, FALSE), signed)


def subtract(x: FourVec, y: FourVec) -> FourVec:
    """``x - y``."""
    _check_same_width(x, y, "-")
    mgr = x.mgr
    signed = x.signed and y.signed
    known = _tier_a(word.sub, x, y, x.width, signed, signed)
    if known is not None:
        return known
    xz = mgr.or_(x.has_xz(), y.has_xz())
    return _poisoned(mgr, xz, (x, y), lambda x, y: _sub_rails(mgr, x, y),
                     signed)


def _sub_rails(mgr: BddManager, x: FourVec, y: FourVec) -> List[int]:
    inverted = FourVec(mgr, [(mgr.not_(a), FALSE) for a, _ in y.bits])
    return _add_rails(mgr, x, inverted, TRUE)


def negate(x: FourVec) -> FourVec:
    """Unary ``-x``."""
    zero = FourVec.from_int(x.mgr, 0, x.width, x.signed)
    return subtract(zero, x)


def multiply(x: FourVec, y: FourVec) -> FourVec:
    """``x * y`` truncated to the common width."""
    _check_same_width(x, y, "*")
    mgr = x.mgr
    signed = x.signed and y.signed
    known = _tier_a(word.mul, x, y, x.width, signed, signed)
    if known is not None:
        return known
    xz = mgr.or_(x.has_xz(), y.has_xz())
    return _poisoned(mgr, xz, (x, y), lambda x, y: _mul_rails(mgr, x, y),
                     signed)


def _mul_rails(mgr: BddManager, x: FourVec, y: FourVec) -> List[int]:
    """Shift-and-add multiplication on the a-rails."""
    width = x.width
    acc = [FALSE] * width
    for shift, (yb, _) in enumerate(y.bits):
        if yb == FALSE:
            continue
        carry = FALSE
        for i in range(shift, width):
            partial = mgr.and_(yb, x.bits[i - shift][0])
            total = mgr.xor(mgr.xor(acc[i], partial), carry)
            carry = mgr.or_(
                mgr.and_(acc[i], partial),
                mgr.and_(carry, mgr.xor(acc[i], partial)),
            )
            acc[i] = total
    return acc


def _divmod_rails(
    mgr: BddManager, x: FourVec, y: FourVec
) -> Tuple[List[int], List[int]]:
    """Restoring division on the a-rails; returns (quotient, remainder)."""
    width = x.width
    rem = [FALSE] * width
    quo = [FALSE] * width
    for i in range(width - 1, -1, -1):
        # remainder <<= 1; remainder[0] = x[i]
        rem = [x.bits[i][0]] + rem[:-1]
        # ge = rem >= y (unsigned)
        ge = TRUE
        lt = FALSE
        for rb, (yb, _) in zip(reversed(rem), reversed(y.bits)):
            lt = mgr.or_(lt, mgr.and_(ge, mgr.and_(mgr.not_(rb), yb)))
            ge = mgr.and_(ge, mgr.xnor(rb, yb))
        ge = mgr.not_(lt)
        quo[i] = ge
        # rem = ge ? rem - y : rem
        borrow = FALSE
        new_rem = []
        for rb, (yb, _) in zip(rem, y.bits):
            diff = mgr.xor(mgr.xor(rb, yb), borrow)
            borrow = mgr.or_(
                mgr.and_(mgr.not_(rb), yb),
                mgr.and_(borrow, mgr.xnor(rb, yb)),
            )
            new_rem.append(diff)
        rem = [mgr.ite(ge, nr, rb) for nr, rb in zip(new_rem, rem)]
    return quo, rem


def _div_xz(mgr: BddManager, x: FourVec, y: FourVec) -> int:
    """Poison condition for division: any X/Z operand or zero divisor."""
    zero_div = mgr.and_all(mgr.not_(a) for a, _ in y.bits)
    return mgr.or_(mgr.or_(x.has_xz(), y.has_xz()), zero_div)


def divide(x: FourVec, y: FourVec) -> FourVec:
    """``x / y`` (unsigned; division by zero yields all X, per 1364).

    Signed division on signed operands negates through the unsigned
    core.
    """
    _check_same_width(x, y, "/")
    mgr = x.mgr
    signed = x.signed and y.signed
    known = _tier_a(word.div, x, y, x.width, signed, signed)
    if known is not None:
        return known
    xz = _div_xz(mgr, x, y)
    if signed:
        return _poisoned(
            mgr, xz, (x, y),
            lambda x, y: _signed_divmod_rails(x, y, want_mod=False), True)
    return _poisoned(mgr, xz, (x, y),
                     lambda x, y: _divmod_rails(mgr, x, y)[0], False)


def modulo(x: FourVec, y: FourVec) -> FourVec:
    """``x % y`` (result takes the sign of the first operand)."""
    _check_same_width(x, y, "%")
    mgr = x.mgr
    signed = x.signed and y.signed
    known = _tier_a(word.mod, x, y, x.width, signed, signed)
    if known is not None:
        return known
    xz = _div_xz(mgr, x, y)
    if signed:
        return _poisoned(
            mgr, xz, (x, y),
            lambda x, y: _signed_divmod_rails(x, y, want_mod=True), True)
    return _poisoned(mgr, xz, (x, y),
                     lambda x, y: _divmod_rails(mgr, x, y)[1], False)


def _signed_divmod_rails(x: FourVec, y: FourVec, want_mod: bool) -> List[int]:
    """Signed quotient or remainder a-rails, negating through the unsigned core."""
    mgr = x.mgr
    sx, sy = x.bits[-1][0], y.bits[-1][0]

    def abs_rails(v: FourVec, sign: int) -> FourVec:
        neg = negate(FourVec(mgr, [(a, FALSE) for a, _ in v.bits]))
        bits = [
            (mgr.ite(sign, na, a), FALSE)
            for (na, _), (a, _) in zip(neg.bits, v.bits)
        ]
        return FourVec(mgr, bits)

    ax, ay = abs_rails(x, sx), abs_rails(y, sy)
    quo, rem = _divmod_rails(mgr, ax, ay)
    if want_mod:
        rails, flip = rem, sx
    else:
        rails, flip = quo, mgr.xor(sx, sy)
    pos = FourVec(mgr, [(a, FALSE) for a in rails])
    neg = negate(pos)
    return [
        mgr.ite(flip, na, a) for (na, _), (a, _) in zip(neg.bits, pos.bits)
    ]


def power(x: FourVec, y: FourVec) -> FourVec:
    """``x ** y`` by square-and-multiply over the exponent bits.

    (A Verilog-2001 operator, supported as a convenience; exponent bits
    beyond 16 are rejected to bound BDD blow-up.)
    """
    _check_same_width(x, y, "**")
    if y.width > 16 and not y.is_constant():
        raise FourValueError("symbolic exponent wider than 16 bits")
    # The generic path runs on the raw a-rails: base and exponent are
    # both treated as unsigned words and the result is unsigned.
    known = _tier_a(word.power, x, y, x.width)
    if known is not None:
        return known
    mgr = x.mgr
    xz = mgr.or_(x.has_xz(), y.has_xz())
    return _poisoned(mgr, xz, (x, y), _power_rails, False)


def _power_rails(x: FourVec, y: FourVec) -> List[int]:
    """Square-and-multiply on the a-rails."""
    mgr = x.mgr
    result = FourVec.from_int(mgr, 1, x.width)
    base = FourVec(mgr, [(a, FALSE) for a, _ in x.bits])
    for yb, _ in y.bits:
        if yb == FALSE:
            base = multiply(base, base)
            continue
        multiplied = multiply(result, base)
        result = multiplied.ite(yb, result)
        base = multiply(base, base)
    return [a for a, _ in result.bits]


# ----------------------------------------------------------------------
# shifts
# ----------------------------------------------------------------------


def _shift(x: FourVec, y: FourVec, fn: Callable, left: bool,
           fill_sign: bool) -> FourVec:
    """A shift of ``x`` by the unsigned amount ``y``; ``fn`` is its
    :mod:`repro.fourval.word` function.  The result is unsigned."""
    width = x.width
    known = _tier_a(fn, x, y, width, x.signed)
    if known is not None:
        return known
    mgr = x.mgr
    amount = y.known_int() if mgr.fastpath else None
    if amount is not None:
        # known shift amount over a symbolic word: positionally
        # rearrange the rails once instead of per-power-of-2 merges
        # (the generic loop's ite(TRUE, s, r) selections compose to
        # exactly this single shift, so the rails are identical).
        return _poisoned(
            mgr, x.has_xz(), (x,),
            lambda x: _shifted_rails([a for a, _ in x.bits], amount,
                                     left, fill_sign), False)
    xz = mgr.or_(x.has_xz(), y.has_xz())
    return _poisoned(mgr, xz, (x, y),
                     lambda x, y: _barrel_rails(x, y, left, fill_sign), False)


def _shifted_rails(rails: List[int], amount: int, left: bool,
                   fill_sign: bool) -> List[int]:
    """``rails`` shifted by a known ``amount``; a right shift fills with
    the top rail when ``fill_sign``, else with zeros."""
    width = len(rails)
    fill = rails[-1] if fill_sign else FALSE
    if amount >= width:
        return [fill] * width
    if not amount:
        return rails
    if left:
        return [FALSE] * amount + rails[: width - amount]
    return rails[amount:] + [fill] * amount


def _barrel_rails(x: FourVec, y: FourVec, left: bool,
                  fill_sign: bool) -> List[int]:
    """Log shifter on the a-rails: one merge stage per amount bit.

    Every stage keeps the top rail (a sign-filling stage fills with
    it), so it stays the sign of ``x`` throughout.
    """
    mgr = x.mgr
    rails = [a for a, _ in x.bits]
    for bit_index, (yb, _) in enumerate(y.bits):
        if yb == FALSE:
            continue
        shifted = _shifted_rails(rails, 1 << bit_index, left, fill_sign)
        rails = [mgr.ite(yb, s, r) for s, r in zip(shifted, rails)]
    return rails


def shift_left(x: FourVec, y: FourVec) -> FourVec:
    """``x << y`` (``y`` self-determined, possibly symbolic)."""
    return _shift(x, y, word.shl, True, False)


def shift_right(x: FourVec, y: FourVec) -> FourVec:
    """``x >> y`` — logical right shift."""
    return _shift(x, y, word.shr, False, False)


def arith_shift_right(x: FourVec, y: FourVec) -> FourVec:
    """``x >>> y`` — sign fill if ``x`` is signed, else zero fill
    (1364-2001 §4.1.12)."""
    return _shift(x, y, word.ashr, False, x.signed)


# ----------------------------------------------------------------------
# conditional operator
# ----------------------------------------------------------------------


def conditional(cond: FourVec, then_v: FourVec, else_v: FourVec) -> FourVec:
    """``cond ? then_v : else_v`` with 1364 X-merge semantics.

    When the selector is X/Z the result is the bitwise merge: bits on
    which the branches agree (and are known) keep their value, all
    others become X.
    """
    _check_same_width(then_v, else_v, "?:")
    mgr = cond.mgr
    selector = cond.known_int() if mgr.fastpath else None
    if selector is not None:
        # A fully-known selector is definitely true or definitely
        # false; the branches may stay symbolic.
        mgr._fp_word += 1
        chosen = then_v if selector else else_v
        return chosen.as_signed(then_v.signed and else_v.signed)
    if mgr.fastpath:
        mgr._fp_sym += 1
    is_true, is_false = _truth_conditions(cond)
    unknown = mgr.nor(is_true, is_false)
    bits: List[BitPair] = []
    for bt, be in zip(then_v.bits, else_v.bits):
        agree = mgr.and_(
            mgr.nor(bt[1], be[1]), mgr.xnor(bt[0], be[0])
        )
        merged_a = mgr.ite(agree, bt[0], TRUE)
        merged_b = mgr.not_(agree)
        a = mgr.ite(is_true, bt[0], mgr.ite(is_false, be[0], merged_a))
        b = mgr.ite(is_true, bt[1], mgr.ite(is_false, be[1], merged_b))
        bits.append((a, b))
    return FourVec(mgr, bits, then_v.signed and else_v.signed)


# ----------------------------------------------------------------------
# net resolution (multiple drivers)
# ----------------------------------------------------------------------


def resolve_wire(x: FourVec, y: FourVec) -> FourVec:
    """Two-driver ``wire``/``tri`` resolution.

    Z yields to the other driver; agreeing known values survive;
    conflicting known values, or any X, produce X.
    """
    _check_same_width(x, y, "wire-resolve")
    mgr = x.mgr
    bits: List[BitPair] = []
    for bx, by in zip(x.bits, y.bits):
        x_is_z = mgr.and_(mgr.not_(bx[0]), bx[1])
        y_is_z = mgr.and_(mgr.not_(by[0]), by[1])
        both_known_same = mgr.and_(
            mgr.nor(bx[1], by[1]), mgr.xnor(bx[0], by[0])
        )
        # Result selection: x if y is Z, y if x is Z, shared value if
        # equal and known, else X.
        a = mgr.ite(
            y_is_z,
            bx[0],
            mgr.ite(x_is_z, by[0], mgr.ite(both_known_same, bx[0], TRUE)),
        )
        b = mgr.ite(
            y_is_z,
            bx[1],
            mgr.ite(x_is_z, by[1], mgr.ite(both_known_same, FALSE, TRUE)),
        )
        bits.append((a, b))
    return FourVec(mgr, bits)


def _driver_states(mgr: BddManager, bit: BitPair):
    """(is0, is1, isz, isx) decomposition of one driver bit."""
    a, b = bit
    is0 = mgr.nor(a, b)
    is1 = mgr.and_(a, mgr.not_(b))
    isz = mgr.and_(mgr.not_(a), b)
    isx = mgr.and_(a, b)
    return is0, is1, isz, isx


def _encode_states(mgr: BddManager, out0: int, out1: int, outz: int) -> BitPair:
    """Encode a bit from disjoint is-0/is-1/is-Z conditions (rest: X)."""
    outx = mgr.not_(mgr.or_(out0, mgr.or_(out1, outz)))
    a = mgr.or_(out1, outx)
    b = mgr.or_(outz, outx)
    return a, b


def resolve_wand(x: FourVec, y: FourVec) -> FourVec:
    """``wand`` net resolution — wired AND (1364 Table 9: 0 dominates)."""
    _check_same_width(x, y, "wand-resolve")
    known = _tier_a(word.and_, x, y, x.width)
    if known is not None:
        return known
    mgr = x.mgr
    bits: List[BitPair] = []
    for bx, by in zip(x.bits, y.bits):
        x0, x1, xz, _ = _driver_states(mgr, bx)
        y0, y1, yz, _ = _driver_states(mgr, by)
        out0 = mgr.or_(x0, y0)
        out1 = mgr.or_all([mgr.and_(x1, y1), mgr.and_(x1, yz),
                           mgr.and_(xz, y1)])
        outz = mgr.and_(xz, yz)
        bits.append(_encode_states(mgr, out0, out1, outz))
    return FourVec(mgr, bits)


def resolve_wor(x: FourVec, y: FourVec) -> FourVec:
    """``wor`` net resolution — wired OR (1 dominates)."""
    _check_same_width(x, y, "wor-resolve")
    known = _tier_a(word.or_, x, y, x.width)
    if known is not None:
        return known
    mgr = x.mgr
    bits: List[BitPair] = []
    for bx, by in zip(x.bits, y.bits):
        x0, x1, xz, _ = _driver_states(mgr, bx)
        y0, y1, yz, _ = _driver_states(mgr, by)
        out1 = mgr.or_(x1, y1)
        out0 = mgr.or_all([mgr.and_(x0, y0), mgr.and_(x0, yz),
                           mgr.and_(xz, y0)])
        outz = mgr.and_(xz, yz)
        bits.append(_encode_states(mgr, out0, out1, outz))
    return FourVec(mgr, bits)


def pull_z(x: FourVec, pull_to_one: bool) -> FourVec:
    """``tri0``/``tri1`` pull: undriven (Z) bits read 0 or 1."""
    mgr = x.mgr
    bits: List[BitPair] = []
    for a, b in x.bits:
        isz = mgr.and_(mgr.not_(a), b)
        if pull_to_one:
            bits.append((mgr.or_(a, isz), mgr.and_(b, mgr.not_(isz))))
        else:
            bits.append((a, mgr.and_(b, mgr.not_(isz))))
    return FourVec(mgr, bits)


# ----------------------------------------------------------------------
# edge detection (1364 Table: posedge/negedge transition sets)
# ----------------------------------------------------------------------


def posedge_condition(old: FourVec, new: FourVec) -> int:
    """BDD: a positive edge occurred on bit 0 between ``old`` and ``new``.

    Per 1364, posedge is any transition 0→1, 0→X/Z, X/Z→1.
    """
    mgr = old.mgr
    o, n = old.bits[0], new.bits[0]
    o0 = _known0(mgr, o)
    o1 = _known1(mgr, o)
    oxz = o[1]
    n1 = _known1(mgr, n)
    nxz = n[1]
    return mgr.or_all(
        [
            mgr.and_(o0, n1),
            mgr.and_(o0, nxz),
            mgr.and_(oxz, n1),
        ]
    )


def negedge_condition(old: FourVec, new: FourVec) -> int:
    """BDD: a negative edge occurred on bit 0 (1→0, 1→X/Z, X/Z→0)."""
    mgr = old.mgr
    o, n = old.bits[0], new.bits[0]
    o1 = _known1(mgr, o)
    oxz = o[1]
    n0 = _known0(mgr, n)
    nxz = n[1]
    return mgr.or_all(
        [
            mgr.and_(o1, n0),
            mgr.and_(o1, nxz),
            mgr.and_(oxz, n0),
        ]
    )
