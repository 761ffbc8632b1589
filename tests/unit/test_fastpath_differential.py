"""Differential tests: fast paths off vs on must be bit-identical.

Every operator in :mod:`repro.fourval.ops` is run twice on the same
manager — once with ``mgr.fastpath`` cleared (generic per-bit BDD
construction) and once with it set (word-level / per-bit shortcut
dispatch).  The arena is hash-consed, so identical functions get
identical node ids: the two results must compare equal *rail by rail*,
including X/Z propagation and signedness.

Operators whose result is all-X once any operand bit is X/Z simplify
their operands to the care set (``BddManager.constrain``) only with the
fast path on; the symbolic and mixed modes reach that branch, and the
tests below check that they do.
"""

import random
import zlib

import pytest

from repro.bdd import FALSE, BddManager
from repro.fourval import FourVec, ops
from repro.fourval.vector import BIT_0, BIT_1, BIT_X, BIT_Z


@pytest.fixture
def m():
    return BddManager()


@pytest.fixture
def constrain_calls(monkeypatch):
    """Count the care-set simplifications the operators ask for."""
    calls = []
    constrain = BddManager.constrain

    def counting(mgr, f, c):
        calls.append(c)
        return constrain(mgr, f, c)

    monkeypatch.setattr(BddManager, "constrain", counting)
    return calls


def seeded(op):
    """An RNG seeded by the operator's name, the same in every process."""
    return random.Random(zlib.crc32(op.__name__.encode()) & 0xFFFF)


CONCRETE_BITS = (BIT_0, BIT_1)
FOURVAL_BITS = (BIT_0, BIT_1, BIT_X, BIT_Z)


def rand_vec(m, rng, width, mode, signed=None):
    """Random vector: concrete / four-valued / part-symbolic / symbolic."""
    if signed is None:
        signed = rng.random() < 0.5
    bits = []
    for _ in range(width):
        r = rng.random()
        if mode == "concrete":
            bits.append(rng.choice(CONCRETE_BITS))
        elif mode == "fourval":
            bits.append(rng.choice(FOURVAL_BITS))
        elif mode == "mixed":
            if r < 0.55:
                bits.append(rng.choice(CONCRETE_BITS))
            elif r < 0.7:
                bits.append(rng.choice(FOURVAL_BITS))
            else:
                a = m.new_var()
                b = m.new_var() if rng.random() < 0.25 else FALSE
                bits.append((a, b))
        else:  # symbolic
            a = m.new_var()
            b = m.new_var() if rng.random() < 0.4 else FALSE
            bits.append((a, b))
    return FourVec(m, bits, signed)


def run_both(m, op, *operands):
    """Evaluate ``op`` with the fast path off then on; return both."""
    m.fastpath = False
    try:
        ref = op(*operands)
    finally:
        m.fastpath = True
    fast = op(*operands)
    return ref, fast


def assert_identical(ref, fast):
    if isinstance(ref, FourVec):
        assert isinstance(fast, FourVec)
        assert ref.bits == fast.bits, "rails differ between paths"
        assert ref.signed == fast.signed, "signedness differs"
    else:  # BDD node id (edge conditions, wildcard matches)
        assert ref == fast


# operator, weight class: 'light' ops run on wide/symbolic inputs too,
# 'heavy' ops (quadratic BDD growth when symbolic) stay narrow.
BINARY_OPS = [
    (ops.bitwise_and, "light"),
    (ops.bitwise_or, "light"),
    (ops.bitwise_xor, "light"),
    (ops.bitwise_xnor, "light"),
    (ops.logical_and, "light"),
    (ops.logical_or, "light"),
    (ops.equal, "light"),
    (ops.not_equal, "light"),
    (ops.case_equal, "light"),
    (ops.case_not_equal, "light"),
    (ops.less_than, "light"),
    (ops.greater_than, "light"),
    (ops.less_equal, "light"),
    (ops.greater_equal, "light"),
    (ops.add, "light"),
    (ops.subtract, "light"),
    (ops.resolve_wire, "light"),
    (ops.resolve_wand, "light"),
    (ops.resolve_wor, "light"),
    (ops.shift_left, "light"),
    (ops.shift_right, "light"),
    (ops.arith_shift_right, "light"),
    (ops.multiply, "heavy"),
    (ops.divide, "heavy"),
    (ops.modulo, "heavy"),
    (ops.power, "heavy"),
]

#: Operators whose whole result is X wherever an operand bit is X/Z.
POISONED_OPS = {
    ops.less_than, ops.greater_than, ops.less_equal, ops.greater_equal,
    ops.add, ops.subtract, ops.shift_left, ops.shift_right,
    ops.arith_shift_right, ops.multiply, ops.divide, ops.modulo,
    ops.power, ops.negate,
}

UNARY_OPS = [
    ops.bitwise_not,
    ops.negate,
    ops.logical_not,
    ops.reduce_and,
    ops.reduce_or,
    ops.reduce_xor,
    ops.reduce_nand,
    ops.reduce_nor,
    ops.reduce_xnor,
]

MODES = ("concrete", "fourval", "mixed", "symbolic")


@pytest.mark.parametrize("op,weight", BINARY_OPS,
                         ids=[op.__name__ for op, _ in BINARY_OPS])
def test_binary_differential(m, constrain_calls, op, weight):
    rng = seeded(op)
    widths = (1, 4, 8) if weight == "light" else (1, 3, 4)
    constrained = {mode: 0 for mode in MODES}
    for width in widths:
        for mode in MODES:
            if weight == "heavy" and mode == "symbolic" and width > 3:
                continue
            for forced_signed in (None, True):
                x = rand_vec(m, rng, width, mode, signed=forced_signed)
                y = rand_vec(m, rng, width, mode, signed=forced_signed)
                before = len(constrain_calls)
                ref, fast = run_both(m, op, x, y)
                assert_identical(ref, fast)
                constrained[mode] += len(constrain_calls) - before
    if op in POISONED_OPS:
        assert constrained["symbolic"]
    assert not constrained["concrete"]


def guarded_vec(m, rng, width, signed):
    """Concrete bits mixed with bits that are X/Z only under a fresh
    variable: the operand shape that leaves a symbolic care set."""
    if signed is None:
        signed = rng.random() < 0.5
    bits = []
    for _ in range(width):
        if rng.random() < 0.5:
            bits.append(rng.choice(CONCRETE_BITS))
        else:
            a = m.new_var() if rng.random() < 0.5 else rng.choice((0, 1))
            bits.append((a, m.new_var()))
    return FourVec(m, bits, signed)


@pytest.mark.parametrize(
    "op,weight", [(op, weight) for op, weight in BINARY_OPS
                  if op in POISONED_OPS],
    ids=[op.__name__ for op, _ in BINARY_OPS if op in POISONED_OPS])
def test_care_set_differential(m, constrain_calls, op, weight):
    """Mixed operands, X/Z under a condition: the constrained chain
    builds the oracle's rails exactly."""
    rng = seeded(op)
    for width in ((1, 4, 8) if weight == "light" else (1, 3)):
        for forced_signed in (None, True):
            for mode in ("mixed", "symbolic"):
                x = guarded_vec(m, rng, width, forced_signed)
                y = (guarded_vec(m, rng, width, forced_signed)
                     if mode == "symbolic" else
                     rand_vec(m, rng, width, "mixed", signed=forced_signed))
                ref, fast = run_both(m, op, x, y)
                assert_identical(ref, fast)
    assert constrain_calls


@pytest.mark.parametrize("op", UNARY_OPS, ids=[op.__name__ for op in UNARY_OPS])
def test_unary_differential(m, constrain_calls, op):
    rng = seeded(op)
    for width in (1, 4, 8):
        for mode in MODES:
            for forced_signed in (None, True):
                x = rand_vec(m, rng, width, mode, signed=forced_signed)
                ref, fast = run_both(m, op, x)
                assert_identical(ref, fast)
    assert bool(constrain_calls) == (op in POISONED_OPS)


def test_shift_narrow_amount_differential(m):
    """Shift amounts narrower than the value (the common RTL shape)."""
    rng = random.Random(81)
    for op in (ops.shift_left, ops.shift_right, ops.arith_shift_right):
        for mode in MODES:
            x = rand_vec(m, rng, 8, mode, signed=(op is ops.arith_shift_right))
            amt = rand_vec(m, rng, 3, "concrete" if mode == "symbolic"
                           else mode, signed=False)
            ref, fast = run_both(m, op, x, amt)
            assert_identical(ref, fast)
    # Overshifting: amount >= width.
    x = rand_vec(m, rng, 4, "fourval")
    big = FourVec.from_int(m, 9, 4)
    for op in (ops.shift_left, ops.shift_right, ops.arith_shift_right):
        ref, fast = run_both(m, op, x, big)
        assert_identical(ref, fast)


def test_divide_modulo_special_cases(m):
    """Division-by-zero and the signed most-negative corner."""
    for signed in (False, True):
        for xv in (0, 1, 7, 8, 15):
            x = FourVec.from_int(m, xv, 4, signed)
            zero = FourVec.from_int(m, 0, 4, signed)
            for op in (ops.divide, ops.modulo):
                ref, fast = run_both(m, op, x, zero)
                assert_identical(ref, fast)
                assert fast.bits == (BIT_X,) * 4
    # -8 / -1 at width 4 wraps back to -8.
    neg8 = FourVec.from_int(m, 8, 4, True)
    neg1 = FourVec.from_int(m, 15, 4, True)
    ref, fast = run_both(m, ops.divide, neg8, neg1)
    assert_identical(ref, fast)
    assert fast.to_int() == -8


def test_conditional_differential(m):
    rng = random.Random(4242)
    for mode_c in MODES:
        for mode_v in MODES:
            cond = rand_vec(m, rng, 1, mode_c, signed=False)
            then_v = rand_vec(m, rng, 4, mode_v)
            else_v = rand_vec(m, rng, 4, mode_v)
            ref, fast = run_both(m, ops.conditional, cond, then_v, else_v)
            assert_identical(ref, fast)


def test_pull_z_differential(m):
    rng = random.Random(55)
    for mode in MODES:
        for pull_to_one in (False, True):
            x = rand_vec(m, rng, 6, mode)
            ref, fast = run_both(
                m, lambda v, p=pull_to_one: ops.pull_z(v, p), x)
            assert_identical(ref, fast)


def test_edge_conditions_differential(m):
    rng = random.Random(1999)
    for mode in MODES:
        for op in (ops.posedge_condition, ops.negedge_condition):
            old = rand_vec(m, rng, 1, mode, signed=False)
            new = rand_vec(m, rng, 1, mode, signed=False)
            ref, fast = run_both(m, op, old, new)
            assert_identical(ref, fast)
    # The classic concrete edges.
    zero = FourVec.from_int(m, 0, 1)
    one = FourVec.from_int(m, 1, 1)
    _, rising = run_both(m, ops.posedge_condition, zero, one)
    _, falling = run_both(m, ops.negedge_condition, one, zero)
    from repro.bdd import TRUE
    assert rising == TRUE and falling == TRUE


def test_wildcard_match_differential(m):
    rng = random.Random(77)
    for mode in MODES:
        expr = rand_vec(m, rng, 4, mode, signed=False)
        item = rand_vec(m, rng, 4, "fourval", signed=False)
        for op in (ops.casez_match, ops.casex_match):
            ref, fast = run_both(m, op, expr, item)
            assert_identical(ref, fast)


#: IEEE 1364 truth tables over the characters 0/1/x/z.
BIT_TRUTH = {
    ops.bitwise_and: lambda x, y: (
        "0" if "0" in (x, y) else "1" if x == y == "1" else "x"),
    ops.bitwise_or: lambda x, y: (
        "1" if "1" in (x, y) else "0" if x == y == "0" else "x"),
    ops.bitwise_xor: lambda x, y: (
        "x" if {x, y} - {"0", "1"} else str(int(x) ^ int(y))),
    ops.case_equal: lambda x, y: "1" if x == y else "0",
    ops.case_not_equal: lambda x, y: "0" if x == y else "1",
    ops.equal: lambda x, y: (
        "x" if {x, y} - {"0", "1"} else "1" if x == y else "0"),
    ops.not_equal: lambda x, y: (
        "x" if {x, y} - {"0", "1"} else "0" if x == y else "1"),
}
FUSED = list(BIT_TRUTH)


@pytest.mark.parametrize("op", FUSED, ids=[op.__name__ for op in FUSED])
def test_fused_bit_operators_on_all_sixteen_pairs(m, op):
    """The fused dual-rail operators against the generic chains and the
    1364 truth table, on every constant pair and on a pair of symbolic
    four-valued bits that ranges over all sixteen at once."""
    truth = BIT_TRUTH[op]
    for bx in FOURVAL_BITS:
        for by in FOURVAL_BITS:
            x, y = FourVec(m, [bx]), FourVec(m, [by])
            ref, fast = run_both(m, op, x, y)
            assert_identical(ref, fast)
            assert fast.to_verilog_bits() == truth(
                x.to_verilog_bits(), y.to_verilog_bits())
    levels = [m.var_count + i for i in range(4)]
    rails = [m.new_var() for _ in levels]
    x, y = FourVec(m, [tuple(rails[:2])]), FourVec(m, [tuple(rails[2:])])
    ref, fast = run_both(m, op, x, y)
    assert_identical(ref, fast)
    for bits in range(16):
        env = {level: bool(bits >> i & 1) for i, level in enumerate(levels)}

        def char(vec):
            bit = tuple(int(m.eval(rail, env)) for rail in vec.bits[0])
            return FourVec(m, [bit]).to_verilog_bits()

        assert char(fast) == truth(char(x), char(y))


@pytest.fixture
def nor_calls(monkeypatch):
    """Count ``nor`` calls: the generic ``==`` chain builds one per bit
    (its ``both_known``), the fused two-valued chain none."""
    calls = []
    nor = BddManager.nor

    def counting(mgr, f, g):
        calls.append((f, g))
        return nor(mgr, f, g)

    monkeypatch.setattr(BddManager, "nor", counting)
    return calls


def two_valued_vec(m, rng, width, symbols):
    """A two-valued vector: each bit a 0/1 constant or a fresh symbol."""
    bits = [(m.new_var(), FALSE) if rng.random() < symbols
            else rng.choice(CONCRETE_BITS) for _ in range(width)]
    return FourVec(m, bits)


@pytest.mark.parametrize("width", range(1, 17))
def test_two_valued_equality_is_the_fused_chain(m, nor_calls, width):
    """Two-valued ``==``/``!=`` on constant/symbol mixes: the fused
    chain builds the oracle's rails and never the generic ``nor``."""
    rng = random.Random(width)
    for symbols in (1.0, 0.5, 0.2):
        x = two_valued_vec(m, rng, width, symbols)
        y = two_valued_vec(m, rng, width, symbols)
        if x.known_int() is not None and y.known_int() is not None:
            y = two_valued_vec(m, rng, width, 1.0)  # keep it symbolic
        # shared bits too: x against a copy with one rail swapped
        z = FourVec(m, x.bits[:-1] + y.bits[-1:])
        for a, b in ((x, y), (x, z), (x, x)):
            for op in (ops.equal, ops.not_equal):
                ref, fast = run_both(m, op, a, b)
                assert_identical(ref, fast)
        m.fastpath = True
        del nor_calls[:]
        ops.equal(x, y)
        assert nor_calls == []


def test_one_xz_rail_takes_the_generic_equality_chain(m, nor_calls):
    """An operand with a single non-FALSE X/Z rail keeps the generic
    chain (one ``nor`` per bit and the tristate's) and still matches
    the oracle."""
    rng = random.Random(7)
    for width in (1, 4, 9):
        x = two_valued_vec(m, rng, width, 1.0)
        y = two_valued_vec(m, rng, width, 0.5)
        bits = list(y.bits)
        bits[rng.randrange(width)] = (m.new_var(), m.new_var())
        y = FourVec(m, bits)
        for a, b in ((x, y), (y, x)):
            for op in (ops.equal, ops.not_equal):
                ref, fast = run_both(m, op, a, b)
                assert_identical(ref, fast)
            del nor_calls[:]
            ops.equal(a, b)
            assert len(nor_calls) == width + 1


def interleaved_symbols(m, width, count):
    """``count`` two-valued symbolic vectors with interleaved bits (the
    order in which an adder's BDDs stay linear in the width)."""
    rails = [[] for _ in range(count)]
    for _ in range(width):
        for vec in rails:
            vec.append((m.new_var(), FALSE))
    return [FourVec(m, bits) for bits in rails]


def test_sixteen_bit_symbolic_adder_differential(m):
    """The majority-carry adder builds the oracle's rails for +, - and
    unary minus on 16-bit all-symbolic operands."""
    x, y = interleaved_symbols(m, 16, 2)
    for op, operands in ((ops.add, (x, y)), (ops.subtract, (x, y)),
                         (ops.subtract, (y, x)), (ops.negate, (x,))):
        ref, fast = run_both(m, op, *operands)
        assert_identical(ref, fast)
    # spot-check the value: 0x1234 - 0xfedc wraps to 0x1358
    env = {}
    for vec, value in ((x, 0x1234), (y, 0xFEDC)):
        for i, (a, _) in enumerate(vec.bits):
            env[m.level_of(a)] = bool(value >> i & 1)
    diff = ops.subtract(x, y)
    assert sum(m.eval(a, env) << i for i, (a, _) in enumerate(diff.bits)) \
        == 0x1358


class TestCounters:
    def test_word_counter(self, m):
        x = FourVec.from_int(m, 5, 8)
        y = FourVec.from_int(m, 3, 8)
        base = m.fastpath_word_ops
        result = ops.add(x, y)
        assert m.fastpath_word_ops == base + 1
        assert result.to_int() == 8
        assert m.fastpath_symbolic_ops == 0

    def test_symbolic_counter(self, m):
        sym = FourVec.fresh_symbol(m, 4, "s")
        one = FourVec.from_int(m, 1, 4)
        base = m.fastpath_symbolic_ops
        ops.add(sym, one)
        assert m.fastpath_symbolic_ops == base + 1

    def test_disabled_counts_nothing(self, m):
        m.fastpath = False
        x = FourVec.from_int(m, 5, 8)
        y = FourVec.from_int(m, 3, 8)
        result = ops.add(x, y)
        assert result.to_int() == 8
        assert m.fastpath_word_ops == 0
        assert m.fastpath_symbolic_ops == 0


class TestSummaryMaintenance:
    """The incrementally-carried concrete summary must always agree
    with a from-scratch recomputation over the rails."""

    def _check(self, vec):
        fresh = FourVec(vec.mgr, vec.bits, vec.signed)
        assert vec.concrete_summary() == fresh.concrete_summary()

    def test_structural_chain(self, m):
        rng = random.Random(2024)
        for mode in MODES:
            v = rand_vec(m, rng, 8, mode)
            self._check(v)
            self._check(v.resize(12))
            self._check(v.as_signed(True).resize(12))   # sign extension
            self._check(v.resize(3))
            self._check(v.slice(2, 6))
            self._check(v.slice(6, 6))                  # out-of-range -> X
            self._check(v.slice(-1, 4))                 # negative low -> X
            self._check(v.concat(rand_vec(m, rng, 4, mode)))
            self._check(v.replicate(3))
            self._check(v.as_signed(True))

    def test_known_int(self, m):
        v = FourVec.from_int(m, 0xA5, 8)
        assert v.known_int() == 0xA5
        assert FourVec.from_verilog_bits(m, "1x01").known_int() is None
        assert FourVec.fresh_symbol(m, 4, "k").known_int() is None
        # Signed vectors report the raw unsigned payload.
        assert FourVec.from_int(m, 0xF, 4, signed=True).known_int() == 0xF
