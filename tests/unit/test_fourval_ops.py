"""Unit tests for IEEE-1364 operator semantics over FourVec."""

import pytest

from repro.bdd import FALSE, TRUE, BddManager
from repro.errors import FourValueError
from repro.fourval import FourVec, ops


@pytest.fixture
def m():
    return BddManager()


def vec(m, text):
    return FourVec.from_verilog_bits(m, text)


class TestBitwise:
    def test_not_table(self, m):
        assert ops.bitwise_not(vec(m, "01xz")).to_verilog_bits() == "10xx"

    def test_and_table(self, m):
        x = vec(m, "00001111xxxxzzzz")
        y = vec(m, "01xz01xz01xz01xz")
        assert ops.bitwise_and(x, y).to_verilog_bits() == "000001xx0xxx0xxx"

    def test_or_table(self, m):
        x = vec(m, "00001111xxxxzzzz")
        y = vec(m, "01xz01xz01xz01xz")
        assert ops.bitwise_or(x, y).to_verilog_bits() == "01xx1111x1xxx1xx"

    def test_xor_table(self, m):
        x = vec(m, "00001111xxxxzzzz")
        y = vec(m, "01xz01xz01xz01xz")
        assert ops.bitwise_xor(x, y).to_verilog_bits() == "01xx10xxxxxxxxxx"

    def test_xnor(self, m):
        assert ops.bitwise_xnor(vec(m, "0101"), vec(m, "0011")) \
            .to_verilog_bits() == "1001"

    def test_width_mismatch(self, m):
        with pytest.raises(FourValueError):
            ops.bitwise_and(vec(m, "01"), vec(m, "011"))


class TestReductions:
    def test_reduce_and(self, m):
        assert ops.reduce_and(vec(m, "1111")).to_verilog_bits() == "1"
        assert ops.reduce_and(vec(m, "1101")).to_verilog_bits() == "0"
        assert ops.reduce_and(vec(m, "11x1")).to_verilog_bits() == "x"
        assert ops.reduce_and(vec(m, "10x1")).to_verilog_bits() == "0"

    def test_reduce_or(self, m):
        assert ops.reduce_or(vec(m, "0000")).to_verilog_bits() == "0"
        assert ops.reduce_or(vec(m, "0010")).to_verilog_bits() == "1"
        assert ops.reduce_or(vec(m, "00x0")).to_verilog_bits() == "x"
        assert ops.reduce_or(vec(m, "01x0")).to_verilog_bits() == "1"

    def test_reduce_xor(self, m):
        assert ops.reduce_xor(vec(m, "0110")).to_verilog_bits() == "0"
        assert ops.reduce_xor(vec(m, "0111")).to_verilog_bits() == "1"
        assert ops.reduce_xor(vec(m, "011z")).to_verilog_bits() == "x"

    def test_negated_reductions(self, m):
        assert ops.reduce_nand(vec(m, "11")).to_verilog_bits() == "0"
        assert ops.reduce_nor(vec(m, "00")).to_verilog_bits() == "1"
        assert ops.reduce_xnor(vec(m, "01")).to_verilog_bits() == "0"


class TestLogical:
    def test_logical_not(self, m):
        assert ops.logical_not(vec(m, "00")).to_verilog_bits() == "1"
        assert ops.logical_not(vec(m, "01")).to_verilog_bits() == "0"
        assert ops.logical_not(vec(m, "0x")).to_verilog_bits() == "x"
        assert ops.logical_not(vec(m, "1x")).to_verilog_bits() == "0"

    def test_logical_and(self, m):
        t, f, u = vec(m, "1"), vec(m, "0"), vec(m, "x")
        assert ops.logical_and(t, t).to_verilog_bits() == "1"
        assert ops.logical_and(t, f).to_verilog_bits() == "0"
        assert ops.logical_and(f, u).to_verilog_bits() == "0"
        assert ops.logical_and(t, u).to_verilog_bits() == "x"

    def test_logical_or(self, m):
        t, f, u = vec(m, "1"), vec(m, "0"), vec(m, "x")
        assert ops.logical_or(f, f).to_verilog_bits() == "0"
        assert ops.logical_or(t, u).to_verilog_bits() == "1"
        assert ops.logical_or(f, u).to_verilog_bits() == "x"


class TestEquality:
    def test_equal(self, m):
        assert ops.equal(vec(m, "1010"), vec(m, "1010")).to_verilog_bits() == "1"
        assert ops.equal(vec(m, "1010"), vec(m, "1011")).to_verilog_bits() == "0"
        assert ops.equal(vec(m, "101x"), vec(m, "1010")).to_verilog_bits() == "x"
        # definite difference dominates x
        assert ops.equal(vec(m, "001x"), vec(m, "1010")).to_verilog_bits() == "0"

    def test_not_equal(self, m):
        assert ops.not_equal(vec(m, "10"), vec(m, "01")).to_verilog_bits() == "1"
        assert ops.not_equal(vec(m, "1x"), vec(m, "10")).to_verilog_bits() == "x"

    def test_case_equal(self, m):
        assert ops.case_equal(vec(m, "1x0z"), vec(m, "1x0z")) \
            .to_verilog_bits() == "1"
        assert ops.case_equal(vec(m, "1x0z"), vec(m, "1x00")) \
            .to_verilog_bits() == "0"
        assert ops.case_not_equal(vec(m, "1x"), vec(m, "1z")) \
            .to_verilog_bits() == "1"

    def test_casez_match(self, m):
        # z is a wildcard on either side
        assert ops.casez_match(vec(m, "10"), vec(m, "1z")) == TRUE
        assert ops.casez_match(vec(m, "1x"), vec(m, "1z")) == TRUE
        assert ops.casez_match(vec(m, "1x"), vec(m, "10")) == FALSE
        assert ops.casez_match(vec(m, "11"), vec(m, "10")) == FALSE

    def test_casex_match(self, m):
        assert ops.casex_match(vec(m, "1x"), vec(m, "10")) == TRUE
        assert ops.casex_match(vec(m, "0x"), vec(m, "1z")) == FALSE


class TestRelational:
    def test_unsigned_compare(self, m):
        three, five = FourVec.from_int(m, 3, 4), FourVec.from_int(m, 5, 4)
        assert ops.less_than(three, five).to_int() == 1
        assert ops.less_than(five, three).to_int() == 0
        assert ops.less_equal(three, three).to_int() == 1
        assert ops.greater_than(five, three).to_int() == 1
        assert ops.greater_equal(three, five).to_int() == 0

    def test_signed_compare(self, m):
        minus_one = FourVec.from_int(m, 0xF, 4, signed=True)
        one = FourVec.from_int(m, 1, 4, signed=True)
        assert ops.less_than(minus_one, one).to_int() == 1
        # unsigned if either side is unsigned
        assert ops.less_than(minus_one.as_signed(False), one).to_int() == 0

    def test_compare_xz_is_x(self, m):
        assert ops.less_than(vec(m, "1x"), vec(m, "10")) \
            .to_verilog_bits() == "x"


class TestArithmetic:
    def test_add_sub(self, m):
        a, b = FourVec.from_int(m, 9, 4), FourVec.from_int(m, 8, 4)
        assert ops.add(a, b).to_int() == 1  # wraps at 4 bits
        assert ops.subtract(a, b).to_int() == 1
        assert ops.subtract(b, a).to_int() == 15  # wraps

    def test_negate(self, m):
        assert ops.negate(FourVec.from_int(m, 1, 4)).to_int() == 15
        assert ops.negate(FourVec.from_int(m, 0, 4)).to_int() == 0

    def test_multiply(self, m):
        a, b = FourVec.from_int(m, 7, 6), FourVec.from_int(m, 9, 6)
        assert ops.multiply(a, b).to_int() == 63

    def test_divide_modulo(self, m):
        a, b = FourVec.from_int(m, 37, 8), FourVec.from_int(m, 5, 8)
        assert ops.divide(a, b).to_int() == 7
        assert ops.modulo(a, b).to_int() == 2

    def test_divide_by_zero_is_x(self, m):
        a, z = FourVec.from_int(m, 5, 4), FourVec.from_int(m, 0, 4)
        assert ops.divide(a, z).to_verilog_bits() == "xxxx"
        assert ops.modulo(a, z).to_verilog_bits() == "xxxx"

    def test_signed_divide(self, m):
        minus_six = FourVec.from_int(m, -6, 8, signed=True)
        two = FourVec.from_int(m, 2, 8, signed=True)
        assert ops.divide(minus_six, two).to_int() == -3
        assert ops.modulo(minus_six, two).to_int() == 0
        minus_seven = FourVec.from_int(m, -7, 8, signed=True)
        assert ops.divide(minus_seven, two).to_int() == -3  # trunc toward 0
        assert ops.modulo(minus_seven, two).to_int() == -1  # sign of dividend

    def test_power(self, m):
        a, b = FourVec.from_int(m, 3, 8), FourVec.from_int(m, 4, 8)
        assert ops.power(a, b).to_int() == 81

    def test_xz_poisons_arith(self, m):
        assert ops.add(vec(m, "1x"), vec(m, "01")).to_verilog_bits() == "xx"
        assert ops.multiply(vec(m, "1z"), vec(m, "01")).to_verilog_bits() == "xx"

    def test_symbolic_add_roundtrip(self, m):
        s = FourVec.fresh_symbol(m, 6, "s")
        one = FourVec.from_int(m, 1, 6)
        assert ops.case_equal(ops.subtract(ops.add(s, one), one), s) \
            .to_int() == 1


class TestShifts:
    def test_shift_left(self, m):
        v = FourVec.from_int(m, 0b0011, 4)
        assert ops.shift_left(v, FourVec.from_int(m, 2, 4)).to_int() == 0b1100
        assert ops.shift_left(v, FourVec.from_int(m, 5, 4)).to_int() == 0

    def test_shift_right(self, m):
        v = FourVec.from_int(m, 0b1100, 4)
        assert ops.shift_right(v, FourVec.from_int(m, 2, 4)).to_int() == 0b0011

    def test_arith_shift_right(self, m):
        # sign fill on a signed operand, zero fill on an unsigned one
        # (1364-2001 4.1.12)
        amount = FourVec.from_int(m, 2, 4)
        v = FourVec.from_int(m, 0b1000, 4, signed=True)
        assert ops.arith_shift_right(v, amount).to_int() == 0b1110
        u = FourVec.from_int(m, 0b1000, 4)
        assert ops.arith_shift_right(u, amount).to_int() == 0b0010

    def test_symbolic_shift_amount(self, m):
        v = FourVec.from_int(m, 1, 4)
        amt = FourVec.fresh_symbol(m, 2, "k")
        shifted = ops.shift_left(v, amt)
        for k in range(4):
            got = shifted.substitute({0: bool(k & 1), 1: bool(k & 2)})
            assert got.to_int() == (1 << k) & 0xF

    def test_xz_amount_is_x(self, m):
        v = FourVec.from_int(m, 1, 4)
        assert ops.shift_left(v, vec(m, "0x0x")).to_verilog_bits() == "xxxx"


class TestConditional:
    def test_concrete_selector(self, m):
        t, e = vec(m, "1010"), vec(m, "0101")
        assert ops.conditional(vec(m, "1"), t, e) .to_verilog_bits() == "1010"
        assert ops.conditional(vec(m, "0"), t, e).to_verilog_bits() == "0101"

    def test_x_selector_merges(self, m):
        t, e = vec(m, "1010"), vec(m, "1001")
        assert ops.conditional(vec(m, "x"), t, e).to_verilog_bits() == "10xx"


class TestWireResolution:
    def test_z_yields(self, m):
        assert ops.resolve_wire(vec(m, "z"), vec(m, "1")).to_verilog_bits() == "1"
        assert ops.resolve_wire(vec(m, "0"), vec(m, "z")).to_verilog_bits() == "0"
        assert ops.resolve_wire(vec(m, "z"), vec(m, "z")).to_verilog_bits() == "z"

    def test_conflict_is_x(self, m):
        assert ops.resolve_wire(vec(m, "0"), vec(m, "1")).to_verilog_bits() == "x"
        assert ops.resolve_wire(vec(m, "1"), vec(m, "1")).to_verilog_bits() == "1"
        assert ops.resolve_wire(vec(m, "x"), vec(m, "1")).to_verilog_bits() == "x"


class TestEdges:
    def test_posedge_table(self, m):
        def pe(old, new):
            return ops.posedge_condition(vec(m, old), vec(m, new))

        assert pe("0", "1") == TRUE
        assert pe("0", "x") == TRUE
        assert pe("x", "1") == TRUE
        assert pe("1", "0") == FALSE
        assert pe("0", "0") == FALSE
        assert pe("1", "x") == FALSE
        assert pe("z", "1") == TRUE

    def test_negedge_table(self, m):
        def ne(old, new):
            return ops.negedge_condition(vec(m, old), vec(m, new))

        assert ne("1", "0") == TRUE
        assert ne("1", "z") == TRUE
        assert ne("x", "0") == TRUE
        assert ne("0", "1") == FALSE
        assert ne("0", "x") == FALSE
