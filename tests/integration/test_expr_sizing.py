"""IEEE-1364 expression sizing rules, observed through simulation.

Every case runs under all four executors (compiled tier on/off x fast
paths on/off): each evaluates operators its own way, and all must give
the standard's answer.  The executors are a loop inside each test
rather than a parametrization, so the test ids stay stable.
"""

from tests.conftest import run_source, run_value

#: SimOptions of the four executors.
EXECUTORS = [dict(compile_tier=tier, no_fastpath=off)
             for tier in (True, False) for off in (False, True)]


def run_each(source):
    """``(options, result, sim)`` for ``source`` under each executor."""
    for options in EXECUTORS:
        result, sim = run_source(source, **options)
        yield options, result, sim


class TestContextWidth:
    def test_carry_captured_by_wider_lhs(self):
        # classic: sum of two 4-bit values into a 5-bit target keeps
        # the carry because operands widen to the LHS context
        for opts, result, sim in run_each("""
            module tb; reg [3:0] a, b; reg [4:0] s;
              initial begin a = 15; b = 1; s = a + b; end
            endmodule
        """):
            assert sim.value("s").to_int() == 16, opts

    def test_carry_lost_at_same_width(self):
        for opts, result, sim in run_each("""
            module tb; reg [3:0] a, b, s;
              initial begin a = 15; b = 1; s = a + b; end
            endmodule
        """):
            assert sim.value("s").to_int() == 0, opts

    def test_concat_is_self_determined(self):
        # inside a concat, the addition stays at max(operand) width
        for opts, result, sim in run_each("""
            module tb; reg [3:0] a, b; reg [4:0] s;
              initial begin a = 15; b = 1; s = {a + b}; end
            endmodule
        """):
            assert sim.value("s").to_int() == 0, opts  # carry lost in {}

    def test_concat_lhs_width_captures_carry(self):
        for opts, result, sim in run_each("""
            module tb; reg [3:0] a, b, low; reg c;
              initial begin a = 9; b = 8; {c, low} = a + b; end
            endmodule
        """):
            assert sim.value("c").to_int() == 1, opts
            assert sim.value("low").to_int() == 1, opts

    def test_comparison_operands_sized_together(self):
        for opts, result, _ in run_each("""
            module tb; reg [3:0] a; reg [7:0] b;
              initial begin
                a = 15; b = 8'h0F;
                if (a != b) $error;   // zero-extended compare
              end
            endmodule
        """):
            assert not result.violations, opts

    def test_shift_amount_self_determined(self):
        for opts, result, sim in run_each("""
            module tb; reg [7:0] v; reg [1:0] k;
              initial begin k = 3; v = 8'h01 << k; end
            endmodule
        """):
            assert sim.value("v").to_int() == 8, opts

    def test_ternary_branches_widen(self):
        for opts, result, sim in run_each("""
            module tb; reg c; reg [3:0] a; reg [7:0] y;
              initial begin c = 1; a = 15; y = c ? a + a : 8'd0; end
            endmodule
        """):
            assert sim.value("y").to_int() == 30, opts


class TestSignedness:
    def test_integer_arithmetic_signed(self):
        for opts, result, sim in run_each("""
            module tb; integer i; reg ok;
              initial begin
                i = -5;
                ok = (i < 0);
              end
            endmodule
        """):
            assert sim.value("ok").to_int() == 1, opts

    def test_reg_comparison_unsigned(self):
        for opts, result, sim in run_each("""
            module tb; reg [3:0] r; reg ok;
              initial begin
                r = -1;           // stores 15
                ok = (r > 10);    // unsigned: true
              end
            endmodule
        """):
            assert sim.value("ok").to_int() == 1, opts

    def test_signed_cast(self):
        for opts, result, sim in run_each("""
            module tb; reg [3:0] r; reg ok;
              initial begin
                r = 4'b1111;
                ok = ($signed(r) < 0);
              end
            endmodule
        """):
            assert sim.value("ok").to_int() == 1, opts

    def test_unsigned_cast(self):
        for opts, result, sim in run_each("""
            module tb; integer i; reg ok;
              initial begin
                i = -1;
                ok = ($unsigned(i) > 100);
              end
            endmodule
        """):
            assert sim.value("ok").to_int() == 1, opts

    def test_mixed_signedness_is_unsigned(self):
        for opts, result, sim in run_each("""
            module tb; integer i; reg [3:0] r; reg ok;
              initial begin
                i = -1; r = 2;
                ok = (i > r);    // mixed -> unsigned -> huge i wins
              end
            endmodule
        """):
            assert sim.value("ok").to_int() == 1, opts

    def test_sign_extension_on_assign(self):
        for opts, result, sim in run_each("""
            module tb; integer i; reg [7:0] r;
              initial begin
                i = -2;
                r = i;           // truncation of two's complement
              end
            endmodule
        """):
            assert sim.value("r").to_int() == 0xFE, opts

    def test_signed_division(self):
        for opts, result, sim in run_each("""
            module tb; integer a, b, q;
              initial begin a = -7; b = 2; q = a / b; end
            endmodule
        """):
            assert sim.value("q").to_int() == -3, opts

    # 1364-2001 4.5.1-4.5.2: a signed operand of an unsigned expression
    # is extended as unsigned, down to the leaves; self-determined
    # operands keep their own type.
    MIXED = """
        module tb;
          reg signed [3:0] s, t; reg [7:0] u, r; reg c, ok;
          initial begin
            s = -1; t = -1; u = 15; c = 1;
            %s
          end
        endmodule
    """

    def mixed(self, body, net):
        return [(opts, sim.value(net).to_int())
                for opts, _, sim in run_each(self.MIXED % body)]

    def test_signed_operand_zero_extends_in_unsigned_compare(self):
        for opts, ok in self.mixed("ok = (s == u);", "ok"):
            assert ok == 1, opts
        for opts, ok in self.mixed("ok = (s < 8'd16);", "ok"):
            assert ok == 1, opts

    def test_signed_operand_zero_extends_in_unsigned_sum(self):
        for opts, r in self.mixed("r = s + u;", "r"):
            assert r == 0x1E, opts
        # the unsigned type reaches the leaves of a signed subexpression
        for opts, r in self.mixed("r = (s + t) + u;", "r"):
            assert r == 0x2D, opts
        for opts, r in self.mixed("r = u + (4'sd7 + 4'sd9);", "r"):
            assert r == 0x1F, opts
        for opts, r in self.mixed("r = u + 4'shF + 1;", "r"):
            assert r == 0x1F, opts
        for opts in EXECUTORS:  # an X sign bit is not copied either
            assert run_value(self.MIXED % "r = u | 4'sbx000;", "r",
                             **opts) == "00001111", opts

    def test_case_operands_are_typed_like_case_equality(self):
        # IEEE 1800 12.5: selector and items are unsigned when any one
        # of them is, so the signed selector zero-extends as in ===
        for opts, r in self.mixed(
                "r = (s === 8'hFF) ? 9 : 0;"
                " case (s) 8'hFF: r = r + 1; 8'h0F: r = r + 2;"
                " default: r = r + 3; endcase", "r"):
            assert r == 2, opts
        for opts, r in self.mixed(
                "case (8'hFF) s: r = 1; default: r = 2; endcase", "r"):
            assert r == 2, opts
        for opts, r in self.mixed(
                "casez (s) 8'b1111_111?: r = 1; default: r = 2; endcase",
                "r"):
            assert r == 2, opts
        for opts, r in self.mixed(
                "casex (s) 8'b1xxx_xxxx: r = 1; default: r = 2; endcase",
                "r"):
            assert r == 2, opts
        # all signed: the selector still sign-extends
        for opts, r in self.mixed(
                "case (s) -8'sd1: r = 1; default: r = 2; endcase", "r"):
            assert r == 1, opts

    def test_signed_branch_zero_extends_in_unsigned_ternary(self):
        for opts, r in self.mixed("r = c ? s : u;", "r"):
            assert r == 0x0F, opts

    def test_self_determined_operands_keep_their_type(self):
        # the concat part and the $signed argument are self-determined
        for opts, r in self.mixed("r = {4'b0, s} + u;", "r"):
            assert r == 0x1E, opts
        for opts, r in self.mixed("r = $signed(s + t);", "r"):
            assert r == 0xFE, opts
        # a signed-only expression still sign-extends
        for opts, r in self.mixed("r = s + t;", "r"):
            assert r == 0xFE, opts

    def test_arith_shift_right_fills_by_signedness(self):
        for opts, r in self.mixed("r = s >>> 1;", "r"):
            assert r == 0xFF, opts
        for opts, r in self.mixed("r[3:0] = u[3:0] >>> 1; r[7:4] = 0;", "r"):
            assert r == 0x07, opts
        for opts, r in self.mixed("u = 8'h80; r = u >>> 1;", "r"):
            assert r == 0x40, opts
        # in an unsigned expression the signed operand zero-fills too
        for opts, r in self.mixed("r = (s >>> 1) + 8'd0;", "r"):
            assert r == 0x07, opts


class TestLiterals:
    def test_unsized_literal_32_bits(self):
        for opts, result, sim in run_each("""
            module tb; reg [39:0] v;
              initial v = ~0;      // ~(32-bit) zero-extended to 40
            endmodule
        """):
            # context width is 40: the literal 0 widens BEFORE inversion
            assert sim.value("v").to_int() == (1 << 40) - 1, opts

    def test_sized_xz_fill(self):
        for opts in EXECUTORS:
            assert run_value("""
                module tb; reg [7:0] v; initial v = 8'bx; endmodule
            """, "v", **opts) == "xxxxxxxx", opts

    def test_negative_literal_wraps(self):
        for opts, result, sim in run_each("""
            module tb; reg [3:0] v; initial v = -1; endmodule
        """):
            assert sim.value("v").to_int() == 15, opts
