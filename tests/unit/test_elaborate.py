"""Unit tests for hierarchy elaboration."""

import pytest

from repro.errors import ElaborationError
from repro.frontend import elaborate, parse_source
from repro.frontend.elaborate import const_eval


def elab(src, top=None):
    return elaborate(parse_source(src), top=top)


class TestTopDetection:
    def test_single_module(self):
        design = elab("module tb; endmodule")
        assert design.top == "tb"

    def test_auto_top(self):
        design = elab("""
            module leaf; endmodule
            module tb; leaf u(); endmodule
        """)
        assert design.top == "tb"

    def test_ambiguous_top(self):
        with pytest.raises(ElaborationError):
            elab("module a; endmodule module b; endmodule")

    def test_explicit_top(self):
        design = elab("module a; endmodule module b; endmodule", top="a")
        assert design.top == "a"

    def test_unknown_top(self):
        with pytest.raises(ElaborationError):
            elab("module a; endmodule", top="zzz")

    def test_no_modules(self):
        with pytest.raises(ElaborationError):
            elaborate({})


class TestNets:
    def test_widths_and_kinds(self):
        design = elab("""
            module tb;
              reg [7:0] r;
              wire [3:0] w;
              integer i;
              time t;
              reg [3:0] mem [0:7];
            endmodule
        """)
        assert design.net("r").width == 8
        assert design.net("w").width == 4 and design.net("w").is_net
        assert design.net("i").width == 32 and design.net("i").signed
        assert design.net("t").width == 64
        assert design.net("mem").array == (0, 7)

    def test_widest_vector_is_65536_bits(self):
        design = elab("module tb; reg [65535:0] r; wire [0:65535] w; endmodule")
        assert design.net("r").width == design.net("w").width == 65536

    @pytest.mark.parametrize("decl", [
        "wire [99999999999999999999:0] w;",
        "reg [65536:0] w;",
        "reg [0:65536] w;",
        "parameter N = 1 << 20; wire [N:1] w;",
    ])
    def test_wider_vectors_are_refused(self, decl):
        with pytest.raises(ElaborationError,
                           match=r"^w: range .* vectors are limited to 65536"):
            elab(f"module tb; {decl} endmodule")

    def test_wide_port_is_refused(self):
        with pytest.raises(ElaborationError, match="limited to 65536 bits"):
            elab("""
                module leaf(input [70000:0] p); endmodule
                module tb; leaf u(1'b0); endmodule
            """)

    def test_descending_and_ascending_ranges(self):
        design = elab("module tb; reg [0:7] a; reg [7:0] b; endmodule")
        assert design.net("a").width == 8
        assert design.net("a").bit_offset(0) == 7
        assert design.net("b").bit_offset(0) == 0

    def test_parameterized_widths(self):
        design = elab("""
            module tb;
              parameter W = 6;
              reg [W-1:0] r;
            endmodule
        """)
        assert design.net("r").width == 6

    def test_duplicate_decl(self):
        with pytest.raises(ElaborationError):
            elab("module tb; reg a; reg a; endmodule")

    def test_output_reg_merge(self):
        design = elab("""
            module m(q); output [3:0] q; reg [3:0] q; endmodule
            module tb; wire [3:0] q; m u(q); endmodule
        """)
        assert design.net("u.q").kind == "reg"
        assert design.net("u.q").width == 4


class TestHierarchy:
    SRC = """
        module inner(input [3:0] a, output [3:0] y);
          parameter K = 1;
          assign y = a + K;
        endmodule
        module tb;
          wire [3:0] y1, y2;
          reg [3:0] x;
          inner u1 (.a(x), .y(y1));
          inner #(.K(3)) u2 (.a(x), .y(y2));
        endmodule
    """

    def test_instance_paths(self):
        design = elab(self.SRC)
        assert "u1.a" in design.nets
        assert "u2.y" in design.nets

    def test_parameter_override(self):
        design = elab(self.SRC)
        assert design.scopes["u1"].params["K"] == 1
        assert design.scopes["u2"].params["K"] == 3

    def test_port_connection_assigns(self):
        design = elab(self.SRC)
        # one internal assign per instance + 2 port hookups per instance
        assert len(design.assigns) == 6

    def test_positional_params(self):
        design = elab("""
            module inner(output [3:0] y);
              parameter A = 1, B = 2;
              assign y = A + B;
            endmodule
            module tb; wire [3:0] y; inner #(5, 6) u (y); endmodule
        """)
        assert design.scopes["u"].params == {"A": 5, "B": 6}

    def test_unknown_module(self):
        with pytest.raises(ElaborationError):
            elab("module tb; nothere u(); endmodule")

    def test_recursive_instantiation(self):
        with pytest.raises(ElaborationError):
            elab("module a; a u(); endmodule", top="a")

    def test_unknown_port(self):
        with pytest.raises(ElaborationError):
            elab("""
                module inner(input a); endmodule
                module tb; reg x; inner u (.zzz(x)); endmodule
            """)

    def test_too_many_ordered_connections(self):
        with pytest.raises(ElaborationError):
            elab("""
                module inner(input a); endmodule
                module tb; reg x, y; inner u (x, y); endmodule
            """)

    def test_inout_aliasing(self):
        design = elab("""
            module inner(inout w); endmodule
            module tb; wire shared; inner u (.w(shared)); endmodule
        """)
        assert design.scopes["u"].locals["w"] == "shared"
        assert "u.w" not in design.nets

    def test_hierarchical_lookup(self):
        design = elab(self.SRC)
        scope = design.scopes[""]
        assert scope.lookup(("u1", "a")) == "u1.a"
        assert scope.lookup(("nothere", "x")) is None


class TestGates:
    def test_and_gate_becomes_assign(self):
        design = elab("""
            module tb; wire o; reg a, b; and g(o, a, b); endmodule
        """)
        assert len(design.assigns) == 1

    def test_multi_input_gate(self):
        design = elab("""
            module tb; wire o; reg a, b, c, d; nand g(o, a, b, c, d); endmodule
        """)
        assert len(design.assigns) == 1

    def test_bufif(self):
        design = elab("""
            module tb; wire o; reg d, en; bufif1 g(o, d, en); endmodule
        """)
        assert len(design.assigns) == 1

    def test_bad_terminal_count(self):
        with pytest.raises(ElaborationError):
            elab("module tb; wire o; not g(o); endmodule")


class TestConstEval:
    def design_scope(self, params=""):
        design = elab(f"module tb; {params} endmodule")
        return design.scopes[""]

    def test_arithmetic(self):
        scope = self.design_scope("parameter A = 2 + 3 * 4;")
        assert scope.params["A"] == 14

    def test_comparison_and_ternary(self):
        scope = self.design_scope("parameter A = (2 > 1) ? 10 : 20;")
        assert scope.params["A"] == 10

    def test_param_chain(self):
        scope = self.design_scope("parameter A = 4; parameter B = A * A;")
        assert scope.params["B"] == 16

    def test_division_by_zero(self):
        with pytest.raises(ElaborationError):
            self.design_scope("parameter A = 1 / 0;")

    def test_xz_rejected(self):
        with pytest.raises(ElaborationError):
            self.design_scope("parameter A = 4'b10xz;")

    def test_division_truncates_toward_zero(self):
        scope = self.design_scope(
            "parameter A = -7 / 2; parameter B = -7 % 2;"
            " parameter C = 7 / -2; parameter D = 7 % -2;")
        assert [scope.params[name] for name in "ABCD"] == [-3, -1, -3, 1]

    def test_negative_exponent(self):
        scope = self.design_scope(
            "parameter A = 2 ** -1; parameter B = 1 ** -3;"
            " parameter C = (-1) ** -3; parameter D = (-1) ** -2;")
        assert [scope.params[name] for name in "ABCD"] == [0, 1, -1, 1]

    @pytest.mark.parametrize("expr, match", [
        ("0 ** -1", "negative power"),
        ("1 << -1", "negative shift count"),
        ("8 >> -2", "negative shift count"),
        ("1 << 64'hFFFFFFFFFFFF", "wider than 65536 bits"),
        ("3 ** 50000", "wider than 65536 bits"),
    ])
    def test_out_of_range_operands(self, expr, match):
        with pytest.raises(ElaborationError, match=match):
            self.design_scope(f"parameter A = {expr};")

    def test_non_parameter_identifier(self):
        with pytest.raises(ElaborationError):
            elab("module tb; reg r; parameter A = r; endmodule")
