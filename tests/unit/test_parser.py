"""Unit tests for the Verilog parser (AST shapes)."""

import pytest

from repro.errors import VerilogSyntaxError
from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse_source


def parse_one(body, name="m"):
    mods = parse_source(f"module {name}; {body} endmodule")
    return mods[name]


def parse_stmt(stmt_text):
    module = parse_one(f"initial {stmt_text}")
    return module.processes[0].body


def parse_expr(expr_text):
    stmt = parse_stmt(f"x = {expr_text};")
    return stmt.rhs


class TestModuleStructure:
    def test_empty_module(self):
        mods = parse_source("module a; endmodule module b; endmodule")
        assert set(mods) == {"a", "b"}

    def test_duplicate_module(self):
        with pytest.raises(VerilogSyntaxError):
            parse_source("module a; endmodule module a; endmodule")

    def test_ports_1995_style(self):
        mods = parse_source(
            "module m(a, b, c); input a; output [3:0] b; inout c; endmodule"
        )
        assert mods["m"].port_names == ["a", "b", "c"]
        kinds = {d.name: d.kind for d in mods["m"].decls}
        assert kinds["a"] == "input"
        assert kinds["c"] == "inout"

    def test_ports_ansi_style(self):
        mods = parse_source(
            "module m(input clk, input [7:0] d, output reg [7:0] q); endmodule"
        )
        module = mods["m"]
        assert module.port_names == ["clk", "d", "q"]
        assert any(d.name == "q" and d.kind == "reg" for d in module.decls)

    def test_parameters(self):
        module = parse_one("parameter W = 8, D = W * 2; localparam X = 1;")
        names = [d.name for d in module.decls]
        assert names == ["W", "D", "X"]
        assert module.decls[2].kind == "localparam"

    def test_ansi_parameters(self):
        mods = parse_source("module m #(parameter W = 4) (input a); endmodule")
        assert any(d.kind == "parameter" for d in mods["m"].decls)

    def test_reg_decl_with_range_and_array(self):
        module = parse_one("reg [7:0] mem [0:15];")
        decl = module.decls[0]
        assert decl.kind == "reg"
        assert decl.range is not None
        assert decl.array is not None

    def test_integer_is_signed(self):
        module = parse_one("integer i;")
        assert module.decls[0].signed

    def test_decl_initializer(self):
        module = parse_one("reg x = 1;")
        assert module.decls[0].init is not None

    def test_event_decl(self):
        module = parse_one("event ev;")
        assert module.decls[0].kind == "event"

    def test_continuous_assign(self):
        module = parse_one("wire w; assign w = 1; assign #3 w = 0;")
        assert len(module.assigns) == 2
        assert module.assigns[1].delay is not None

    def test_gate_instances(self):
        module = parse_one("wire o, a, b; and g1(o, a, b); not (n, a);")
        assert len(module.gates) == 2
        assert module.gates[0].gate == "and"
        assert module.gates[1].name == ""

    def test_module_instance_named(self):
        mods = parse_source("""
            module child(input a, output b); endmodule
            module top; wire x, y;
              child #(.P(3)) u1 (.a(x), .b(y));
            endmodule
        """)
        inst = mods["top"].instances[0]
        assert inst.module == "child"
        assert inst.name == "u1"
        assert inst.connections[0].name == "a"
        assert inst.param_overrides[0].name == "P"

    def test_module_instance_ordered(self):
        mods = parse_source("""
            module child(a, b); input a; output b; endmodule
            module top; wire x, y; child u1 (x, y); endmodule
        """)
        inst = mods["top"].instances[0]
        assert inst.connections[0].name is None

    def test_defparam_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            parse_one("defparam u1.W = 3;")

    def test_task_and_function(self):
        module = parse_one("""
            task t; input [3:0] a; output b; begin b = a[0]; end endtask
            function [3:0] f; input [3:0] x; f = x + 1; endfunction
        """)
        assert module.tasks[0].name == "t"
        assert len(module.tasks[0].ports) == 2
        assert module.functions[0].name == "f"


class TestStatements:
    def test_blocking_and_nonblocking(self):
        stmt = parse_stmt("begin a = 1; b <= 2; c = #3 4; d <= #1 5; end")
        kinds = [type(s).__name__ for s in stmt.stmts]
        assert kinds == ["BlockingAssign", "NonBlockingAssign",
                        "BlockingAssign", "NonBlockingAssign"]
        assert stmt.stmts[2].intra_delay is not None

    def test_if_else_chain(self):
        stmt = parse_stmt("if (a) x = 1; else if (b) x = 2; else x = 3;")
        assert isinstance(stmt, ast.If)
        assert isinstance(stmt.else_stmt, ast.If)

    def test_case_variants(self):
        for kw in ("case", "casez", "casex"):
            stmt = parse_stmt(
                f"{kw} (x) 1: a = 1; 2, 3: a = 2; default: a = 0; endcase"
            )
            assert stmt.kind == kw
            assert len(stmt.items) == 3
            assert stmt.items[1].exprs and len(stmt.items[1].exprs) == 2
            assert stmt.items[2].exprs == []

    def test_loops(self):
        assert isinstance(parse_stmt("for (i = 0; i < 4; i = i + 1) x = i;"),
                          ast.For)
        assert isinstance(parse_stmt("while (x) x = x - 1;"), ast.While)
        assert isinstance(parse_stmt("repeat (3) x = 1;"), ast.Repeat)
        assert isinstance(parse_stmt("forever #5 clk = ~clk;"), ast.Forever)

    def test_delay_and_event_control(self):
        stmt = parse_stmt("#5 x = 1;")
        assert isinstance(stmt, ast.DelayStmt)
        stmt = parse_stmt("@(posedge clk) q = d;")
        assert isinstance(stmt, ast.EventStmt)
        assert stmt.items[0].edge == "posedge"
        stmt = parse_stmt("@(a or negedge b, c) x = 1;")
        assert [i.edge for i in stmt.items] == [None, "negedge", None]

    def test_event_star(self):
        stmt = parse_stmt("@* x = a + b;")
        assert stmt.items == []
        stmt = parse_stmt("@(*) x = a;")
        assert stmt.items == []

    def test_event_named_no_parens(self):
        stmt = parse_stmt("@ev x = 1;")
        assert stmt.items[0].expr.name == "ev"

    def test_wait(self):
        stmt = parse_stmt("wait (ready) x = 1;")
        assert isinstance(stmt, ast.Wait)

    def test_named_block_and_disable(self):
        stmt = parse_stmt("begin : blk integer i; disable blk; end")
        assert stmt.name == "blk"
        assert stmt.decls[0].kind == "integer"
        assert isinstance(stmt.stmts[0], ast.Disable)

    def test_event_trigger(self):
        assert isinstance(parse_stmt("-> ev;"), ast.EventTrigger)

    def test_task_enable(self):
        stmt = parse_stmt("do_it(1, x);")
        assert isinstance(stmt, ast.TaskCall)
        assert not stmt.is_system

    def test_system_task(self):
        stmt = parse_stmt('$display("hi %d", x);')
        assert stmt.is_system
        assert stmt.name == "$display"

    def test_fork_join(self):
        stmt = parse_stmt("fork #1 x = 1; #2 y = 2; join")
        assert isinstance(stmt, ast.ForkJoin)
        assert len(stmt.branches) == 2

    def test_named_fork_with_decls(self):
        stmt = parse_stmt("fork : f integer i; i = 1; join")
        assert stmt.name == "f"
        assert stmt.decls[0].kind == "integer"

    def test_force_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            parse_stmt("force x = 1;")

    def test_intra_assign_nonblocking_lhs_not_comparison(self):
        # `a <= b` as a statement must parse as non-blocking assign
        stmt = parse_stmt("a <= b;")
        assert isinstance(stmt, ast.NonBlockingAssign)


class TestExpressions:
    def test_precedence(self):
        expr = parse_expr("a + b * c")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_power_right_assoc(self):
        expr = parse_expr("a ** b ** c")
        assert expr.op == "**"
        assert expr.right.op == "**"

    def test_ternary(self):
        expr = parse_expr("a ? b : c ? d : e")
        assert isinstance(expr, ast.Ternary)
        assert isinstance(expr.else_value, ast.Ternary)

    def test_unary_chain(self):
        expr = parse_expr("~|a")
        assert expr.op == "~|"
        expr = parse_expr("!!a")
        assert expr.op == "!" and expr.operand.op == "!"

    def test_concat_and_replication(self):
        expr = parse_expr("{a, b, 2'b01}")
        assert isinstance(expr, ast.Concat)
        assert len(expr.parts) == 3
        expr = parse_expr("{4{a}}")
        assert isinstance(expr, ast.Repl)
        expr = parse_expr("{2{a, b}}")
        assert isinstance(expr, ast.Repl)
        assert isinstance(expr.value, ast.Concat)

    def test_selects(self):
        expr = parse_expr("mem[3]")
        assert isinstance(expr, ast.Index)
        expr = parse_expr("v[7:4]")
        assert isinstance(expr, ast.PartSelect)
        expr = parse_expr("mem[i][3]")
        assert isinstance(expr, ast.Index)
        assert isinstance(expr.base, ast.Index)

    def test_hierarchical_identifier(self):
        expr = parse_expr("top.u1.sig")
        assert expr.parts == ("top", "u1", "sig")

    def test_function_call_expr(self):
        expr = parse_expr("f(a, b + 1)")
        assert isinstance(expr, ast.FunctionCall)
        assert len(expr.args) == 2

    def test_system_function_expr(self):
        expr = parse_expr("$random")
        assert isinstance(expr, ast.SystemCall)
        expr = parse_expr("$signed(x)")
        assert expr.name == "$signed"

    def test_indexed_part_select_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            parse_expr("v[3 +: 2]")


class TestNumbers:
    def number(self, text):
        return parse_expr(text)

    def test_plain_decimal(self):
        n = self.number("42")
        assert n.width == 32 and n.signed
        assert int(n.bits, 2) == 42

    def test_sized_hex(self):
        n = self.number("8'hFF")
        assert n.width == 8 and not n.signed
        assert n.bits == "11111111"

    def test_sized_truncation(self):
        assert self.number("4'hFF").bits == "1111"

    def test_x_extension(self):
        n = self.number("8'bx1")
        assert n.bits == "xxxxxxx1"

    def test_zero_extension(self):
        assert self.number("8'b11").bits == "00000011"

    def test_signed_literal(self):
        assert self.number("4'sb1111").signed

    def test_question_mark_is_z(self):
        assert self.number("4'b1?1?").bits == "1z1z"

    def test_octal(self):
        assert self.number("6'o17").bits == "001111"

    def test_based_unsized(self):
        n = self.number("'hF")
        assert n.width == 32

    @pytest.mark.parametrize("value", [0, 1, 42, 2 ** 31 - 1])
    def test_plain_decimal_below_2_31_is_32_bits(self, value):
        assert self.number(str(value)) == ast.Number(
            bits=format(value, "032b"), width=32, signed=True, sized=False,
            base="d", line=1)

    @pytest.mark.parametrize("value, width", [
        (2 ** 31, 33), (2 ** 32 - 1, 33), (2 ** 32, 34),
        (99999999999999999999, 68),
    ])
    def test_wide_plain_decimal_keeps_its_value(self, value, width):
        n = self.number(str(value))
        assert (n.width, n.signed, n.sized) == (width, True, False)
        assert n.bits[0] == "0" and int(n.bits, 2) == value
