"""User tasks (inlined, with delays) and functions (pure inline)."""

import pytest

from repro.compile import funcs
from repro.errors import (
    CompileError, SimulationError, SimulationHang, SymbolicRepeatError,
)
from tests.conftest import run_source


class TestFunctions:
    def test_simple_function(self):
        result, sim = run_source("""
            module tb; reg [7:0] y;
              function [7:0] square;
                input [7:0] v;
                square = v * v;
              endfunction
              initial y = square(9);
            endmodule
        """)
        assert sim.value("y").to_int() == 81

    def test_function_with_control_flow(self):
        result, sim = run_source("""
            module tb; reg [7:0] y1, y2;
              function [7:0] clamp;
                input [7:0] v;
                input [7:0] hi;
                begin
                  if (v > hi) clamp = hi;
                  else clamp = v;
                end
              endfunction
              initial begin
                y1 = clamp(200, 100);
                y2 = clamp(30, 100);
              end
            endmodule
        """)
        assert sim.value("y1").to_int() == 100
        assert sim.value("y2").to_int() == 30

    def test_function_with_loop(self):
        result, sim = run_source("""
            module tb; reg [7:0] y;
              function [7:0] popcount;
                input [7:0] v;
                integer i;
                begin
                  popcount = 0;
                  for (i = 0; i < 8; i = i + 1)
                    popcount = popcount + v[i];
                end
              endfunction
              initial y = popcount(8'b1011_0110);
            endmodule
        """)
        assert sim.value("y").to_int() == 5

    def test_function_on_symbolic_data(self):
        result, _ = run_source("""
            module tb; reg [3:0] a;
              function [3:0] twice;
                input [3:0] v;
                twice = v + v;
              endfunction
              initial begin
                a = $random;
                if (twice(a) !== ((a + a) & 4'hF)) $error;
              end
            endmodule
        """)
        assert not result.violations

    def test_nested_function_calls(self):
        result, sim = run_source("""
            module tb; reg [7:0] y;
              function [7:0] inc;
                input [7:0] v;
                inc = v + 1;
              endfunction
              function [7:0] inc3;
                input [7:0] v;
                inc3 = inc(inc(inc(v)));
              endfunction
              initial y = inc3(10);
            endmodule
        """)
        assert sim.value("y").to_int() == 13

    def test_disable_as_function_return(self):
        result, sim = run_source("""
            module tb; reg [7:0] y;
              function [7:0] first_set_bit;
                input [7:0] v;
                integer i;
                begin
                  first_set_bit = 8'hFF;
                  for (i = 0; i < 8; i = i + 1)
                    if (v[i] && first_set_bit == 8'hFF) begin
                      first_set_bit = i;
                      disable first_set_bit;
                    end
                end
              endfunction
              initial y = first_set_bit(8'b0110_0000);
            endmodule
        """)
        assert sim.value("y").to_int() == 5

    def test_function_delay_rejected(self):
        with pytest.raises(CompileError):
            run_source("""
                module tb;
                  function f; input v; begin #1 f = v; end endfunction
                  initial $display("%d", f(1));
                endmodule
            """)

    def test_recursive_function_rejected(self):
        with pytest.raises(CompileError):
            run_source("""
                module tb;
                  function f; input v; f = f(v); endfunction
                  initial $display("%d", f(1));
                endmodule
            """)

    def test_wrong_arity_rejected(self):
        with pytest.raises(CompileError):
            run_source("""
                module tb;
                  function f; input a; input b; f = a & b; endfunction
                  initial $display("%d", f(1));
                endmodule
            """)

    def test_symbolic_repeat_count_is_a_simulation_error(self):
        with pytest.raises(SymbolicRepeatError) as info:
            run_source("""
                module tb; reg [1:0] n; reg [3:0] y;
                  function [3:0] twice;
                    input [1:0] k;
                    begin
                      twice = 0;
                      repeat (k) twice = twice + 2;
                    end
                  endfunction
                  initial begin n = $random; y = twice(n); end
                endmodule
            """)
        assert isinstance(info.value, SimulationError)
        message = str(info.value)
        assert "\n" not in message and "'twice'" in message

    def test_function_loop_watchdog_names_the_function(self, monkeypatch):
        monkeypatch.setattr(funcs, "MAX_FUNC_LOOP_ITERATIONS", 50)
        with pytest.raises(SimulationHang) as info:
            run_source("""
                module tb; reg [7:0] y;
                  function [7:0] spin;
                    input [7:0] v;
                    begin
                      spin = v;
                      while (spin != 8'd200) spin = spin | 8'd1;
                    end
                  endfunction
                  initial y = spin(8'd3);
                endmodule
            """)
        message = str(info.value)
        assert "\n" not in message
        assert "'spin'" in message and "50 iterations" in message


#: the compiled tier, the interpreter, and the no-fastpath oracle
MODES = pytest.mark.parametrize("mode", [
    dict(compile_tier=True),
    dict(compile_tier=False),
    dict(compile_tier=False, no_fastpath=True),
], ids=["compiled", "interpreter", "oracle"])


@MODES
class TestFunctionScoping:
    """A body resolves names in the function, then the module (1364
    §12.6) — never in the caller's locals or named blocks."""

    def test_nested_call_reads_module_reg_not_caller_port(self, mode):
        result, sim = run_source("""
            module tb; reg [7:0] k, y;
              function [7:0] inner;
                input [7:0] v;
                inner = v + k;
              endfunction
              function [7:0] outer;
                input [7:0] k;
                outer = inner(k);
              endfunction
              initial begin
                k = 10;
                y = outer(8'd3);
                $display("y=%0d", y);
              end
            endmodule
        """, echo_output=False, **mode)
        assert result.output == ["y=13"]

    def test_named_block_local_is_not_visible(self, mode):
        result, sim = run_source("""
            module tb; reg [7:0] k, y;
              function [7:0] addk;
                input [7:0] v;
                addk = v + k;
              endfunction
              initial k = 10;
              initial begin : blk
                reg [7:0] k;
                k = 50;
                #1 y = addk(8'd1);
                $display("y=%0d", y);
              end
            endmodule
        """, echo_output=False, **mode)
        assert result.output == ["y=11"]

    @pytest.mark.parametrize("module_tmp", [True, False],
                             ids=["shadowing", "alone"])
    def test_part_select_writes_the_local(self, mode, module_tmp):
        result, sim = run_source(f"""
            module tb; reg [7:0] y;
              {"reg [7:0] tmp;" if module_tmp else ""}
              function [7:0] low_nibble;
                input [7:0] v;
                reg [7:0] tmp;
                begin
                  tmp = 8'h00;
                  tmp[3:0] = v[3:0];
                  tmp[9:6] = 4'b1111;
                  low_nibble = tmp;
                end
              endfunction
              initial begin
                {"tmp = 8'h00;" if module_tmp else ""}
                y = low_nibble(8'h5b);
                $display("y=%h", y);
              end
            endmodule
        """, echo_output=False, **mode)
        assert result.output == ["y=cb"]
        if module_tmp:
            assert sim.value("tmp").to_int() == 0


class TestTasks:
    def test_task_with_delays(self):
        result, _ = run_source("""
            module tb; reg clk;
              task tick; begin #5 clk = 1; #5 clk = 0; end endtask
              initial begin
                clk = 0;
                tick;
                tick;
                if ($time !== 20) $error;
              end
            endmodule
        """)
        assert not result.violations

    def test_task_output_argument(self):
        result, sim = run_source("""
            module tb; reg [7:0] q, r;
              task divmod10;
                input [7:0] v;
                output [7:0] quo;
                output [7:0] rem;
                begin
                  quo = v / 10;
                  rem = v % 10;
                end
              endtask
              initial divmod10(87, q, r);
            endmodule
        """)
        assert sim.value("q").to_int() == 8
        assert sim.value("r").to_int() == 7

    def test_task_inout_argument(self):
        result, sim = run_source("""
            module tb; reg [7:0] v;
              task double; inout [7:0] x; x = x * 2; endtask
              initial begin
                v = 5;
                double(v);
                double(v);
              end
            endmodule
        """)
        assert sim.value("v").to_int() == 20

    def test_task_locals_are_static(self):
        result, sim = run_source("""
            module tb; reg [7:0] calls;
              task bump;
                begin
                  calls = calls + 1;
                end
              endtask
              initial begin
                calls = 0;
                bump; bump; bump;
              end
            endmodule
        """)
        assert sim.value("calls").to_int() == 3

    def test_task_with_event_control(self):
        result, _ = run_source("""
            module tb; reg clk;
              task wait_edge; @(posedge clk); endtask
              initial begin
                clk = 0;
                #3 clk = 1;
              end
              initial begin
                wait_edge;
                if ($time !== 3) $error;
              end
            endmodule
        """)
        assert not result.violations

    def test_disable_task_returns_early(self):
        result, sim = run_source("""
            module tb; reg [7:0] mark;
              task work;
                input stop_early;
                begin
                  mark = 1;
                  if (stop_early) disable work;
                  mark = 2;
                end
              endtask
              initial begin
                work(1);
              end
            endmodule
        """)
        assert sim.value("mark").to_int() == 1

    def test_recursive_task_rejected(self):
        with pytest.raises(CompileError):
            run_source("""
                module tb;
                  task t; t; endtask
                  initial t;
                endmodule
            """)

    def test_unknown_task_rejected(self):
        with pytest.raises(CompileError):
            run_source("module tb; initial nothere(1); endmodule")

    def test_task_symbolic_argument(self):
        result, _ = run_source("""
            module tb; reg [3:0] a, y;
              task addsat;
                input [3:0] x;
                output [3:0] out;
                begin
                  if (x > 12) out = 15;
                  else out = x + 3;
                end
              endtask
              initial begin
                a = $random;
                addsat(a, y);
                if (a > 12) begin
                  if (y !== 15) $error;
                end
                else begin
                  if (y !== ((a + 3) & 4'hF)) $error;
                end
              end
            endmodule
        """)
        assert not result.violations
