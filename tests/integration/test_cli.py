"""Tests for the ``symsim`` command-line front end."""

import re

import pytest

from repro.cli import build_arg_parser, main


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "tb.v"
    path.write_text("""
        module tb; reg [3:0] a;
          initial begin
            a = $random;
            $display("hello");
            if (a == `TARGET) $error("hit");
          end
        endmodule
    """)
    return str(path)


class TestArgParsing:
    def test_defaults(self):
        args = build_arg_parser().parse_args(["x.v"])
        assert args.top is None
        assert args.accumulation == "full"
        assert not args.resimulate


class TestMain:
    def test_violation_exit_code(self, design_file, capsys):
        code = main([design_file, "--define", "TARGET=9", "--quiet"])
        assert code == 1
        out = capsys.readouterr().out
        assert "$error" in out

    def test_clean_run_exit_code(self, design_file, capsys):
        code = main([design_file, "--define", "TARGET=99", "--quiet"])
        assert code == 0

    def test_resimulate_flag(self, design_file, capsys):
        code = main([design_file, "--define", "TARGET=5", "--quiet",
                     "--resimulate"])
        assert code == 1
        out = capsys.readouterr().out
        assert "resimulation reproduced 1" in out

    def test_random_seed_mode(self, design_file, capsys):
        code = main([design_file, "--define", "TARGET=20", "--quiet",
                     "--random-seed", "3"])
        assert code == 0
        assert "[random]" in capsys.readouterr().out

    def test_stats_flag(self, design_file, capsys):
        main([design_file, "--define", "TARGET=99", "--quiet", "--stats"])
        out = capsys.readouterr().out
        assert "events processed" in out

    @pytest.mark.parametrize("extra, expected", [
        ([], {"native": "native", "python": "python (disabled for this test)"}),
        (["--no-fastpath"], {"native": "python (--no-fastpath)",
                             "python": "python (--no-fastpath)"}),
    ], ids=["default", "no-fastpath"])
    def test_stats_names_the_bdd_store(self, design_file, capsys, store,
                                       extra, expected):
        main([design_file, "--define", "TARGET=99", "--quiet", "--stats",
              *extra])
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if "bdd kernel" in line]
        assert lines == [f"[stats] bdd kernel: {expected[store]}"]

    @pytest.mark.parametrize("knobs, fields", [
        ([], ""),
        (["--gc-threshold", "1"], r" gc=\d+\.\d{3}s reorder=\d+\.\d{3}s"),
        (["--dyn-reorder", "--reorder-threshold", "1"],
         r" gc=\d+\.\d{3}s reorder=\d+\.\d{3}s"),
    ], ids=["plain", "gc", "sift"])
    def test_stats_split_a_managed_runs_time(self, design_file, capsys,
                                             knobs, fields):
        main([design_file, "--define", "TARGET=99", "--quiet", "--stats",
              *knobs])
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[stats] cpu=")]
        assert len(lines) == 1
        assert re.fullmatch(
            r"\[stats\] cpu=\d+\.\d{3}s bdd-nodes=\d+ bdd-peak=\d+"
            + fields, lines[0]), lines[0]

    def test_profile_report_names_the_bdd_store(self, design_file, tmp_path,
                                                capsys):
        from repro.bdd import native
        from repro.obs.report import render_file

        profile = str(tmp_path / "p.json")
        main([design_file, "--define", "TARGET=99", "--quiet",
              "--profile-out", profile])
        kernel = ("native" if native.unavailable() is None
                  else f"python ({native.unavailable()})")
        assert f"bdd kernel: {kernel}" in render_file(profile).splitlines()

    def test_accumulation_choice(self, design_file):
        code = main([design_file, "--define", "TARGET=99", "--quiet",
                     "--accumulation", "none"])
        assert code == 0

    def test_syntax_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.v"
        bad.write_text("module tb; garbage !!!")
        assert main([str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_source_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.v"
        bad.write_bytes(b'module tb; initial $display("\xff"); endmodule\n')
        assert main([str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "latin1.v" in err and "UTF-8" in err
        assert "Traceback" not in err

    def test_constant_expression_error_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "shift.v"
        path.write_text("module tb; parameter P = 1 << -1; endmodule\n")
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "negative shift count" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("body, match", [
        ("wire [99999999999999999999:0] w;", "w: range"),
        ("reg [4294967296:0] w; initial begin w = 3; "
         "$display(\"%d\", w); end", "w: range [4294967296:0]"),
        ("reg a; initial a = {99999999999{1'b1}};", "replication"),
        ("reg a; function [70000:0] f; input x; f = x; endfunction\n"
         "initial a = f(1'b0);", "f: range"),
        ("task t; input [0:70000] x; begin end endtask\n"
         "initial t(1'b0);", "x: range"),
    ])
    def test_absurd_width_is_one_error_line(self, tmp_path, capsys, body,
                                            match):
        path = tmp_path / "wide.v"
        path.write_text(f"module tb; {body} endmodule\n")
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert match in err and "limited to 65536 bits" in err

    def test_wide_decimal_literal_keeps_its_value(self, tmp_path, capsys):
        path = tmp_path / "wide.v"
        path.write_text("module tb; initial begin\n"
                        "$display(\"%0d\", 4294967296);\n"
                        "$display(\"%0d\", 4294967295);\n"
                        "end endmodule\n")
        assert main([str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == \
            ["4294967296", "4294967295"]

    def test_widest_vector_runs(self, tmp_path, capsys):
        path = tmp_path / "wide.v"
        path.write_text("module tb; reg [65535:0] r; initial begin\n"
                        "r = 1; r = r << 65535; $display(\"%d\", r[65535]);"
                        "\nend endmodule\n")
        assert main([str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0].strip() == "1"

    def test_until_bound(self, tmp_path, capsys):
        path = tmp_path / "t.v"
        path.write_text("""
            module tb;
              initial begin #100 $display("late"); end
            endmodule
        """)
        code = main([str(path), "--until", "50", "--quiet"])
        assert code == 0
        assert "late" not in capsys.readouterr().out
