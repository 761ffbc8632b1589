"""Tokenizer and preprocessor for the Verilog-1995 subset.

The preprocessor handles ``\\`define`` (object-like), ``\\`undef``,
``\\`ifdef``/``\\`ifndef``/``\\`else``/``\\`endif``, ``\\`include`` (via a
caller-supplied resolver) and records/ignores ``\\`timescale``.  Macros
with arguments are rejected with a clear error — none of the paper's
constructs need them.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import VerilogSyntaxError

KEYWORDS = frozenset(
    """
    module endmodule input output inout reg wire tri tri0 tri1 wand wor
    supply0 supply1 integer time real parameter localparam defparam
    initial always begin end if else case casez casex endcase default
    for while repeat forever disable wait assign deassign force release
    posedge negedge or task endtask function endfunction fork join
    signed scalared vectored genvar generate endgenerate not and nand
    nor xor xnor buf bufif0 bufif1 notif0 notif1 event edge small medium
    large specify endspecify
    """.split()
)

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<<", ">>>", "===", "!==", "**", "==", "!=", "<=", ">=", "<<", ">>",
    "&&", "||", "~&", "~|", "~^", "^~", "+:", "-:", "=>", "->",
    "(", ")", "[", "]", "{", "}", ";", ":", ",", ".", "#", "@", "?",
    "=", "+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^", "$",
]
#: One alternation in ``_OPERATORS`` order: a regex alternation takes
#: the first alternative that matches, so the longest still wins.
_OPERATOR_RE = re.compile("|".join(re.escape(op) for op in _OPERATORS))

_NUMBER_RE = re.compile(
    r"(?:(\d[\d_]*)?\s*'\s*(s?)([bodhBODH])\s*([0-9a-fA-FxXzZ_\?]+))|(\d[\d_]*\.\d[\d_]*)|(\d[\d_]*)"
)
_IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_$]*")
_SYSID_RE = re.compile(r"\$[a-zA-Z_][a-zA-Z0-9_$]*")
_ESCAPED_RE = re.compile(r"\\[^\s]+")


def read_source_file(path: str) -> str:
    """The text of the Verilog file ``path``.

    A file that is not UTF-8 raises a one-line
    :class:`VerilogSyntaxError` naming it; ``OSError`` passes through.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise VerilogSyntaxError(
            f"source file {path!r} is not UTF-8 text ({exc.reason} "
            f"0x{exc.object[exc.start]:02x})") from None


class Token(NamedTuple):
    """One lexical token with its source position."""

    kind: str  # 'id', 'sysid', 'number', 'real', 'string', 'op', 'keyword', 'eof'
    value: str
    line: int
    col: int


class Lexer:
    """Convert preprocessed source text into a token list."""

    def __init__(self, text: str, filename: str = "<input>") -> None:
        self.text = text
        self.filename = filename

    def tokenize(self) -> List[Token]:
        """Return all tokens, terminated by a single ``eof`` token."""
        tokens: List[Token] = []
        text = self.text
        pos = 0
        line = 1
        line_start = 0
        length = len(text)
        while pos < length:
            char = text[pos]
            if char == "\n":
                line += 1
                pos += 1
                line_start = pos
                continue
            if char in " \t\r":
                pos += 1
                continue
            col = pos - line_start + 1
            if text.startswith("//", pos):
                end = text.find("\n", pos)
                pos = length if end < 0 else end
                continue
            if text.startswith("/*", pos):
                end = text.find("*/", pos + 2)
                if end < 0:
                    raise VerilogSyntaxError("unterminated block comment", line, col)
                line += text.count("\n", pos, end)
                if "\n" in text[pos:end]:
                    line_start = text.rfind("\n", pos, end) + 1
                pos = end + 2
                continue
            if char == '"':
                end = pos + 1
                chunks: List[str] = []
                while end < length and text[end] != '"':
                    if text[end] == "\\" and end + 1 < length:
                        esc = text[end + 1]
                        chunks.append({"n": "\n", "t": "\t", "\\": "\\", '"': '"'}.get(esc, esc))
                        end += 2
                    else:
                        chunks.append(text[end])
                        end += 1
                if end >= length:
                    raise VerilogSyntaxError("unterminated string", line, col)
                tokens.append(Token("string", "".join(chunks), line, col))
                pos = end + 1
                continue
            if char.isdigit() or char == "'":
                # 'bx is a based literal without a size
                match = _NUMBER_RE.match(text, pos)
                if match:
                    if match.group(5) is not None:
                        tokens.append(Token("real", match.group(5), line, col))
                    else:
                        tokens.append(Token("number", match.group(0), line, col))
                    pos = match.end()
                    # A based literal may follow an unsized decimal (e.g.
                    # ``8 'hff`` with space) — the regex already consumed it.
                    continue
                if char == "'":
                    raise VerilogSyntaxError(
                        f"bad numeric literal at {char!r}", line, col)
            if char == "\\":
                match = _ESCAPED_RE.match(text, pos)
                if match:
                    tokens.append(Token("id", match.group(0)[1:], line, col))
                    pos = match.end()
                    continue
            if char == "$":
                match = _SYSID_RE.match(text, pos)
                if match:
                    tokens.append(Token("sysid", match.group(0), line, col))
                    pos = match.end()
                    continue
            match = _IDENT_RE.match(text, pos)
            if match:
                word = match.group(0)
                kind = "keyword" if word in KEYWORDS else "id"
                tokens.append(Token(kind, word, line, col))
                pos = match.end()
                continue
            if char == "`":
                raise VerilogSyntaxError(
                    "compiler directive reached the lexer — run preprocess() first",
                    line,
                    col,
                )
            match = _OPERATOR_RE.match(text, pos)
            if match is None:
                raise VerilogSyntaxError(f"unexpected character {char!r}", line, col)
            tokens.append(Token("op", match.group(0), line, col))
            pos = match.end()
        tokens.append(Token("eof", "", line, 0))
        return tokens


_DIRECTIVE_RE = re.compile(r"`([a-zA-Z_][a-zA-Z0-9_]*)")


def preprocess(
    text: str,
    defines: Optional[Dict[str, str]] = None,
    include_resolver: Optional[Callable[[str], str]] = None,
) -> str:
    """Expand compiler directives, returning plain Verilog text.

    ``defines`` seeds the macro table (like ``+define+`` on a simulator
    command line).  ``include_resolver`` maps an include filename to its
    text; when absent, ``\\`include`` raises.
    """
    macros: Dict[str, str] = dict(defines or {})
    out: List[str] = []
    # Condition stack: each entry is True when the current branch is live.
    live_stack: List[bool] = []
    lines = text.split("\n")
    i = 0
    in_block_comment = False
    while i < len(lines):
        line = lines[i]
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                out.append(line)
                i += 1
                continue
            in_block_comment = False
        stripped = line.lstrip()
        if not in_block_comment and stripped.startswith("`"):
            match = _DIRECTIVE_RE.match(stripped)
            name = match.group(1) if match else ""
            rest = stripped[match.end():].strip() if match else ""
            live = all(live_stack)
            if name == "define":
                if live:
                    parts = rest.split(None, 1)
                    if not parts:
                        raise VerilogSyntaxError("`define without a name", i + 1, 1)
                    if "(" in parts[0]:
                        raise VerilogSyntaxError(
                            "function-like `define macros are not supported", i + 1, 1
                        )
                    body = parts[1] if len(parts) > 1 else ""
                    while body.endswith("\\"):
                        i += 1
                        body = body[:-1] + "\n" + lines[i]
                    macros[parts[0]] = body
                out.append("")
            elif name == "undef":
                if live:
                    macros.pop(rest.strip(), None)
                out.append("")
            elif name == "ifdef":
                live_stack.append(rest.split()[0] in macros if rest.split() else False)
                out.append("")
            elif name == "ifndef":
                live_stack.append(rest.split()[0] not in macros if rest.split() else True)
                out.append("")
            elif name == "else":
                if not live_stack:
                    raise VerilogSyntaxError("`else without `ifdef", i + 1, 1)
                live_stack[-1] = not live_stack[-1]
                out.append("")
            elif name == "endif":
                if not live_stack:
                    raise VerilogSyntaxError("`endif without `ifdef", i + 1, 1)
                live_stack.pop()
                out.append("")
            elif name == "include":
                if live:
                    filename = rest.strip().strip('"')
                    if include_resolver is None:
                        raise VerilogSyntaxError(
                            f"`include {filename!r}: no include resolver configured",
                            i + 1,
                            1,
                        )
                    included = preprocess(
                        include_resolver(filename), macros, include_resolver
                    )
                    out.append(included)
                else:
                    out.append("")
            elif name in ("timescale", "celldefine", "endcelldefine", "resetall",
                          "default_nettype"):
                out.append("")
            else:
                raise VerilogSyntaxError(f"unknown directive `{name}", i + 1, 1)
            i += 1
            continue
        if all(live_stack):
            expanded, in_block_comment = _expand_macros(
                line, macros, i + 1, in_block_comment
            )
            out.append(expanded)
        else:
            out.append("")
        i += 1
    if live_stack:
        raise VerilogSyntaxError("unterminated `ifdef", len(lines), 1)
    return "\n".join(out)


def _expand_macros(
    line: str, macros: Dict[str, str], lineno: int, in_block_comment: bool
) -> "Tuple[str, bool]":
    """Expand macros in the code portions of ``line``.

    Text inside ``//`` and ``/* */`` comments and string literals is
    left untouched; returns the new line and the block-comment state at
    the line's end.
    """
    out: List[str] = []
    pos = 0
    guard = 0
    while pos < len(line):
        if in_block_comment:
            end = line.find("*/", pos)
            if end < 0:
                out.append(line[pos:])
                pos = len(line)
            else:
                out.append(line[pos:end + 2])
                pos = end + 2
                in_block_comment = False
            continue
        char = line[pos]
        if line.startswith("//", pos):
            out.append(line[pos:])
            break
        if line.startswith("/*", pos):
            out.append("/*")
            pos += 2
            in_block_comment = True
            continue
        if char == '"':
            end = pos + 1
            while end < len(line) and line[end] != '"':
                end += 2 if line[end] == "\\" else 1
            out.append(line[pos:min(end + 1, len(line))])
            pos = min(end + 1, len(line))
            continue
        if char == "`":
            match = _DIRECTIVE_RE.match(line, pos)
            if not match:
                raise VerilogSyntaxError("stray ` character", lineno, 1)
            name = match.group(1)
            if name not in macros:
                raise VerilogSyntaxError(f"undefined macro `{name}", lineno, 1)
            guard += 1
            if guard > 100:
                raise VerilogSyntaxError("recursive macro expansion", lineno, 1)
            # splice the body back into the scan stream so nested
            # macros expand too
            line = line[:pos] + macros[name] + line[match.end():]
            continue
        out.append(char)
        pos += 1
    return "".join(out), in_block_comment
