"""Verilog-1995 frontend: lexer, parser, AST, elaboration.

The pipeline is::

    source text
      └─ preprocess  (``\\`define``/``\\`ifdef``/``\\`include``)
      └─ Lexer       (tokens with source coordinates)
      └─ Parser      (per-module ASTs, ``repro.frontend.ast_nodes``)
      └─ elaborate   (hierarchy flattening into a :class:`Design` of
                      nets + processes + continuous assigns)

The supported language is the broad behavioral subset listed in
DESIGN.md — everything the paper's translation schemes exercise,
including all delay/event control, tasks/functions and
non-synthesizable testbench constructs.
"""

from repro.frontend.lexer import Lexer, Token, read_source_file
from repro.frontend.parser import parse_source
from repro.frontend.elaborate import Design, elaborate
from repro.frontend.printer import print_module, print_modules

__all__ = ["Lexer", "Token", "read_source_file", "parse_source", "Design",
           "elaborate", "print_module", "print_modules"]
