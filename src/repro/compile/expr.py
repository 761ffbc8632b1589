"""Expression compilation: AST → symbolic evaluation closures.

A compiled expression is a :class:`CExpr`: its self-determined width
and signedness (computed once, per 1364's sizing rules), the set of
nets it reads (used for ``@*``, ``wait`` and continuous-assign
sensitivity), and an ``eval(kernel, env, control, width)`` closure that
produces a :class:`FourVec` of exactly ``width`` bits.  The expression
type is static too: an unsigned operator compiles its signed
context-determined operands unsigned (``ExprCompiler._unsigned``).

Most expressions also get a ``word`` twin for the compiled tier, built
on :mod:`repro.fourval.word`, the one home of Verilog's integer
semantics, which :mod:`repro.fourval.ops` uses for its word level too.

``env`` carries function-local values during user-function evaluation
(functions contain no delays, so they evaluate inline as pure data
flow); ``control`` is the paper's symbolic path condition, threaded
through so ``$random`` call sites can log (variable, control) pairs for
error-trace resimulation (Section 5).

Left-hand sides compile to :class:`LhsPlan` objects exposing both an
immediate (blocking) write and a deferred (non-blocking) update whose
target indices are captured at schedule time, per 1364.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.bdd import FALSE, TRUE
from repro.compile.instructions import NbaUpdate
from repro.errors import CompileError
from repro.frontend import ast_nodes as ast
from repro.frontend.elaborate import NetInfo, Scope
from repro.fourval import FourVec, ops
from repro.fourval import word as words
from repro.fourval.vector import BIT_X

Env = Optional[Dict[str, FourVec]]
EvalFn = Callable[["object", Env, int, int], FourVec]
#: word(kernel, ctx_width) -> raw unsigned int or None — see CExpr.word.
WordFn = Callable[["object", int], Optional[int]]


@dataclass
class CExpr:
    """A compiled expression."""

    width: int
    signed: bool
    eval: EvalFn
    support: FrozenSet[str] = frozenset()
    flexible: bool = False  # $random: takes any context width without inflating it
    #: compile-time-known: the value never depends on kernel state, the
    #: function-local env, the path condition, or simulation time.
    #: Const expressions are folded once per context width (see
    #: ``ConstFolder.fold``) instead of being re-evaluated per statement.
    const: bool = False
    #: Optional word-level twin of ``eval`` for the compiled tier:
    #: ``word(kern, ctx_width)`` returns the raw *unsigned* integer of
    #: exactly ``ctx_width`` bits that ``eval`` would produce — iff
    #: ``eval`` would return a fully-known vector — else ``None`` (the
    #: caller then falls back to the generic ``eval``).  Word closures
    #: are pure: expressions with side effects ($random, function
    #: calls) and env-dependent ones (function locals) never get one.
    word: Optional[WordFn] = None
    #: Number of ``fastpath_word_ops`` the *generic* evaluation of this
    #: tree counts when every operand is concrete.  A word-path caller
    #: adds exactly this to ``mgr._fp_word`` on a hit so counter
    #: metrics stay bit-identical across tiers.
    word_cost: int = 0
    #: Signedness of the vector ``eval`` actually returns at runtime
    #: where it differs from the static ``signed`` (e.g. bitwise ops
    #: rebuild unsigned).  ``None`` means same as ``signed``.  Only
    #: consumers that convert a result via two's complement (index
    #: expressions) care.
    rt_signed: Optional[bool] = None
    #: Set on a signed operator whose context-determined operands are
    #: signed: rebuilds it with those operands read unsigned, for its
    #: use inside an unsigned expression (``ExprCompiler._unsigned``).
    retype: Optional[Callable[[], "CExpr"]] = None


def _rt_signed(cexpr: CExpr) -> bool:
    """Runtime signedness of a compiled expression's result vector."""
    return cexpr.signed if cexpr.rt_signed is None else cexpr.rt_signed


def _binary_word(fn, lword: WordFn, rword: WordFn, lw: int,
                 rw: Optional[int], signed: bool, sized: bool) -> WordFn:
    """Word twin of a binary operator.

    ``fn`` is the operator's :mod:`repro.fourval.word` function, picked
    at compile time.  The left operand is read at ``lw`` bits, or at
    the context width when ``sized`` (a context-determined operator)
    and that is wider; the right operand at ``rw`` bits, or at the left
    operand's width when ``rw`` is ``None``.  ``None`` from ``fn``
    (a zero divisor) means the generic result is all X.
    """

    def word(kern, ctx_width):
        opw = ctx_width if sized and ctx_width > lw else lw
        lv = lword(kern, opw)
        if lv is None:
            return None
        rv = rword(kern, opw if rw is None else rw)
        if rv is None:
            return None
        result = fn(lv, rv, opw, signed)
        if result is None:
            return None
        return result & ((1 << ctx_width) - 1)

    return word


def _unary_word(fn, oword: WordFn, ow: int, sized: bool) -> WordFn:
    """Word twin of a unary or reduction operator (see :func:`_binary_word`)."""

    def word(kern, ctx_width):
        opw = ctx_width if sized and ctx_width > ow else ow
        v = oword(kern, opw)
        if v is None:
            return None
        return fn(v, opw) & ((1 << ctx_width) - 1)

    return word


def _zero_extended(cexpr: CExpr) -> CExpr:
    """A signed leaf as an operand of an unsigned expression: its own
    value, zero-extended to the context (1364-2001 §4.5.2)."""
    inner, width, inner_word = cexpr.eval, cexpr.width, cexpr.word

    def ev(kern, env, ctrl, ctx_width):
        value = inner(kern, env, ctrl, width)
        return value.as_signed(False).resize(ctx_width)

    word = None
    if inner_word is not None:
        def word(kern, ctx_width):
            v = inner_word(kern, width)
            if v is None:
                return None
            return words.resize(v, width, False, ctx_width)

    return dataclasses.replace(cexpr, signed=False, eval=ev, word=word,
                               rt_signed=None)


class ConstFolder:
    """Compile-time constant folding for one ``compile_design`` call.

    Const eval closures only ever touch ``kern.mgr``, so the folder
    stands in for a kernel: every folded expression of one compilation
    evaluates on the folder's private scratch manager, which keeps
    folding independent of any simulation.  Constant expressions only
    combine terminal rails, so the scratch arena never grows past the
    two terminals and the resulting bit tuples are valid in *any*
    manager (terminal node ids are universal).  Each compilation makes
    its own folder (no module-level state), so two designs compiling
    or simulating in one process share nothing.
    """

    __slots__ = ("mgr",)

    def __init__(self) -> None:
        from repro.bdd import BddManager

        self.mgr = BddManager()

    def fold(self, cexpr: CExpr) -> CExpr:
        """Wrap a const expression with a per-width precomputed-bits cache."""
        inner = cexpr.eval
        cache: Dict[int, FourVec] = {}

        def ev(kern, env, ctrl, ctx_width):
            folded = cache.get(ctx_width)
            if folded is None:
                folded = inner(self, None, TRUE, ctx_width)
                cache[ctx_width] = folded
            result = FourVec(kern.mgr, folded.bits, folded.signed)
            result._summary = folded.concrete_summary()
            return result

        ev._const_folded = True

        # Word twin: the fold already did all the work on the scratch
        # manager, so the generic per-statement cost is zero ops and the
        # word path just reads the cached bits back as an integer.
        def word(kern, ctx_width):
            folded = cache.get(ctx_width)
            if folded is None:
                folded = inner(self, None, TRUE, ctx_width)
                cache[ctx_width] = folded
            return folded.known_int()

        # Runtime signedness is width-independent (resize preserves the
        # flag); probe it once, eagerly, at the self-determined width.
        probe_width = max(cexpr.width, 1)
        probe = inner(self, None, TRUE, probe_width)
        cache[probe_width] = probe
        return CExpr(width=cexpr.width, signed=cexpr.signed, eval=ev,
                     support=cexpr.support, flexible=cexpr.flexible,
                     const=True, word=word, word_cost=0,
                     rt_signed=probe.signed, retype=cexpr.retype)


@dataclass
class LhsPlan:
    """A compiled assignment target."""

    width: int
    #: write(kernel, env, value, control) — immediate blocking write
    write: Callable[["object", Env, FourVec, int], None]
    #: capture(kernel, env, value, control) -> NbaUpdate: the deferred
    #: non-blocking write with its BDD payload in enumerable fields
    capture: Callable[["object", Env, FourVec, int], NbaUpdate]
    support: FrozenSet[str] = frozenset()
    #: Word-level twins for the compiled tier, set only for whole-net
    #: variable targets: ``fast_write(kern, raw)`` /
    #: ``fast_capture(kern, raw) -> NbaUpdate`` take the raw unsigned
    #: RHS word (already truncated to ``width``) and are bit-identical
    #: to write/capture under ``control == TRUE``.
    fast_write: Optional[Callable[["object", int], None]] = None
    fast_capture: Optional[Callable[["object", int], NbaUpdate]] = None


class CompileContext:
    """Name-resolution context while compiling one process/assign.

    ``local_map`` renames identifiers to shadow nets (task inlining);
    ``func_locals`` marks names that resolve to the runtime ``env``
    (function evaluation); ``folder`` is the compilation's shared
    :class:`ConstFolder`.  ``pure`` is cleared by anything compiled
    under this context that reads or writes design state, calls a
    system function or calls an impure function: a function body
    that leaves it set depends on its arguments alone.  ``derivable``
    is cleared by anything that may raise on a symbolic operand (a
    ``repeat`` count, a ``**`` exponent, a call to a function that
    clears it): only a body that leaves it set may answer a call under
    a narrower control from its TRUE-control result.  ``func_tokens``
    maps ``(scope path, function name)`` to the memo token every call
    site of that function shares; one dict serves a whole compilation.
    """

    def __init__(self, design, scope: Scope, folder: ConstFolder,
                 process_name: str = "") -> None:
        self.design = design
        self.scope = scope
        self.folder = folder
        self.process_name = process_name
        self.local_map: Dict[str, str] = {}
        self.func_locals: Dict[str, Tuple[int, bool]] = {}  # name -> (width, signed)
        self.callsite_factory = None  # set by the statement compiler / kernel glue
        self.pure = True
        self.derivable = True
        self.func_tokens: Dict[Tuple[str, str], object] = {}
        self._function_stack: List[str] = []

    def child_with_locals(self, local_map: Dict[str, str]) -> "CompileContext":
        child = self.module_context()
        child.local_map = {**self.local_map, **local_map}
        child.func_locals = dict(self.func_locals)
        return child

    def module_context(self) -> "CompileContext":
        """A context that sees the module instance's names only.

        Function bodies compile under one: a function sees its own
        locals and the module's parameters and nets, never the caller's
        locals, named-block declarations or inlined-task shadows (1364
        §12.6).
        """
        child = CompileContext(self.design, self.scope, self.folder,
                               self.process_name)
        child.callsite_factory = self.callsite_factory
        child.func_tokens = self.func_tokens
        child._function_stack = self._function_stack
        return child


class ExprCompiler:
    """Compiles expression ASTs under a :class:`CompileContext`."""

    def __init__(self, ctx: CompileContext) -> None:
        self.ctx = ctx

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def compile(self, expr: ast.Expr) -> CExpr:
        method = getattr(self, f"_compile_{type(expr).__name__.lower()}", None)
        if method is None:
            raise CompileError(f"cannot compile expression {type(expr).__name__}")
        result = method(expr)
        if result.const and not getattr(result.eval, "_const_folded", False):
            result = self.ctx.folder.fold(result)
        return result

    def _unsigned(self, cexpr: CExpr) -> CExpr:
        """``cexpr`` as a context-determined operand of an unsigned
        expression: signed operands below it read unsigned, down to
        the leaves (1364-2001 §4.5.1).  Self-determined operands keep
        their own type."""
        if not cexpr.signed:
            return cexpr
        if cexpr.retype is not None:
            result = cexpr.retype()
        else:
            if cexpr.const:
                # a constant leaf whose sign bit is a known 0 extends the
                # same either way (a folded constant's word reads its bits)
                value = cexpr.word(self.ctx.folder, cexpr.width)
                if value is not None and not value >> (cexpr.width - 1):
                    return cexpr
            result = _zero_extended(cexpr)
        return self.ctx.folder.fold(result) if result.const else result

    def compile_condition(self, expr: ast.Expr) -> CExpr:
        """Compile an expression used as a truth condition."""
        return self.compile(expr)

    def compile_lhs(self, expr: ast.Expr) -> LhsPlan:
        if isinstance(expr, ast.Identifier):
            return self._lhs_identifier(expr)
        if isinstance(expr, ast.Index):
            return self._lhs_index(expr)
        if isinstance(expr, ast.PartSelect):
            return self._lhs_part_select(expr)
        if isinstance(expr, ast.Concat):
            return self._lhs_concat(expr)
        raise CompileError(
            f"invalid assignment target {type(expr).__name__}"
        )

    # ------------------------------------------------------------------
    # identifier resolution
    # ------------------------------------------------------------------

    def _resolve(self, ident: ast.Identifier) -> Tuple[str, NetInfo]:
        self.ctx.pure = False
        name = ident.parts[0]
        if len(ident.parts) == 1:
            if name in self.ctx.local_map:
                full = self.ctx.local_map[name]
                return full, self.ctx.design.net(full)
        full = self.ctx.scope.lookup(ident.parts)
        if full is None:
            raise CompileError(
                f"unknown identifier {ident.name!r} in {self.ctx.scope.path or 'top'} "
                f"(line {ident.line})"
            )
        return full, self.ctx.design.net(full)

    # ------------------------------------------------------------------
    # leaves
    # ------------------------------------------------------------------

    def _compile_number(self, expr: ast.Number) -> CExpr:
        bits = expr.bits
        width = expr.width
        signed = expr.signed

        def ev(kern, env, ctrl, ctx_width):
            vec = FourVec.from_verilog_bits(kern.mgr, bits, signed)
            return vec.resize(ctx_width)

        return CExpr(width=width, signed=signed, eval=ev, const=True)

    def _compile_realnumber(self, expr: ast.RealNumber) -> CExpr:
        value = int(round(expr.value))

        def ev(kern, env, ctrl, ctx_width):
            return FourVec.from_int(kern.mgr, value, ctx_width)

        return CExpr(width=32, signed=True, eval=ev, const=True)

    def _compile_stringliteral(self, expr: ast.StringLiteral) -> CExpr:
        data = expr.value.encode("latin-1", "replace")
        width = max(8 * len(data), 8)
        value = int.from_bytes(data, "big") if data else 0

        def ev(kern, env, ctrl, ctx_width):
            return FourVec.from_int(kern.mgr, value, ctx_width)

        return CExpr(width=width, signed=False, eval=ev, const=True)

    def _compile_identifier(self, expr: ast.Identifier) -> CExpr:
        name = expr.parts[0]
        if len(expr.parts) == 1:
            if name in self.ctx.func_locals:
                width, signed = self.ctx.func_locals[name]

                def ev_local(kern, env, ctrl, ctx_width):
                    value = env[name]
                    return value.as_signed(signed).resize(ctx_width)

                return CExpr(width=width, signed=signed, eval=ev_local)
            if name not in self.ctx.local_map and name in self.ctx.scope.params:
                value = self.ctx.scope.params[name]

                def ev_param(kern, env, ctrl, ctx_width):
                    return FourVec.from_int(kern.mgr, value, ctx_width, signed=True)

                return CExpr(width=32, signed=True, eval=ev_param, const=True)
        full, info = self._resolve(expr)
        if info.array is not None:
            raise CompileError(
                f"memory {full!r} used without a word index (line {expr.line})"
            )
        signed = info.signed or info.kind in ("integer",)
        width = info.width

        def ev(kern, env, ctrl, ctx_width):
            return kern.state.value(full).as_signed(signed).resize(ctx_width)

        def word(kern, ctx_width):
            raw = kern.state.known_word(full)
            if raw is None:
                return None
            return words.resize(raw, width, signed, ctx_width)

        return CExpr(width=width, signed=signed, eval=ev,
                     support=frozenset([full]), word=word)

    # ------------------------------------------------------------------
    # selects
    # ------------------------------------------------------------------

    def _compile_index(self, expr: ast.Index) -> CExpr:
        if not isinstance(expr.base, ast.Identifier):
            raise CompileError("bit select base must be an identifier")
        base_name = expr.base.parts[0]
        if len(expr.base.parts) == 1 and base_name in self.ctx.func_locals:
            base_width, _ = self.ctx.func_locals[base_name]
            index = self.compile(expr.index)

            def ev_local_bit(kern, env, ctrl, ctx_width):
                base = env[base_name]
                idx = index.eval(kern, env, ctrl, max(index.width, 32))
                bit = _select_bit_flat(kern, base, idx, base_width)
                return bit.resize(ctx_width)

            return CExpr(width=1, signed=False, eval=ev_local_bit,
                         support=index.support)
        full, info = self._resolve(expr.base)
        index = self.compile(expr.index)
        iw = max(index.width, 32)
        idx_word = index.word
        idx_signed = _rt_signed(index)
        if info.array is not None:
            # memory word read
            width = info.width
            low, high = info.array
            signed = info.signed

            def ev_word(kern, env, ctrl, ctx_width):
                idx = index.eval(kern, env, ctrl, max(index.width, 32))
                value = kern.state.read_array(full, idx, low, high)
                return value.as_signed(signed).resize(ctx_width)

            word_mem = None
            if idx_word is not None:
                def word_mem(kern, ctx_width):
                    iv = idx_word(kern, iw)
                    if iv is None:
                        return None
                    if idx_signed:
                        iv = words.to_signed(iv, iw)
                    if not low <= iv <= high:
                        return None  # reads X
                    stored = kern.state.array_words(full).get(iv)
                    if stored is None:
                        return None  # unwritten word reads X
                    raw = stored.known_int()
                    if raw is None:
                        return None
                    return words.resize(raw, width, signed, ctx_width)

            return CExpr(width=width, signed=signed, eval=ev_word,
                         support=index.support | frozenset([full]),
                         word=word_mem, word_cost=index.word_cost)

        # bit select
        def ev_bit(kern, env, ctrl, ctx_width):
            base = kern.state.value(full)
            idx = index.eval(kern, env, ctrl, max(index.width, 32))
            bit = _select_bit(kern, base, idx, info)
            return bit.resize(ctx_width)

        word_bit = None
        if idx_word is not None:
            def word_bit(kern, ctx_width):
                iv = idx_word(kern, iw)
                if iv is None:
                    return None
                if idx_signed:
                    iv = words.to_signed(iv, iw)
                offset = info.bit_offset(iv)
                if not 0 <= offset < info.width:
                    return None  # out-of-range reads X
                slot = kern.state.peek(full)
                if type(slot) is int:
                    return (slot >> offset) & 1
                mask, value = slot.concrete_summary()
                if not (mask >> offset) & 1:
                    return None  # selected bit not concrete-known
                return (value >> offset) & 1

        return CExpr(width=1, signed=False, eval=ev_bit,
                     support=index.support | frozenset([full]),
                     word=word_bit, word_cost=index.word_cost)

    def _compile_partselect(self, expr: ast.PartSelect) -> CExpr:
        if not isinstance(expr.base, ast.Identifier):
            raise CompileError("part select base must be an identifier")
        base_name = expr.base.parts[0]
        if len(expr.base.parts) == 1 and base_name in self.ctx.func_locals:
            from repro.frontend.elaborate import const_eval

            msb = const_eval(expr.msb, self.ctx.scope)
            lsb = const_eval(expr.lsb, self.ctx.scope)
            offset, width = min(msb, lsb), abs(msb - lsb) + 1

            def ev_local_part(kern, env, ctrl, ctx_width):
                return env[base_name].slice(offset, width).resize(ctx_width)

            return CExpr(width=width, signed=False, eval=ev_local_part)
        full, info = self._resolve(expr.base)
        if info.array is not None:
            raise CompileError("part select on a memory word is not allowed")
        from repro.frontend.elaborate import const_eval

        msb = const_eval(expr.msb, self.ctx.scope)
        lsb = const_eval(expr.lsb, self.ctx.scope)
        offset = min(info.bit_offset(msb), info.bit_offset(lsb))
        width = abs(msb - lsb) + 1

        def ev(kern, env, ctrl, ctx_width):
            base = kern.state.value(full)
            return base.slice(offset, width).resize(ctx_width)

        word = None
        if 0 <= offset and offset + width <= info.width:
            seg_mask = (1 << width) - 1

            def word(kern, ctx_width):
                slot = kern.state.peek(full)
                if type(slot) is int:
                    raw = (slot >> offset) & seg_mask
                    return words.resize(raw, width, False, ctx_width)
                mask, value = slot.concrete_summary()
                if (mask >> offset) & seg_mask != seg_mask:
                    return None  # some selected bit not concrete-known
                raw = (value >> offset) & seg_mask
                return words.resize(raw, width, False, ctx_width)

        return CExpr(width=width, signed=False, eval=ev,
                     support=frozenset([full]), word=word)

    def _compile_concat(self, expr: ast.Concat) -> CExpr:
        parts = [self.compile(p) for p in expr.parts]
        width = sum(p.width for p in parts)
        support = frozenset().union(*[p.support for p in parts])

        def ev(kern, env, ctrl, ctx_width):
            # parts are self-determined; MSB-first in source order
            vec = None
            for part in parts:
                value = part.eval(kern, env, ctrl, part.width)
                vec = value if vec is None else vec.concat(value)
            return vec.resize(ctx_width)

        word = None
        if all(p.word is not None for p in parts):
            part_words = [(p.word, p.width) for p in parts]

            def word(kern, ctx_width):
                acc = 0
                for pword, pw in part_words:
                    pv = pword(kern, pw)
                    if pv is None:
                        return None
                    acc = (acc << pw) | pv
                return words.resize(acc, width, False, ctx_width)

        return CExpr(width=width, signed=False, eval=ev, support=support,
                     const=all(p.const for p in parts),
                     word=word, word_cost=sum(p.word_cost for p in parts))

    def _compile_repl(self, expr: ast.Repl) -> CExpr:
        from repro.frontend.elaborate import checked_width, const_eval

        count = const_eval(expr.count, self.ctx.scope)
        value = self.compile(expr.value)
        width = checked_width(
            count * value.width,
            f"line {expr.line}: replication {{{count}{{...}}}}")

        def ev(kern, env, ctrl, ctx_width):
            inner = value.eval(kern, env, ctrl, value.width)
            return inner.replicate(count).resize(ctx_width)

        word = None
        if value.word is not None and count >= 1:
            inner_word, inner_w = value.word, value.width

            def word(kern, ctx_width):
                iv = inner_word(kern, inner_w)
                if iv is None:
                    return None
                acc = 0
                for _ in range(count):
                    acc = (acc << inner_w) | iv
                return words.resize(acc, width, False, ctx_width)

        return CExpr(width=width, signed=False, eval=ev, support=value.support,
                     const=value.const, word=word, word_cost=value.word_cost)

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------

    #: op -> (ops function, word ops it counts, context-determined)
    _UNARY_OPS = {
        "-": (ops.negate, 1, True), "~": (ops.bitwise_not, 1, True),
        "!": (ops.logical_not, 1, False),
        "&": (ops.reduce_and, 1, False), "|": (ops.reduce_or, 1, False),
        "^": (ops.reduce_xor, 1, False), "~&": (ops.reduce_nand, 2, False),
        "~|": (ops.reduce_nor, 2, False), "~^": (ops.reduce_xnor, 2, False),
        "^~": (ops.reduce_xnor, 2, False),
    }

    def _compile_unary(self, expr: ast.Unary) -> CExpr:
        operand = self.compile(expr.operand)
        if expr.op == "+":
            return operand
        if expr.op not in self._UNARY_OPS:
            raise CompileError(f"unsupported unary operator {expr.op!r}")
        return self._unary(expr.op, operand)

    def _unary(self, op: str, operand: CExpr) -> CExpr:
        func, own_cost, sized = self._UNARY_OPS[op]
        ow = operand.width
        if sized:  # - ~: the operand takes the context width and type
            width, signed = ow, operand.signed
            rt = _rt_signed(operand) if op == "-" else False
        else:  # ! and reductions: a self-determined operand, one bit
            width, signed, rt = 1, False, None

        def ev(kern, env, ctrl, ctx_width):
            opw = ctx_width if sized and ctx_width > ow else ow
            value = operand.eval(kern, env, ctrl, opw)
            return func(value).resize(ctx_width)

        word = None
        if operand.word is not None:
            word = _unary_word(words.UNARY[op], operand.word, ow, sized)
        retype = None
        if signed:
            retype = lambda: self._unary(op, self._unsigned(operand))
        return CExpr(width=width, signed=signed, eval=ev,
                     support=operand.support, const=operand.const,
                     word=word, word_cost=operand.word_cost + own_cost,
                     rt_signed=rt, retype=retype)

    _ARITH_OPS = {
        "+": ops.add, "-": ops.subtract, "*": ops.multiply,
        "/": ops.divide, "%": ops.modulo, "**": ops.power,
        "&": ops.bitwise_and, "|": ops.bitwise_or,
        "^": ops.bitwise_xor, "~^": ops.bitwise_xnor, "^~": ops.bitwise_xnor,
    }
    _COMPARE_OPS = {
        "==": ops.equal, "!=": ops.not_equal,
        "===": ops.case_equal, "!==": ops.case_not_equal,
        "<": ops.less_than, "<=": ops.less_equal,
        ">": ops.greater_than, ">=": ops.greater_equal,
    }
    _LOGICAL_OPS = {"&&": ops.logical_and, "||": ops.logical_or}
    _SHIFT_OPS = {
        "<<": ops.shift_left, ">>": ops.shift_right, ">>>": ops.arith_shift_right,
    }
    #: ops that count two word ops (their generic form nests two calls)
    _TWO_OP = frozenset(("~^", "^~", "!=", "<=", ">="))

    def _compile_binary(self, expr: ast.Binary) -> CExpr:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if expr.op == "**":
            self.ctx.derivable = False
        if expr.op not in words.BINARY:
            raise CompileError(f"unsupported binary operator {expr.op!r}")
        return self._binary(expr.op, left, right)

    def _binary(self, op: str, left: CExpr, right: CExpr) -> CExpr:
        """Compile ``left op right`` from compiled operands.

        Arithmetic, bitwise and comparison operands share one type:
        signed only if both are, else both read unsigned.  A shift's
        left operand takes the context; its amount, like the logical
        operands, is self-determined.
        """
        fn = words.BINARY[op]
        lw, rw = left.width, right.width
        retype = None
        rt = None
        if op in self._SHIFT_OPS:
            func = self._SHIFT_OPS[op]
            width, signed, rt = lw, left.signed, False
            wargs = (lw, rw, signed, True)
            if signed:
                retype = lambda: self._binary(
                    op, self._unsigned(left), right)

            def ev(kern, env, ctrl, ctx_width):
                opw = ctx_width if ctx_width > lw else lw
                lv = left.eval(kern, env, ctrl, opw).as_signed(signed)
                rv = right.eval(kern, env, ctrl, rw)
                return func(lv, rv).resize(ctx_width)
        elif op in self._LOGICAL_OPS:
            func = self._LOGICAL_OPS[op]
            width, signed = 1, False
            wargs = (lw, rw, False, False)

            def ev(kern, env, ctrl, ctx_width):
                lv = left.eval(kern, env, ctrl, lw)
                rv = right.eval(kern, env, ctrl, rw)
                return func(lv, rv).resize(ctx_width)
        else:
            opsigned = left.signed and right.signed
            if not opsigned and (left.signed or right.signed):
                left, right = self._unsigned(left), self._unsigned(right)
            opw = max(lw, rw)
            if op in self._COMPARE_OPS:
                func = self._COMPARE_OPS[op]
                width, signed, sized, opw = 1, False, False, max(opw, 1)
            else:
                func = self._ARITH_OPS[op]
                width, signed, sized = opw, opsigned, True
                if op in ("&", "|", "^", "~^", "^~", "**"):
                    rt = False
                if signed:
                    retype = lambda: self._binary(
                        op, self._unsigned(left), self._unsigned(right))
            wargs = (opw, None, opsigned, sized)

            def ev(kern, env, ctrl, ctx_width):
                w = ctx_width if sized and ctx_width > opw else opw
                lv = left.eval(kern, env, ctrl, w).as_signed(opsigned)
                rv = right.eval(kern, env, ctrl, w).as_signed(opsigned)
                return func(lv, rv).resize(ctx_width)

        word = None
        if left.word is not None and right.word is not None:
            word = _binary_word(fn, left.word, right.word, *wargs)
        own_cost = 2 if op in self._TWO_OP else 1
        return CExpr(width=width, signed=signed, eval=ev,
                     support=left.support | right.support,
                     const=left.const and right.const, word=word,
                     word_cost=left.word_cost + right.word_cost + own_cost,
                     rt_signed=rt, retype=retype)

    def _compile_ternary(self, expr: ast.Ternary) -> CExpr:
        return self._ternary(self.compile(expr.cond),
                             self.compile(expr.then_value),
                             self.compile(expr.else_value))

    def _ternary(self, cond: CExpr, then_value: CExpr,
                 else_value: CExpr) -> CExpr:
        width = max(then_value.width, else_value.width)
        signed = then_value.signed and else_value.signed
        retype = None
        if signed:
            retype = lambda: self._ternary(
                cond, self._unsigned(then_value), self._unsigned(else_value))
        elif then_value.signed or else_value.signed:
            then_value = self._unsigned(then_value)
            else_value = self._unsigned(else_value)
        support = cond.support | then_value.support | else_value.support

        def ev(kern, env, ctrl, ctx_width):
            opw = max(width, ctx_width)
            cv = cond.eval(kern, env, ctrl, cond.width)
            tv = then_value.eval(kern, env, ctrl, opw)
            fv = else_value.eval(kern, env, ctrl, opw)
            return ops.conditional(cv, tv, fv).resize(ctx_width)

        word = None
        if (cond.word is not None and then_value.word is not None
                and else_value.word is not None):
            cword, cw = cond.word, cond.width
            tword, fword = then_value.word, else_value.word

            def word(kern, ctx_width):
                # the generic path evaluates all three operands eagerly,
                # so the word twin must too (counter mirroring)
                opw = max(width, ctx_width)
                cv = cword(kern, cw)
                if cv is None:
                    return None
                tv = tword(kern, opw)
                if tv is None:
                    return None
                fv = fword(kern, opw)
                if fv is None:
                    return None
                return (tv if cv else fv) & ((1 << ctx_width) - 1)

        rt = _rt_signed(then_value) and _rt_signed(else_value)
        return CExpr(width=width, signed=signed, eval=ev, support=support,
                     const=cond.const and then_value.const and else_value.const,
                     word=word,
                     word_cost=(cond.word_cost + then_value.word_cost
                                + else_value.word_cost + 1),
                     rt_signed=rt, retype=retype)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _compile_systemcall(self, expr: ast.SystemCall) -> CExpr:
        name = expr.name
        if name not in ("$signed", "$unsigned"):
            self.ctx.pure = False
        if name in ("$random", "$randomxz"):
            four_valued = name == "$randomxz"
            if expr.args:
                raise CompileError(f"{name} takes no arguments (seed unsupported)")
            callsite = self.ctx.callsite_factory(name, expr.line)

            def ev_random(kern, env, ctrl, ctx_width):
                return kern.new_symbol(callsite, ctx_width, four_valued, ctrl)

            return CExpr(width=1, signed=False, eval=ev_random, flexible=True)
        if name == "$time" or name == "$stime" or name == "$realtime":
            def ev_time(kern, env, ctrl, ctx_width):
                return FourVec.from_int(kern.mgr, kern.now, ctx_width)

            def word_time(kern, ctx_width):
                return kern.now & ((1 << ctx_width) - 1)

            return CExpr(width=64, signed=False, eval=ev_time, word=word_time)
        if name in ("$signed", "$unsigned"):
            if len(expr.args) != 1:
                raise CompileError(f"{name} takes one argument")
            inner = self.compile(expr.args[0])
            signed = name == "$signed"

            def ev_cast(kern, env, ctrl, ctx_width):
                value = inner.eval(kern, env, ctrl, inner.width)
                return value.as_signed(signed).resize(ctx_width)

            word_cast = None
            if inner.word is not None:
                inner_word, inner_w = inner.word, inner.width

                def word_cast(kern, ctx_width):
                    v = inner_word(kern, inner_w)
                    if v is None:
                        return None
                    return words.resize(v, inner_w, signed, ctx_width)

            return CExpr(width=inner.width, signed=signed, eval=ev_cast,
                         support=inner.support, const=inner.const,
                         word=word_cast, word_cost=inner.word_cost)
        raise CompileError(f"unsupported system function {name!r}")

    def _compile_functioncall(self, expr: ast.FunctionCall) -> CExpr:
        func = self.ctx.scope.find_function(expr.name)
        if func is None:
            raise CompileError(f"unknown function {expr.name!r} (line {expr.line})")
        if expr.name in self.ctx._function_stack:
            raise CompileError(f"recursive function {expr.name!r}")
        from repro.compile.funcs import FunctionEvaluator

        self.ctx._function_stack.append(expr.name)
        try:
            evaluator = FunctionEvaluator(self.ctx, func)
        finally:
            self.ctx._function_stack.pop()
        if not evaluator.pure:
            self.ctx.pure = False
        if not evaluator.derivable:
            self.ctx.derivable = False
        if len(expr.args) != len(evaluator.port_names):
            raise CompileError(
                f"function {expr.name!r} expects {len(evaluator.port_names)} "
                f"arguments, got {len(expr.args)}"
            )
        args = [self.compile(a) for a in expr.args]
        support = evaluator.support.union(*[a.support for a in args]) \
            if args else evaluator.support

        def ev(kern, env, ctrl, ctx_width):
            values = [
                arg.eval(kern, env, ctrl, pw)
                for arg, pw in zip(args, evaluator.port_widths)
            ]
            result = evaluator.call(kern, env, ctrl, values)
            return result.as_signed(evaluator.signed).resize(ctx_width)

        return CExpr(width=evaluator.width, signed=evaluator.signed, eval=ev,
                     support=support)

    # ------------------------------------------------------------------
    # LHS plans
    # ------------------------------------------------------------------

    def _lhs_identifier(self, expr: ast.Identifier) -> LhsPlan:
        name = expr.parts[0]
        if len(expr.parts) == 1 and name in self.ctx.func_locals:
            width, signed = self.ctx.func_locals[name]

            def write_local(kern, env, value, control):
                old = env[name]
                env[name] = value.resize(width).ite(control, old)

            def capture_local(kern, env, value, control):
                raise CompileError("non-blocking assignment inside a function")

            return LhsPlan(width=width, write=write_local, capture=capture_local)
        full, info = self._resolve(expr)
        _require_variable(info)
        if info.array is not None:
            raise CompileError(f"assignment to whole memory {full!r}")
        width = info.width

        def write(kern, env, value, control):
            kern.write_net(full, value.resize(width), control)

        def commit(kern2, vecs, controls):
            kern2.write_net(full, vecs[0], controls[0])

        def capture(kern, env, value, control):
            return NbaUpdate(commit, vecs=[value.resize(width)],
                             controls=[control], spec=("net", full))

        # Word twins for the compiled tier: under control == TRUE a
        # fully-known RHS writes exactly the from_int constant vector.
        # The blocking form parks the raw word in the store without
        # materializing it (the plan width is the declared width, so
        # the mask contract of write_net_raw holds); the NBA capture
        # must materialize because queued updates are GC roots and
        # checkpoint images.
        def fast_write(kern, raw):
            kern.write_net_raw(full, raw)

        def fast_capture(kern, raw):
            return NbaUpdate(commit,
                             vecs=[FourVec.from_int(kern.mgr, raw, width)],
                             controls=[TRUE], spec=("net", full))

        return LhsPlan(width=width, write=write, capture=capture,
                       support=frozenset([full]),
                       fast_write=fast_write, fast_capture=fast_capture)

    def _lhs_index(self, expr: ast.Index) -> LhsPlan:
        if not isinstance(expr.base, ast.Identifier):
            raise CompileError("bit-select assignment base must be an identifier")
        base_name = expr.base.parts[0]
        if len(expr.base.parts) == 1 and base_name in self.ctx.func_locals:
            base_width, _ = self.ctx.func_locals[base_name]
            index = self.compile(expr.index)

            def write_local_bit(kern, env, value, control):
                idx = index.eval(kern, env, control, max(index.width, 32))
                env[base_name] = _merged_bit_write(
                    kern, env[base_name], idx, value, control, base_width
                )

            def capture_local_bit(kern, env, value, control):
                raise CompileError("non-blocking assignment inside a function")

            return LhsPlan(width=1, write=write_local_bit,
                           capture=capture_local_bit)
        full, info = self._resolve(expr.base)
        _require_variable(info)
        index = self.compile(expr.index)
        if info.array is not None:
            low, high = info.array
            width = info.width

            def write_word(kern, env, value, control):
                idx = index.eval(kern, env, control, max(index.width, 32))
                kern.write_array(full, idx, value.resize(width), control, low, high)

            def commit_word(kern2, vecs, controls):
                kern2.write_array(full, vecs[0], vecs[1], controls[0],
                                  low, high)

            def capture_word(kern, env, value, control):
                idx = index.eval(kern, env, control, max(index.width, 32))
                return NbaUpdate(commit_word,
                                 vecs=[idx, value.resize(width)],
                                 controls=[control],
                                 spec=("word", full, low, high))

            return LhsPlan(width=width, write=write_word, capture=capture_word,
                           support=frozenset([full]))

        def write_bit(kern, env, value, control):
            idx = index.eval(kern, env, control, max(index.width, 32))
            _write_selected_bit(kern, full, info, idx, value, control)

        def commit_bit(kern2, vecs, controls):
            _write_selected_bit(kern2, full, info, vecs[0], vecs[1],
                                controls[0])

        def capture_bit(kern, env, value, control):
            idx = index.eval(kern, env, control, max(index.width, 32))
            return NbaUpdate(commit_bit, vecs=[idx, value.resize(1)],
                             controls=[control], spec=("bit", full))

        return LhsPlan(width=1, write=write_bit, capture=capture_bit,
                       support=frozenset([full]))

    def _lhs_part_select(self, expr: ast.PartSelect) -> LhsPlan:
        if not isinstance(expr.base, ast.Identifier):
            raise CompileError("part-select assignment base must be an identifier")
        from repro.frontend.elaborate import const_eval

        msb = const_eval(expr.msb, self.ctx.scope)
        lsb = const_eval(expr.lsb, self.ctx.scope)
        base_name = expr.base.parts[0]
        if len(expr.base.parts) == 1 and base_name in self.ctx.func_locals:
            base_width, _ = self.ctx.func_locals[base_name]
            offset, width = min(msb, lsb), abs(msb - lsb) + 1
            # bits of the local the select covers (out-of-range bits vanish)
            low = max(offset, 0)
            high = min(offset + width, base_width)

            def write_local_part(kern, env, value, control):
                if low >= high:
                    return
                old = env[base_name]
                merged = value.resize(width).slice(low - offset, high - low) \
                    .ite(control, old.slice(low, high - low))
                bits = list(old.bits)
                bits[low:high] = merged.bits
                env[base_name] = FourVec(kern.mgr, bits, old.signed)

            def capture_local_part(kern, env, value, control):
                raise CompileError("non-blocking assignment inside a function")

            return LhsPlan(width=width, write=write_local_part,
                           capture=capture_local_part)
        full, info = self._resolve(expr.base)
        _require_variable(info)
        offset = min(info.bit_offset(msb), info.bit_offset(lsb))
        width = abs(msb - lsb) + 1

        def write(kern, env, value, control):
            _write_part(kern, full, offset, width, value, control)

        def commit(kern2, vecs, controls):
            _write_part(kern2, full, offset, width, vecs[0], controls[0])

        def capture(kern, env, value, control):
            return NbaUpdate(commit, vecs=[value.resize(width)],
                             controls=[control],
                             spec=("part", full, offset, width))

        return LhsPlan(width=width, write=write, capture=capture,
                       support=frozenset([full]))

    def _lhs_concat(self, expr: ast.Concat) -> LhsPlan:
        plans = [self.compile_lhs(p) for p in expr.parts]
        width = sum(p.width for p in plans)
        support = frozenset().union(*[p.support for p in plans])

        def distribute(value: FourVec):
            # MSB-first source order: first plan gets the top bits.
            pieces = []
            offset = width
            for plan in plans:
                offset -= plan.width
                pieces.append(value.slice(offset, plan.width))
            return pieces

        def write(kern, env, value, control):
            value = value.resize(width)
            for plan, piece in zip(plans, distribute(value)):
                plan.write(kern, env, piece, control)

        def capture(kern, env, value, control):
            value = value.resize(width)
            return NbaUpdate(subs=[
                plan.capture(kern, env, piece, control)
                for plan, piece in zip(plans, distribute(value))
            ])

        return LhsPlan(width=width, write=write, capture=capture, support=support)


# ----------------------------------------------------------------------
# helpers shared by RHS/LHS select logic
# ----------------------------------------------------------------------


def _require_variable(info: NetInfo) -> None:
    """Procedural assignment targets must be variables, not nets (1364)."""
    if info.is_net:
        raise CompileError(
            f"procedural assignment to net {info.full_name!r} "
            f"({info.kind}); use a continuous assign or declare it reg"
        )


def _select_bit_flat(kern, base: FourVec, idx: FourVec, width: int) -> FourVec:
    """Read ``base[idx]`` on a plain [width-1:0] vector (function local)."""
    mgr = kern.mgr
    concrete = idx.to_int_or_none()
    if concrete is not None and idx.is_fully_known():
        if 0 <= concrete < width:
            return FourVec(mgr, [base.bits[concrete]])
        return FourVec(mgr, [BIT_X])
    result = FourVec(mgr, [BIT_X])
    for offset in range(width):
        cond = ops.equal(idx, FourVec.from_int(mgr, offset, idx.width)).truthy()
        if cond == FALSE:
            continue
        result = FourVec(mgr, [base.bits[offset]]).ite(cond, result)
    return result


def _merged_bit_write(kern, base: FourVec, idx: FourVec, value: FourVec,
                      control: int, width: int) -> FourVec:
    """Return ``base`` with bit ``idx`` set to ``value`` under ``control``."""
    mgr = kern.mgr
    bit = value.resize(1)
    bits = list(base.bits)
    concrete = idx.to_int_or_none()
    if concrete is not None and idx.is_fully_known():
        if 0 <= concrete < width:
            merged = bit.ite(control, FourVec(mgr, [bits[concrete]]))
            bits[concrete] = merged.bits[0]
        return FourVec(mgr, bits, base.signed)
    for offset in range(width):
        cond = ops.equal(idx, FourVec.from_int(mgr, offset, idx.width)).truthy()
        cond = mgr.and_(cond, control)
        if cond == FALSE:
            continue
        merged = bit.ite(cond, FourVec(mgr, [bits[offset]]))
        bits[offset] = merged.bits[0]
    return FourVec(mgr, bits, base.signed)


def _select_bit(kern, base: FourVec, idx: FourVec, info: NetInfo) -> FourVec:
    """Read ``base[idx]`` where ``idx`` may be symbolic.

    Declared index values are mapped through the net's range; any
    out-of-range (or X/Z) index reads X, per 1364.
    """
    mgr = kern.mgr
    idx_value = idx.to_int_or_none()
    if idx_value is not None and idx.is_fully_known():
        offset = info.bit_offset(idx_value)
        if 0 <= offset < info.width:
            return FourVec(mgr, [base.bits[offset]])
        return FourVec(mgr, [BIT_X])
    result = FourVec(mgr, [BIT_X])
    lo, hi = sorted((info.msb, info.lsb))
    for declared in range(lo, hi + 1):
        offset = info.bit_offset(declared)
        cond = ops.equal(idx, FourVec.from_int(mgr, declared, idx.width)).truthy()
        if cond == FALSE:
            continue
        result = FourVec(mgr, [base.bits[offset]]).ite(cond, result)
    return result


def _write_selected_bit(
    kern, full: str, info: NetInfo, idx: FourVec, value: FourVec, control: int
) -> None:
    """Guarded write of one (possibly symbolically indexed) bit."""
    mgr = kern.mgr
    old = kern.state.value(full)
    bit = value.resize(1)
    idx_value = idx.to_int_or_none()
    if idx_value is not None and idx.is_fully_known():
        offset = info.bit_offset(idx_value)
        if not 0 <= offset < info.width:
            return  # out-of-range writes vanish
        bits = list(old.bits)
        new_bit = bit.ite(control, FourVec(mgr, [bits[offset]]))
        bits[offset] = new_bit.bits[0]
        kern.write_net(full, FourVec(mgr, bits, old.signed), TRUE)
        return
    bits = list(old.bits)
    lo, hi = sorted((info.msb, info.lsb))
    for declared in range(lo, hi + 1):
        offset = info.bit_offset(declared)
        cond = ops.equal(idx, FourVec.from_int(mgr, declared, idx.width)).truthy()
        cond = mgr.and_(cond, control)
        if cond == FALSE:
            continue
        new_bit = bit.ite(cond, FourVec(mgr, [bits[offset]]))
        bits[offset] = new_bit.bits[0]
    kern.write_net(full, FourVec(mgr, bits, old.signed), TRUE)


def _write_part(
    kern, full: str, offset: int, width: int, value: FourVec, control: int
) -> None:
    old = kern.state.value(full)
    value = value.resize(width)
    bits = list(old.bits)
    for i in range(width):
        target = offset + i
        if not 0 <= target < len(bits):
            continue
        new_bit = FourVec(kern.mgr, [value.bits[i]]).ite(
            control, FourVec(kern.mgr, [bits[target]])
        )
        bits[target] = new_bit.bits[0]
    kern.write_net(full, FourVec(kern.mgr, bits, old.signed), TRUE)
