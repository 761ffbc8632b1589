"""Hierarchy elaboration: modules → a flat :class:`Design`.

Elaboration instantiates the module tree, resolves parameters to
constants, assigns every declared object a full hierarchical name
(``tb.dut.cpu.acc``), converts port connections and gate primitives to
continuous assigns, and collects every ``initial``/``always`` process
together with the :class:`Scope` needed to resolve its identifiers.

No behavioral compilation happens here — statements stay as ASTs; the
compiler (``repro.compile``) turns them into micro-instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ElaborationError
from repro.fourval import word
from repro.frontend import ast_nodes as ast

_NET_KINDS = frozenset(["wire", "tri", "tri0", "tri1", "wand", "wor",
                        "supply0", "supply1"])
_VAR_KINDS = frozenset(["reg", "integer", "time", "event"])


@dataclass
class NetInfo:
    """Elaborated storage object (variable or net)."""

    full_name: str
    kind: str
    msb: int = 0
    lsb: int = 0
    signed: bool = False
    array: Optional[Tuple[int, int]] = None  # (low, high) word indices
    line: int = 0

    @property
    def width(self) -> int:
        return abs(self.msb - self.lsb) + 1

    @property
    def is_net(self) -> bool:
        return self.kind in _NET_KINDS

    def bit_offset(self, index: int) -> int:
        """Map a declared bit index to a 0-based LSB offset."""
        if self.msb >= self.lsb:
            return index - self.lsb
        return self.lsb - index


@dataclass
class Scope:
    """Symbol table for one module instance (or generated sub-scope)."""

    path: str  # '' for top
    module: ast.Module
    design: "Design"
    params: Dict[str, int] = field(default_factory=dict)
    locals: Dict[str, str] = field(default_factory=dict)  # local → full name

    def full_name(self, local: str) -> str:
        return f"{self.path}.{local}" if self.path else local

    def lookup(self, parts: Tuple[str, ...]) -> Optional[str]:
        """Resolve a (possibly hierarchical) identifier to a net name.

        Simple names use the local table; dotted names are resolved
        relative to this instance first, then from the design root —
        this is what lets non-synthesizable checkers peek into the DUT.
        """
        if len(parts) == 1:
            return self.locals.get(parts[0])
        dotted = ".".join(parts)
        relative = f"{self.path}.{dotted}" if self.path else dotted
        if relative in self.design.nets:
            return relative
        if dotted in self.design.nets:
            return dotted
        return None

    def find_function(self, name: str) -> Optional[ast.FunctionDecl]:
        for func in self.module.functions:
            if func.name == name:
                return func
        return None

    def find_task(self, name: str) -> Optional[ast.TaskDecl]:
        for task in self.module.tasks:
            if task.name == name:
                return task
        return None


@dataclass
class ScopedProcess:
    """One initial/always process with its resolution scope."""

    kind: str
    body: ast.Stmt
    scope: Scope
    name: str = ""
    line: int = 0


@dataclass
class ScopedAssign:
    """One continuous assign (or port/gate hookup) with scopes.

    ``lhs_scope``/``rhs_scope`` differ for port connections, where the
    two sides live in different module instances.
    """

    lhs: ast.Expr
    rhs: ast.Expr
    lhs_scope: Scope
    rhs_scope: Scope
    delay: Optional[int] = None
    line: int = 0


class Design:
    """The flat, elaborated design: nets + processes + assigns."""

    def __init__(self, top: str) -> None:
        self.top = top
        self.nets: Dict[str, NetInfo] = {}
        self.processes: List[ScopedProcess] = []
        self.assigns: List[ScopedAssign] = []
        self.scopes: Dict[str, Scope] = {}

    def add_net(self, info: NetInfo) -> None:
        if info.full_name in self.nets:
            raise ElaborationError(f"duplicate object {info.full_name!r}")
        self.nets[info.full_name] = info

    def net(self, full_name: str) -> NetInfo:
        try:
            return self.nets[full_name]
        except KeyError:
            raise ElaborationError(f"unknown object {full_name!r}") from None


def elaborate(
    modules: Dict[str, ast.Module], top: Optional[str] = None
) -> Design:
    """Build the flat design, starting from ``top``.

    When ``top`` is omitted, the unique module that is never
    instantiated is used (the usual testbench detection rule).
    """
    if not modules:
        raise ElaborationError("no modules to elaborate")
    if top is None:
        instantiated = {
            inst.module for module in modules.values() for inst in module.instances
        }
        candidates = [name for name in modules if name not in instantiated]
        if len(candidates) != 1:
            raise ElaborationError(
                f"cannot infer top module (candidates: {sorted(candidates)}); "
                "pass top= explicitly"
            )
        top = candidates[0]
    if top not in modules:
        raise ElaborationError(f"top module {top!r} not found")
    design = Design(top)
    _instantiate(design, modules, modules[top], path="", params={},
                 ancestry=(top,))
    return design


def _instantiate(
    design: Design,
    modules: Dict[str, ast.Module],
    module: ast.Module,
    path: str,
    params: Dict[str, int],
    ancestry: Tuple[str, ...],
) -> Scope:
    scope = Scope(path=path, module=module, design=design)
    design.scopes[path] = scope

    # 1. parameters (body order; overrides win)
    for decl in module.decls:
        if decl.kind in ("parameter", "localparam"):
            if decl.kind == "parameter" and decl.name in params:
                scope.params[decl.name] = params[decl.name]
            else:
                scope.params[decl.name] = const_eval(decl.init, scope)
    unknown = set(params) - set(scope.params)
    if unknown:
        raise ElaborationError(
            f"{module.name}: parameter override for unknown {sorted(unknown)}"
        )

    # 2. data declarations — merge direction decls with reg decls
    merged: Dict[str, ast.Decl] = {}
    directions: Dict[str, str] = {}
    for decl in module.decls:
        if decl.kind in ("parameter", "localparam", "genvar"):
            continue
        if decl.kind in ("input", "output", "inout"):
            directions[decl.name] = decl.kind
            if decl.name not in merged:
                merged[decl.name] = ast.Decl(
                    kind="wire", name=decl.name, range=decl.range,
                    signed=decl.signed, line=decl.line
                )
            continue
        if decl.name in merged and merged[decl.name].kind == "wire" and \
                decl.kind in _VAR_KINDS:
            # 'output foo; reg foo;' — the reg declaration wins.
            merged[decl.name] = ast.Decl(
                kind=decl.kind, name=decl.name,
                range=decl.range or merged[decl.name].range,
                array=decl.array,
                signed=decl.signed or merged[decl.name].signed,
                init=decl.init, line=decl.line
            )
        elif decl.name in merged:
            raise ElaborationError(
                f"{module.name}: duplicate declaration of {decl.name!r}"
            )
        else:
            merged[decl.name] = decl

    init_assigns: List[Tuple[str, ast.Expr]] = []
    for name, decl in merged.items():
        info = _decl_to_net(design, scope, decl)
        scope.locals[name] = info.full_name
        design.add_net(info)
        if decl.init is not None:
            init_assigns.append((name, decl.init))

    # Declaration initializers behave like an initial block.
    for name, init in init_assigns:
        body = ast.BlockingAssign(
            lhs=ast.Identifier(parts=(name,)), rhs=init
        )
        design.processes.append(
            ScopedProcess(kind="initial", body=body, scope=scope,
                          name=f"{path or design.top}.init.{name}")
        )

    # 3. continuous assigns
    for assign in module.assigns:
        delay = None
        if assign.delay is not None:
            delay = const_eval(assign.delay, scope)
        design.assigns.append(
            ScopedAssign(lhs=assign.lhs, rhs=assign.rhs, lhs_scope=scope,
                         rhs_scope=scope, delay=delay, line=assign.line)
        )

    # 4. gate primitives → continuous assigns
    for gate in module.gates:
        _elaborate_gate(design, scope, gate)

    # 5. behavioral processes
    for index, process in enumerate(module.processes):
        design.processes.append(
            ScopedProcess(kind=process.kind, body=process.body, scope=scope,
                          name=f"{path or design.top}.{process.kind}{index}",
                          line=process.line)
        )

    # 6. child instances
    for inst in module.instances:
        if inst.module not in modules:
            raise ElaborationError(
                f"{module.name}: unknown module {inst.module!r} "
                f"(instance {inst.name!r})"
            )
        if inst.module in ancestry:
            raise ElaborationError(
                f"recursive instantiation of {inst.module!r}"
            )
        child_module = modules[inst.module]
        child_params = _resolve_param_overrides(scope, child_module, inst)
        child_path = f"{path}.{inst.name}" if path else inst.name
        child_scope = _instantiate(
            design, modules, child_module, child_path, child_params,
            ancestry + (inst.module,)
        )
        _connect_ports(design, scope, child_scope, child_module, inst)
    return scope


def _decl_to_net(design: Design, scope: Scope, decl: ast.Decl) -> NetInfo:
    msb = lsb = 0
    if decl.kind == "integer":
        msb = 31
    elif decl.kind == "time":
        msb = 63
    elif decl.range is not None:
        msb, lsb = declared_range(decl.range, scope, decl.name)
    array = None
    if decl.array is not None:
        first = const_eval(decl.array.msb, scope)
        second = const_eval(decl.array.lsb, scope)
        array = (min(first, second), max(first, second))
    return NetInfo(
        full_name=scope.full_name(decl.name), kind=decl.kind, msb=msb,
        lsb=lsb, signed=decl.signed, array=array, line=decl.line
    )


def _resolve_param_overrides(
    scope: Scope, child: ast.Module, inst: ast.ModuleInst
) -> Dict[str, int]:
    overrides: Dict[str, int] = {}
    if not inst.param_overrides:
        return overrides
    param_names = [d.name for d in child.decls if d.kind == "parameter"]
    positional = 0
    for conn in inst.param_overrides:
        if conn.expr is None:
            continue
        value = const_eval(conn.expr, scope)
        if conn.name is not None:
            overrides[conn.name] = value
        else:
            if positional >= len(param_names):
                raise ElaborationError(
                    f"{inst.name}: too many positional parameter overrides"
                )
            overrides[param_names[positional]] = value
            positional += 1
    return overrides


def _connect_ports(
    design: Design,
    parent: Scope,
    child: Scope,
    child_module: ast.Module,
    inst: ast.ModuleInst,
) -> None:
    directions = {
        d.name: d.kind
        for d in child_module.decls
        if d.kind in ("input", "output", "inout")
    }
    # Build port→expression map
    port_map: Dict[str, Optional[ast.Expr]] = {}
    if inst.connections and inst.connections[0].name is not None:
        for conn in inst.connections:
            if conn.name in port_map:
                raise ElaborationError(
                    f"{inst.name}: duplicate connection for port {conn.name!r}"
                )
            if conn.name not in child_module.port_names:
                raise ElaborationError(
                    f"{inst.name}: module {child_module.name!r} has no port "
                    f"{conn.name!r}"
                )
            port_map[conn.name] = conn.expr
    else:
        if len(inst.connections) > len(child_module.port_names):
            raise ElaborationError(
                f"{inst.name}: too many port connections for "
                f"{child_module.name!r}"
            )
        for port_name, conn in zip(child_module.port_names, inst.connections):
            port_map[port_name] = conn.expr

    for port_name in child_module.port_names:
        expr = port_map.get(port_name)
        direction = directions.get(port_name)
        if direction is None:
            raise ElaborationError(
                f"{child_module.name}: port {port_name!r} has no direction"
            )
        port_ident = ast.Identifier(parts=(port_name,))
        if expr is None:
            continue  # unconnected port: child side floats (X/Z defaults)
        if direction == "input":
            design.assigns.append(
                ScopedAssign(lhs=port_ident, rhs=expr, lhs_scope=child,
                             rhs_scope=parent, line=inst.line)
            )
        elif direction == "output":
            design.assigns.append(
                ScopedAssign(lhs=expr, rhs=port_ident, lhs_scope=parent,
                             rhs_scope=child, line=inst.line)
            )
        else:  # inout — alias the child port to the parent net
            if not isinstance(expr, ast.Identifier):
                raise ElaborationError(
                    f"{inst.name}: inout port {port_name!r} must connect to a "
                    "simple identifier"
                )
            parent_name = parent.lookup(expr.parts)
            if parent_name is None:
                raise ElaborationError(
                    f"{inst.name}: unknown net {expr.name!r} on inout port"
                )
            child_name = child.locals[port_name]
            del design.nets[child_name]
            child.locals[port_name] = parent_name


_GATE_FUNCS = {
    "and": ("&", False), "nand": ("&", True),
    "or": ("|", False), "nor": ("|", True),
    "xor": ("^", False), "xnor": ("^", True),
}


def _elaborate_gate(design: Design, scope: Scope, gate: ast.GateInst) -> None:
    delay = const_eval(gate.delay, scope) if gate.delay is not None else None
    terminals = gate.terminals
    if gate.gate in _GATE_FUNCS:
        if len(terminals) < 3:
            raise ElaborationError(f"gate {gate.gate} needs >= 3 terminals")
        op, invert = _GATE_FUNCS[gate.gate]
        rhs: ast.Expr = terminals[1]
        for term in terminals[2:]:
            rhs = ast.Binary(op=op, left=rhs, right=term)
        if invert:
            rhs = ast.Unary(op="~", operand=rhs)
    elif gate.gate in ("not", "buf"):
        if len(terminals) != 2:
            raise ElaborationError(f"gate {gate.gate} needs 2 terminals")
        rhs = terminals[1]
        if gate.gate == "not":
            rhs = ast.Unary(op="~", operand=rhs)
    elif gate.gate in ("bufif0", "bufif1", "notif0", "notif1"):
        if len(terminals) != 3:
            raise ElaborationError(f"gate {gate.gate} needs 3 terminals")
        data: ast.Expr = terminals[1]
        if gate.gate.startswith("notif"):
            data = ast.Unary(op="~", operand=data)
        enable = terminals[2]
        if gate.gate.endswith("0"):
            enable = ast.Unary(op="!", operand=enable)
        rhs = ast.Ternary(
            cond=enable, then_value=data,
            else_value=ast.Number(bits="z", width=1, sized=True, base="b"),
        )
    else:
        raise ElaborationError(f"unsupported gate type {gate.gate!r}")
    design.assigns.append(
        ScopedAssign(lhs=terminals[0], rhs=rhs, lhs_scope=scope,
                     rhs_scope=scope, delay=delay, line=gate.line)
    )


# ----------------------------------------------------------------------
# constant expression evaluation (parameters, ranges, delays)
# ----------------------------------------------------------------------


def const_eval(expr: ast.Expr, scope: Scope) -> int:
    """Evaluate an elaboration-time constant expression to an int."""
    if expr is None:
        raise ElaborationError("missing constant expression")
    if isinstance(expr, ast.Number):
        if any(c in "xz" for c in expr.bits):
            raise ElaborationError("x/z digits in constant expression")
        value = int(expr.bits, 2)
        if expr.signed and expr.bits[0] == "1" and expr.sized:
            value -= 1 << expr.width
        return value
    if isinstance(expr, ast.RealNumber):
        return int(round(expr.value))
    if isinstance(expr, ast.Identifier):
        if len(expr.parts) == 1 and expr.parts[0] in scope.params:
            return scope.params[expr.parts[0]]
        raise ElaborationError(
            f"identifier {expr.name!r} is not a parameter (constant context)"
        )
    if isinstance(expr, ast.Unary):
        value = const_eval(expr.operand, scope)
        return {
            "+": lambda v: v,
            "-": lambda v: -v,
            "!": lambda v: int(v == 0),
            "~": lambda v: ~v,
        }.get(expr.op, _bad_const_op(expr.op))(value)
    if isinstance(expr, ast.Binary):
        left = const_eval(expr.left, scope)
        right = const_eval(expr.right, scope)
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: word.trunc_div(a, b) if b else _raise_div(),
            "%": lambda a, b: word.trunc_mod(a, b) if b else _raise_div(),
            "**": _const_power,
            "<<": _const_shl,
            ">>": lambda a, b: a >> _shift_count(b),
            ">>>": lambda a, b: a >> _shift_count(b),
            "<": lambda a, b: int(a < b),
            "<=": lambda a, b: int(a <= b),
            ">": lambda a, b: int(a > b),
            ">=": lambda a, b: int(a >= b),
            "==": lambda a, b: int(a == b),
            "!=": lambda a, b: int(a != b),
            "&": lambda a, b: a & b,
            "|": lambda a, b: a | b,
            "^": lambda a, b: a ^ b,
            "&&": lambda a, b: int(bool(a) and bool(b)),
            "||": lambda a, b: int(bool(a) or bool(b)),
        }
        if expr.op not in ops:
            raise ElaborationError(f"operator {expr.op!r} in constant expression")
        return ops[expr.op](left, right)
    if isinstance(expr, ast.Ternary):
        return (
            const_eval(expr.then_value, scope)
            if const_eval(expr.cond, scope)
            else const_eval(expr.else_value, scope)
        )
    raise ElaborationError(
        f"unsupported constant expression {type(expr).__name__}"
    )


def _bad_const_op(op: str):
    def fail(_value: int) -> int:
        raise ElaborationError(f"operator {op!r} in constant expression")

    return fail


def _raise_div() -> int:
    raise ElaborationError("division by zero in constant expression")


#: Widest result of a constant ``<<`` or ``**`` elaboration computes,
#: and the widest vector a declaration or replication may make (IEEE
#: 1364-2005 4.3.1 lets a tool cap vector width at no less than 2**16).
_MAX_CONST_BITS = 65_536


def _too_wide() -> ElaborationError:
    return ElaborationError(
        f"constant expression result wider than {_MAX_CONST_BITS} bits")


def checked_width(width: int, what: str) -> int:
    """``width``; a vector wider than ``_MAX_CONST_BITS`` is an
    :class:`ElaborationError` naming ``what``."""
    if width > _MAX_CONST_BITS:
        raise ElaborationError(
            f"{what} is {width} bits wide; vectors are limited to "
            f"{_MAX_CONST_BITS} bits")
    return width


def declared_range(rng: ast.Range, scope: Scope, name: str) -> Tuple[int, int]:
    """``(msb, lsb)`` of ``name``'s declared range, within
    :func:`checked_width`."""
    msb = const_eval(rng.msb, scope)
    lsb = const_eval(rng.lsb, scope)
    checked_width(abs(msb - lsb) + 1, f"{name}: range [{msb}:{lsb}]")
    return msb, lsb


def declared_width(rng: Optional[ast.Range], scope: Scope, name: str) -> int:
    """The width of ``name``'s declared range, 1 with no range."""
    if rng is None:
        return 1
    msb, lsb = declared_range(rng, scope, name)
    return abs(msb - lsb) + 1


def _shift_count(count: int) -> int:
    if count < 0:
        raise ElaborationError(
            f"negative shift count {count} in constant expression")
    return count


def _const_shl(value: int, count: int) -> int:
    count = _shift_count(count)
    if value and value.bit_length() + count > _MAX_CONST_BITS:
        raise _too_wide()
    return value << count


def _const_power(base: int, exp: int) -> int:
    """``base ** exp`` under 1364's integer ``**`` rules."""
    if exp < 0:
        if base == 0:
            raise ElaborationError(
                "zero to a negative power in constant expression")
        if base == -1:
            return -1 if exp & 1 else 1
        return 1 if base == 1 else 0
    # |base| >= 2 makes the result at least 2 ** ((bits - 1) * exp)
    if abs(base) > 1 and (abs(base).bit_length() - 1) * exp >= _MAX_CONST_BITS:
        raise _too_wide()
    result = base ** exp
    if result.bit_length() > _MAX_CONST_BITS:
        raise _too_wide()
    return result
