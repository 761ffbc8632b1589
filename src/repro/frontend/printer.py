"""AST → Verilog source pretty-printer.

The inverse of the parser: renders any parsed module back to
compilable source text.  Used for debugging elaborated designs, for
emitting reduced test cases, and — most importantly — as the oracle in
the parser round-trip property tests (``parse(print(parse(s)))`` must
equal ``parse(s)`` structurally).
"""

from __future__ import annotations

from typing import List

from repro.errors import ReproError
from repro.frontend import ast_nodes as ast

_INDENT = "  "


def print_modules(modules) -> str:
    """Render a dict or iterable of modules."""
    items = modules.values() if hasattr(modules, "values") else modules
    return "\n\n".join(print_module(m) for m in items)


def print_expr(expr: ast.Expr) -> str:
    """Render one expression (public wrapper used by ``repro.mutate``)."""
    return _expr(expr)


def print_stmt(stmt: ast.Stmt) -> str:
    """Render one statement as a single line (mutation-site labels)."""
    return " ".join(line.strip() for line in _stmt(stmt, 0))


def print_module(module: ast.Module) -> str:
    lines: List[str] = []
    ports = f"({', '.join(module.port_names)})" if module.port_names else ""
    lines.append(f"module {module.name}{ports};")
    for decl in module.decls:
        lines.append(_INDENT + _decl(decl))
    for assign in module.assigns:
        delay = f"#{_expr(assign.delay)} " if assign.delay is not None else ""
        lines.append(
            f"{_INDENT}assign {delay}{_expr(assign.lhs)} = "
            f"{_expr(assign.rhs)};"
        )
    for gate in module.gates:
        delay = f"#{_expr(gate.delay)} " if gate.delay is not None else ""
        terms = ", ".join(_expr(t) for t in gate.terminals)
        name = f" {gate.name}" if gate.name else ""
        lines.append(f"{_INDENT}{gate.gate} {delay}{name}({terms});")
    for inst in module.instances:
        lines.append(_instance(inst))
    for func in module.functions:
        lines.extend(_function(func))
    for task in module.tasks:
        lines.extend(_task(task))
    for process in module.processes:
        lines.append(f"{_INDENT}{process.kind}")
        lines.extend(_stmt(process.body, 2))
    lines.append("endmodule")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# declarations / items
# ----------------------------------------------------------------------


def _range(rng) -> str:
    return f"[{_expr(rng.msb)}:{_expr(rng.lsb)}] " if rng is not None else ""


def _decl(decl: ast.Decl) -> str:
    if decl.kind in ("parameter", "localparam"):
        return f"{decl.kind} {decl.name} = {_expr(decl.init)};"
    signed = "signed " if decl.signed and decl.kind not in ("integer",) else ""
    array = ""
    if decl.array is not None:
        array = f" [{_expr(decl.array.msb)}:{_expr(decl.array.lsb)}]"
    init = f" = {_expr(decl.init)}" if decl.init is not None else ""
    return f"{decl.kind} {signed}{_range(decl.range)}{decl.name}{array}{init};"


def _instance(inst: ast.ModuleInst) -> str:
    params = ""
    if inst.param_overrides:
        params = " #(" + ", ".join(
            _connection(c) for c in inst.param_overrides
        ) + ")"
    conns = ", ".join(_connection(c) for c in inst.connections)
    return f"{_INDENT}{inst.module}{params} {inst.name} ({conns});"


def _connection(conn: ast.PortConnection) -> str:
    expr = _expr(conn.expr) if conn.expr is not None else ""
    if conn.name is not None:
        return f".{conn.name}({expr})"
    return expr


def _function(func: ast.FunctionDecl) -> List[str]:
    signed = "signed " if func.signed else ""
    lines = [f"{_INDENT}function {signed}{_range(func.range)}{func.name};"]
    for port in func.ports:
        lines.append(_INDENT * 2 + _decl(port).replace(";", ";"))
    for decl in func.decls:
        lines.append(_INDENT * 2 + _decl(decl))
    lines.extend(_stmt(func.body, 2))
    lines.append(f"{_INDENT}endfunction")
    return lines


def _task(task: ast.TaskDecl) -> List[str]:
    lines = [f"{_INDENT}task {task.name};"]
    for port in task.ports:
        lines.append(_INDENT * 2 + _decl(port))
    for decl in task.decls:
        lines.append(_INDENT * 2 + _decl(decl))
    lines.extend(_stmt(task.body, 2))
    lines.append(f"{_INDENT}endtask")
    return lines


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------


def _stmt(stmt: ast.Stmt, depth: int) -> List[str]:
    pad = _INDENT * depth
    if stmt is None or isinstance(stmt, ast.NullStmt):
        return [pad + ";"]
    if isinstance(stmt, ast.Block):
        name = f" : {stmt.name}" if stmt.name else ""
        lines = [f"{pad}begin{name}"]
        for decl in stmt.decls:
            lines.append(_INDENT * (depth + 1) + _decl(decl))
        for sub in stmt.stmts:
            lines.extend(_stmt(sub, depth + 1))
        lines.append(f"{pad}end")
        return lines
    if isinstance(stmt, ast.ForkJoin):
        name = f" : {stmt.name}" if stmt.name else ""
        lines = [f"{pad}fork{name}"]
        for decl in stmt.decls:
            lines.append(_INDENT * (depth + 1) + _decl(decl))
        for branch in stmt.branches:
            lines.extend(_stmt(branch, depth + 1))
        lines.append(f"{pad}join")
        return lines
    if isinstance(stmt, ast.BlockingAssign):
        intra = ""
        if stmt.intra_delay is not None:
            intra = f"#{_expr(stmt.intra_delay)} "
        elif stmt.intra_event is not None:
            intra = f"@({_event_items(stmt.intra_event)}) "
        return [f"{pad}{_expr(stmt.lhs)} = {intra}{_expr(stmt.rhs)};"]
    if isinstance(stmt, ast.NonBlockingAssign):
        intra = f"#{_expr(stmt.intra_delay)} " \
            if stmt.intra_delay is not None else ""
        return [f"{pad}{_expr(stmt.lhs)} <= {intra}{_expr(stmt.rhs)};"]
    if isinstance(stmt, ast.If):
        lines = [f"{pad}if ({_expr(stmt.cond)})"]
        lines.extend(_stmt(stmt.then_stmt, depth + 1))
        if stmt.else_stmt is not None:
            lines.append(f"{pad}else")
            lines.extend(_stmt(stmt.else_stmt, depth + 1))
        return lines
    if isinstance(stmt, ast.Case):
        lines = [f"{pad}{stmt.kind} ({_expr(stmt.expr)})"]
        for item in stmt.items:
            label = ", ".join(_expr(e) for e in item.exprs) \
                if item.exprs else "default"
            lines.append(f"{pad}{_INDENT}{label}:")
            lines.extend(_stmt(item.stmt, depth + 2))
        lines.append(f"{pad}endcase")
        return lines
    if isinstance(stmt, ast.For):
        init = _plain_assign(stmt.init)
        step = _plain_assign(stmt.step)
        lines = [f"{pad}for ({init}; {_expr(stmt.cond)}; {step})"]
        lines.extend(_stmt(stmt.body, depth + 1))
        return lines
    if isinstance(stmt, ast.While):
        return [f"{pad}while ({_expr(stmt.cond)})"] + \
            _stmt(stmt.body, depth + 1)
    if isinstance(stmt, ast.Repeat):
        return [f"{pad}repeat ({_expr(stmt.count)})"] + \
            _stmt(stmt.body, depth + 1)
    if isinstance(stmt, ast.Forever):
        return [f"{pad}forever"] + _stmt(stmt.body, depth + 1)
    if isinstance(stmt, ast.DelayStmt):
        lines = [f"{pad}#{_expr(stmt.delay)}"]
        lines.extend(_stmt(stmt.stmt, depth + 1))
        return lines
    if isinstance(stmt, ast.EventStmt):
        sens = f"({_event_items(stmt.items)})" if stmt.items else "*"
        lines = [f"{pad}@{sens}"]
        lines.extend(_stmt(stmt.stmt, depth + 1))
        return lines
    if isinstance(stmt, ast.Wait):
        return [f"{pad}wait ({_expr(stmt.cond)})"] + \
            _stmt(stmt.stmt, depth + 1)
    if isinstance(stmt, ast.TaskCall):
        args = f"({', '.join(_expr(a) for a in stmt.args)})" \
            if stmt.args else ""
        return [f"{pad}{stmt.name}{args};"]
    if isinstance(stmt, ast.Disable):
        return [f"{pad}disable {stmt.name};"]
    if isinstance(stmt, ast.EventTrigger):
        return [f"{pad}-> {stmt.name};"]
    raise ReproError(f"cannot print statement {type(stmt).__name__}")


def _plain_assign(stmt: ast.BlockingAssign) -> str:
    return f"{_expr(stmt.lhs)} = {_expr(stmt.rhs)}"


def _event_items(items) -> str:
    parts = []
    for item in items:
        edge = f"{item.edge} " if item.edge else ""
        parts.append(f"{edge}{_expr(item.expr)}")
    return " or ".join(parts)


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------


def _expr(expr: ast.Expr) -> str:
    if expr is None:
        return ""
    if isinstance(expr, ast.Number):
        sign = "s" if expr.signed else ""
        if not expr.sized:
            if expr.base == "d" and expr.signed and "x" not in expr.bits \
                    and "z" not in expr.bits:
                value = int(expr.bits, 2)
                # a plain decimal parses back to this width
                if expr.width == max(32, value.bit_length() + 1):
                    return str(value)
            return f"'{sign}b{expr.bits}"
        return f"{expr.width}'{sign}b{expr.bits}"
    if isinstance(expr, ast.RealNumber):
        return repr(expr.value)
    if isinstance(expr, ast.StringLiteral):
        escaped = expr.value.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    if isinstance(expr, ast.Identifier):
        return expr.name
    if isinstance(expr, ast.Index):
        return f"{_expr(expr.base)}[{_expr(expr.index)}]"
    if isinstance(expr, ast.PartSelect):
        return f"{_expr(expr.base)}[{_expr(expr.msb)}:{_expr(expr.lsb)}]"
    if isinstance(expr, ast.Concat):
        return "{" + ", ".join(_expr(p) for p in expr.parts) + "}"
    if isinstance(expr, ast.Repl):
        return "{" + _expr(expr.count) + "{" + _expr(expr.value) + "}}"
    if isinstance(expr, ast.Unary):
        return f"({expr.op}{_expr(expr.operand)})"
    if isinstance(expr, ast.Binary):
        return f"({_expr(expr.left)} {expr.op} {_expr(expr.right)})"
    if isinstance(expr, ast.Ternary):
        return (f"({_expr(expr.cond)} ? {_expr(expr.then_value)} : "
                f"{_expr(expr.else_value)})")
    if isinstance(expr, ast.FunctionCall):
        return f"{expr.name}({', '.join(_expr(a) for a in expr.args)})"
    if isinstance(expr, ast.SystemCall):
        if expr.args:
            return f"{expr.name}({', '.join(_expr(a) for a in expr.args)})"
        return expr.name
    raise ReproError(f"cannot print expression {type(expr).__name__}")
