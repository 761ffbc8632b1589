"""Recursive-descent parser for the Verilog-1995 subset.

Produces :class:`repro.frontend.ast_nodes.Module` objects.  Both
1995-style headers (directions declared in the body) and ANSI-style
headers (directions in the port list) are accepted, as are a few
ubiquitous 2001 conveniences (``@*``, ``output reg``, declaration
initializers) that cost nothing and make testbenches pleasant to
write.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import VerilogSyntaxError
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import Lexer, Token, preprocess

_GATE_TYPES = frozenset(
    ["and", "nand", "or", "nor", "xor", "xnor", "not", "buf",
     "bufif0", "bufif1", "notif0", "notif1"]
)

_NET_KINDS = frozenset(["wire", "tri", "tri0", "tri1", "wand", "wor",
                        "supply0", "supply1"])

# Binary operator precedence, higher binds tighter.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4, "^~": 4, "~^": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
    "**": 11,
}

_UNARY_OPS = frozenset(["+", "-", "!", "~", "&", "|", "^", "~&", "~|", "~^", "^~"])


def parse_source(
    text: str,
    filename: str = "<input>",
    defines: Optional[Dict[str, str]] = None,
    include_resolver=None,
) -> Dict[str, ast.Module]:
    """Preprocess, lex and parse ``text``; return modules by name."""
    clean = preprocess(text, defines, include_resolver)
    tokens = Lexer(clean, filename).tokenize()
    return Parser(tokens, filename).parse_modules()


class Parser:
    """Token-stream parser; one instance per source unit."""

    def __init__(self, tokens: List[Token], filename: str = "<input>") -> None:
        self.tokens = tokens
        self.pos = 0
        self.filename = filename

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def at(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.peek()
        return token.kind == kind and (value is None or token.value == value)

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, value):
            return self.next()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self.peek()
        if token.kind != kind or (value is not None and token.value != value):
            want = value if value is not None else kind
            raise VerilogSyntaxError(
                f"expected {want!r}, found {token.value!r}", token.line, token.col
            )
        return self.next()

    def error(self, message: str) -> VerilogSyntaxError:
        token = self.peek()
        return VerilogSyntaxError(message, token.line, token.col)

    # ------------------------------------------------------------------
    # modules
    # ------------------------------------------------------------------

    def parse_modules(self) -> Dict[str, ast.Module]:
        modules: Dict[str, ast.Module] = {}
        while not self.at("eof"):
            module = self.parse_module()
            if module.name in modules:
                raise VerilogSyntaxError(
                    f"duplicate module {module.name!r}", module.line, 0
                )
            modules[module.name] = module
        return modules

    def parse_module(self) -> ast.Module:
        start = self.expect("keyword", "module")
        name = self.expect("id").value
        module = ast.Module(name=name, line=start.line)
        if self.accept("op", "#"):
            # ANSI parameter list: #(parameter W = 8, ...)
            self.expect("op", "(")
            while not self.at("op", ")"):
                self.accept("keyword", "parameter")
                self.accept("keyword", "signed")
                if self.at("op", "["):
                    self._parse_range()
                pname = self.expect("id").value
                self.expect("op", "=")
                value = self.parse_expression()
                module.decls.append(
                    ast.Decl(kind="parameter", name=pname, init=value)
                )
                if not self.accept("op", ","):
                    break
            self.expect("op", ")")
        if self.accept("op", "("):
            self._parse_port_list(module)
        self.expect("op", ";")
        while not self.at("keyword", "endmodule"):
            if self.at("eof"):
                raise self.error("unexpected end of file inside module")
            self.parse_module_item(module)
        self.expect("keyword", "endmodule")
        return module

    def _parse_port_list(self, module: ast.Module) -> None:
        while not self.at("op", ")"):
            token = self.peek()
            if token.kind == "keyword" and token.value in ("input", "output", "inout"):
                # ANSI-style header
                direction = self.next().value
                is_reg = bool(self.accept("keyword", "reg"))
                self.accept("keyword", "wire")
                signed = bool(self.accept("keyword", "signed"))
                rng = self._parse_range() if self.at("op", "[") else None
                pname = self.expect("id").value
                module.port_names.append(pname)
                module.decls.append(
                    ast.Decl(kind=direction, name=pname, range=rng,
                             signed=signed, line=token.line)
                )
                if is_reg:
                    module.decls.append(
                        ast.Decl(kind="reg", name=pname, range=rng,
                                 signed=signed, line=token.line)
                    )
                # Subsequent bare names reuse this direction/range.
                while self.accept("op", ","):
                    if self.at("keyword") or self.at("op", ")"):
                        break
                    extra = self.expect("id").value
                    module.port_names.append(extra)
                    module.decls.append(
                        ast.Decl(kind=direction, name=extra, range=rng,
                                 signed=signed, line=token.line)
                    )
                    if is_reg:
                        module.decls.append(
                            ast.Decl(kind="reg", name=extra, range=rng,
                                     signed=signed, line=token.line)
                        )
                continue
            pname = self.expect("id").value
            module.port_names.append(pname)
            if not self.accept("op", ","):
                break
        self.expect("op", ")")

    # ------------------------------------------------------------------
    # module items
    # ------------------------------------------------------------------

    def parse_module_item(self, module: ast.Module) -> None:
        token = self.peek()
        if token.kind == "keyword":
            value = token.value
            if value in ("input", "output", "inout"):
                self._parse_direction_decl(module)
                return
            if value in _NET_KINDS or value in ("reg", "integer", "time", "event",
                                                "genvar"):
                module.decls.extend(self._parse_data_decl())
                return
            if value in ("parameter", "localparam"):
                module.decls.extend(self._parse_parameter_decl(value))
                return
            if value == "assign":
                self._parse_continuous_assign(module)
                return
            if value in ("initial", "always"):
                self.next()
                body = self.parse_statement()
                module.processes.append(
                    ast.Process(kind=value, body=body, line=token.line)
                )
                return
            if value == "task":
                module.tasks.append(self._parse_task())
                return
            if value == "function":
                module.functions.append(self._parse_function())
                return
            if value in _GATE_TYPES:
                self._parse_gate_instances(module)
                return
            if value == "defparam":
                raise self.error("defparam is not supported; use #(...) overrides")
            if value in ("specify", "generate"):
                raise self.error(f"{value} blocks are not supported")
            raise self.error(f"unsupported module item {value!r}")
        if token.kind == "id":
            self._parse_module_instances(module)
            return
        raise self.error(f"unexpected token {token.value!r} in module body")

    def _parse_direction_decl(self, module: ast.Module) -> None:
        direction = self.next().value
        line = self.peek().line
        is_reg = bool(self.accept("keyword", "reg"))
        self.accept("keyword", "wire")
        signed = bool(self.accept("keyword", "signed"))
        rng = self._parse_range() if self.at("op", "[") else None
        while True:
            name = self.expect("id").value
            module.decls.append(
                ast.Decl(kind=direction, name=name, range=rng, signed=signed,
                         line=line)
            )
            if is_reg:
                module.decls.append(
                    ast.Decl(kind="reg", name=name, range=rng, signed=signed,
                             line=line)
                )
            if not self.accept("op", ","):
                break
        self.expect("op", ";")

    def _parse_data_decl(self) -> List[ast.Decl]:
        kind = self.next().value
        line = self.peek().line
        signed = bool(self.accept("keyword", "signed"))
        rng = self._parse_range() if self.at("op", "[") else None
        if kind == "integer":
            signed = True
        decls: List[ast.Decl] = []
        while True:
            name = self.expect("id").value
            array = self._parse_range() if self.at("op", "[") else None
            init = None
            if self.accept("op", "="):
                init = self.parse_expression()
            decls.append(
                ast.Decl(kind=kind, name=name, range=rng, array=array,
                         signed=signed, init=init, line=line)
            )
            if not self.accept("op", ","):
                break
        self.expect("op", ";")
        return decls

    def _parse_parameter_decl(self, kind: str) -> List[ast.Decl]:
        self.next()
        self.accept("keyword", "signed")
        if self.at("op", "["):
            self._parse_range()
        decls: List[ast.Decl] = []
        while True:
            name = self.expect("id").value
            self.expect("op", "=")
            value = self.parse_expression()
            decls.append(ast.Decl(kind=kind, name=name, init=value))
            if not self.accept("op", ","):
                break
        self.expect("op", ";")
        return decls

    def _parse_continuous_assign(self, module: ast.Module) -> None:
        line = self.next().line
        delay = None
        if self.accept("op", "#"):
            delay = self._parse_delay_value()
        while True:
            lhs = self._parse_lvalue()
            self.expect("op", "=")
            rhs = self.parse_expression()
            module.assigns.append(
                ast.ContAssign(lhs=lhs, rhs=rhs, delay=delay, line=line)
            )
            if not self.accept("op", ","):
                break
        self.expect("op", ";")

    def _parse_task(self) -> ast.TaskDecl:
        line = self.expect("keyword", "task").line
        name = self.expect("id").value
        task = ast.TaskDecl(name=name, line=line)
        if self.accept("op", "("):
            # ANSI-style task ports
            while not self.at("op", ")"):
                direction = self.expect("keyword").value
                if direction not in ("input", "output", "inout"):
                    raise self.error(f"bad task port direction {direction!r}")
                self.accept("keyword", "reg")
                signed = bool(self.accept("keyword", "signed"))
                rng = self._parse_range() if self.at("op", "[") else None
                pname = self.expect("id").value
                task.ports.append(
                    ast.Decl(kind=direction, name=pname, range=rng, signed=signed)
                )
                if not self.accept("op", ","):
                    break
            self.expect("op", ")")
        self.expect("op", ";")
        while not self.at("keyword", "endtask"):
            token = self.peek()
            if token.kind == "keyword" and token.value in ("input", "output", "inout"):
                direction = self.next().value
                self.accept("keyword", "reg")
                signed = bool(self.accept("keyword", "signed"))
                rng = self._parse_range() if self.at("op", "[") else None
                while True:
                    pname = self.expect("id").value
                    task.ports.append(
                        ast.Decl(kind=direction, name=pname, range=rng,
                                 signed=signed)
                    )
                    if not self.accept("op", ","):
                        break
                self.expect("op", ";")
            elif token.kind == "keyword" and token.value in ("reg", "integer", "time"):
                task.decls.extend(self._parse_data_decl())
            else:
                break
        body_stmts: List[ast.Stmt] = []
        while not self.at("keyword", "endtask"):
            body_stmts.append(self.parse_statement())
        self.expect("keyword", "endtask")
        if len(body_stmts) == 1:
            task.body = body_stmts[0]
        else:
            task.body = ast.Block(stmts=body_stmts, line=line)
        return task

    def _parse_function(self) -> ast.FunctionDecl:
        line = self.expect("keyword", "function").line
        signed = bool(self.accept("keyword", "signed"))
        rng = None
        if self.at("op", "["):
            rng = self._parse_range()
        if self.at("keyword", "integer"):
            self.next()
            signed = True
            rng = ast.Range(
                msb=ast.Number(bits=format(31, "b"), width=32, sized=False),
                lsb=ast.Number(bits="0", width=32, sized=False),
            )
        name = self.expect("id").value
        func = ast.FunctionDecl(name=name, range=rng, signed=signed, line=line)
        if self.accept("op", "("):
            while not self.at("op", ")"):
                self.expect("keyword", "input")
                self.accept("keyword", "reg")
                psigned = bool(self.accept("keyword", "signed"))
                prng = self._parse_range() if self.at("op", "[") else None
                pname = self.expect("id").value
                func.ports.append(
                    ast.Decl(kind="input", name=pname, range=prng, signed=psigned)
                )
                if not self.accept("op", ","):
                    break
            self.expect("op", ")")
        self.expect("op", ";")
        while True:
            token = self.peek()
            if token.kind == "keyword" and token.value == "input":
                self.next()
                self.accept("keyword", "reg")
                psigned = bool(self.accept("keyword", "signed"))
                prng = self._parse_range() if self.at("op", "[") else None
                while True:
                    pname = self.expect("id").value
                    func.ports.append(
                        ast.Decl(kind="input", name=pname, range=prng,
                                 signed=psigned)
                    )
                    if not self.accept("op", ","):
                        break
                self.expect("op", ";")
            elif token.kind == "keyword" and token.value in ("reg", "integer", "time"):
                func.decls.extend(self._parse_data_decl())
            else:
                break
        body_stmts: List[ast.Stmt] = []
        while not self.at("keyword", "endfunction"):
            body_stmts.append(self.parse_statement())
        self.expect("keyword", "endfunction")
        if len(body_stmts) == 1:
            func.body = body_stmts[0]
        else:
            func.body = ast.Block(stmts=body_stmts, line=line)
        return func

    def _parse_gate_instances(self, module: ast.Module) -> None:
        gate = self.next().value
        line = self.peek().line
        delay = None
        if self.accept("op", "#"):
            delay = self._parse_delay_value()
        while True:
            name = ""
            if self.at("id") and self.peek(1).value == "(":
                name = self.next().value
            self.expect("op", "(")
            terminals = [self.parse_expression()]
            while self.accept("op", ","):
                terminals.append(self.parse_expression())
            self.expect("op", ")")
            module.gates.append(
                ast.GateInst(gate=gate, name=name, delay=delay,
                             terminals=terminals, line=line)
            )
            if not self.accept("op", ","):
                break
        self.expect("op", ";")

    def _parse_module_instances(self, module: ast.Module) -> None:
        module_name = self.expect("id").value
        line = self.peek().line
        param_overrides: List[ast.PortConnection] = []
        if self.accept("op", "#"):
            self.expect("op", "(")
            param_overrides = self._parse_connection_list()
            self.expect("op", ")")
        while True:
            inst_name = self.expect("id").value
            self.expect("op", "(")
            connections = self._parse_connection_list()
            self.expect("op", ")")
            module.instances.append(
                ast.ModuleInst(module=module_name, name=inst_name,
                               param_overrides=list(param_overrides),
                               connections=connections, line=line)
            )
            if not self.accept("op", ","):
                break
        self.expect("op", ";")

    def _parse_connection_list(self) -> List[ast.PortConnection]:
        connections: List[ast.PortConnection] = []
        if self.at("op", ")"):
            return connections
        while True:
            if self.accept("op", "."):
                name = self.expect("id").value
                self.expect("op", "(")
                expr = None if self.at("op", ")") else self.parse_expression()
                self.expect("op", ")")
                connections.append(ast.PortConnection(name=name, expr=expr))
            elif self.at("op", ","):
                connections.append(ast.PortConnection(name=None, expr=None))
            else:
                connections.append(
                    ast.PortConnection(name=None, expr=self.parse_expression())
                )
            if not self.accept("op", ","):
                break
        return connections

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def parse_statement(self) -> ast.Stmt:
        token = self.peek()
        if token.kind == "op":
            if token.value == ";":
                self.next()
                return ast.NullStmt(line=token.line)
            if token.value == "#":
                self.next()
                delay = self._parse_delay_value()
                stmt = self.parse_statement_or_null()
                return ast.DelayStmt(delay=delay, stmt=stmt, line=token.line)
            if token.value == "@":
                self.next()
                items = self._parse_event_control()
                stmt = self.parse_statement_or_null()
                return ast.EventStmt(items=items, stmt=stmt, line=token.line)
            if token.value == "->":
                self.next()
                name = self.expect("id").value
                self.expect("op", ";")
                return ast.EventTrigger(name=name, line=token.line)
            return self._parse_assignment_statement()
        if token.kind == "keyword":
            handler = {
                "begin": self._parse_block,
                "if": self._parse_if,
                "case": self._parse_case,
                "casez": self._parse_case,
                "casex": self._parse_case,
                "for": self._parse_for,
                "while": self._parse_while,
                "repeat": self._parse_repeat,
                "forever": self._parse_forever,
                "wait": self._parse_wait,
                "disable": self._parse_disable,
            }.get(token.value)
            if handler is not None:
                return handler()
            if token.value == "fork":
                return self._parse_fork()
            if token.value in ("force", "release", "deassign"):
                raise self.error(f"{token.value} is not supported")
            if token.value == "assign":
                raise self.error("procedural continuous assign is not supported")
            raise self.error(f"unexpected keyword {token.value!r} in statement")
        if token.kind == "sysid":
            return self._parse_system_task_statement()
        if token.kind == "id":
            # Task enable or assignment — disambiguate by what follows
            # the (possibly hierarchical, possibly indexed) reference.
            return self._parse_assignment_or_task()
        raise self.error(f"unexpected token {token.value!r} in statement")

    def parse_statement_or_null(self) -> ast.Stmt:
        if self.accept("op", ";"):
            return ast.NullStmt()
        return self.parse_statement()

    def _parse_block(self) -> ast.Block:
        line = self.expect("keyword", "begin").line
        name = None
        if self.accept("op", ":"):
            name = self.expect("id").value
        block = ast.Block(name=name, line=line)
        while self.at("keyword", "reg") or self.at("keyword", "integer") or self.at(
            "keyword", "time"
        ):
            block.decls.extend(self._parse_data_decl())
        while not self.at("keyword", "end"):
            if self.at("eof"):
                raise self.error("unexpected end of file inside begin/end")
            block.stmts.append(self.parse_statement())
        self.expect("keyword", "end")
        return block

    def _parse_fork(self) -> ast.ForkJoin:
        line = self.expect("keyword", "fork").line
        name = None
        if self.accept("op", ":"):
            name = self.expect("id").value
        fork = ast.ForkJoin(name=name, line=line)
        while self.at("keyword", "reg") or self.at("keyword", "integer") \
                or self.at("keyword", "time"):
            fork.decls.extend(self._parse_data_decl())
        while not self.at("keyword", "join"):
            if self.at("eof"):
                raise self.error("unexpected end of file inside fork/join")
            fork.branches.append(self.parse_statement())
        self.expect("keyword", "join")
        return fork

    def _parse_if(self) -> ast.If:
        line = self.expect("keyword", "if").line
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        then_stmt = self.parse_statement_or_null()
        else_stmt = None
        if self.accept("keyword", "else"):
            else_stmt = self.parse_statement_or_null()
        return ast.If(cond=cond, then_stmt=then_stmt, else_stmt=else_stmt, line=line)

    def _parse_case(self) -> ast.Case:
        token = self.next()
        self.expect("op", "(")
        expr = self.parse_expression()
        self.expect("op", ")")
        case = ast.Case(kind=token.value, expr=expr, line=token.line)
        while not self.at("keyword", "endcase"):
            if self.accept("keyword", "default"):
                self.accept("op", ":")
                stmt = self.parse_statement_or_null()
                case.items.append(ast.CaseItem(exprs=[], stmt=stmt))
                continue
            exprs = [self.parse_expression()]
            while self.accept("op", ","):
                exprs.append(self.parse_expression())
            self.expect("op", ":")
            stmt = self.parse_statement_or_null()
            case.items.append(ast.CaseItem(exprs=exprs, stmt=stmt))
        self.expect("keyword", "endcase")
        return case

    def _parse_for(self) -> ast.For:
        line = self.expect("keyword", "for").line
        self.expect("op", "(")
        init = self._parse_plain_assign()
        self.expect("op", ";")
        cond = self.parse_expression()
        self.expect("op", ";")
        step = self._parse_plain_assign()
        self.expect("op", ")")
        body = self.parse_statement_or_null()
        return ast.For(init=init, cond=cond, step=step, body=body, line=line)

    def _parse_plain_assign(self) -> ast.BlockingAssign:
        lhs = self._parse_lvalue()
        line = self.peek().line
        self.expect("op", "=")
        rhs = self.parse_expression()
        return ast.BlockingAssign(lhs=lhs, rhs=rhs, line=line)

    def _parse_lvalue(self) -> ast.Expr:
        """Parse an assignment target: identifier (with selects) or a
        concatenation of lvalues.

        A dedicated production is needed because parsing the target with
        ``parse_expression`` would swallow ``a <= b`` as a relational
        comparison.
        """
        if self.at("op", "{"):
            line = self.next().line
            parts = [self._parse_lvalue()]
            while self.accept("op", ","):
                parts.append(self._parse_lvalue())
            self.expect("op", "}")
            return ast.Concat(parts=parts, line=line)
        ident = self._parse_hier_identifier()
        return self._parse_lvalue_selects(ident)

    def _parse_lvalue_selects(self, base: ast.Expr) -> ast.Expr:
        while self.at("op", "["):
            self.next()
            first = self.parse_expression()
            if self.accept("op", ":"):
                second = self.parse_expression()
                self.expect("op", "]")
                base = ast.PartSelect(base=base, msb=first, lsb=second,
                                      line=first.line)
            else:
                self.expect("op", "]")
                base = ast.Index(base=base, index=first, line=first.line)
        return base

    def _parse_while(self) -> ast.While:
        line = self.expect("keyword", "while").line
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        body = self.parse_statement_or_null()
        return ast.While(cond=cond, body=body, line=line)

    def _parse_repeat(self) -> ast.Repeat:
        line = self.expect("keyword", "repeat").line
        self.expect("op", "(")
        count = self.parse_expression()
        self.expect("op", ")")
        body = self.parse_statement_or_null()
        return ast.Repeat(count=count, body=body, line=line)

    def _parse_forever(self) -> ast.Forever:
        line = self.expect("keyword", "forever").line
        body = self.parse_statement()
        return ast.Forever(body=body, line=line)

    def _parse_wait(self) -> ast.Wait:
        line = self.expect("keyword", "wait").line
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        stmt = self.parse_statement_or_null()
        return ast.Wait(cond=cond, stmt=stmt, line=line)

    def _parse_disable(self) -> ast.Disable:
        line = self.expect("keyword", "disable").line
        name = self.expect("id").value
        self.expect("op", ";")
        return ast.Disable(name=name, line=line)

    def _parse_system_task_statement(self) -> ast.TaskCall:
        token = self.expect("sysid")
        args: List[ast.Expr] = []
        if self.accept("op", "("):
            if not self.at("op", ")"):
                args.append(self.parse_expression())
                while self.accept("op", ","):
                    args.append(self.parse_expression())
            self.expect("op", ")")
        self.expect("op", ";")
        return ast.TaskCall(name=token.value, args=args, is_system=True,
                            line=token.line)

    def _parse_assignment_or_task(self) -> ast.Stmt:
        start = self.pos
        ident = self._parse_hier_identifier()
        token = self.peek()
        if token.kind == "op" and token.value in ("(", ";"):
            # task enable: name(args); or name;
            args: List[ast.Expr] = []
            if self.accept("op", "("):
                if not self.at("op", ")"):
                    args.append(self.parse_expression())
                    while self.accept("op", ","):
                        args.append(self.parse_expression())
                self.expect("op", ")")
            self.expect("op", ";")
            return ast.TaskCall(name=ident.name, args=args, is_system=False,
                                line=token.line)
        # otherwise rewind and parse as an assignment with a full lvalue
        self.pos = start
        return self._parse_assignment_statement()

    def _parse_assignment_statement(self) -> ast.Stmt:
        lhs = self._parse_lvalue()
        token = self.peek()
        if self.accept("op", "="):
            intra = None
            intra_event = None
            if self.accept("op", "#"):
                intra = self._parse_delay_value()
            elif self.accept("op", "@"):
                intra_event = self._parse_event_control()
            rhs = self.parse_expression()
            self.expect("op", ";")
            return ast.BlockingAssign(lhs=lhs, rhs=rhs, intra_delay=intra,
                                      intra_event=intra_event,
                                      line=token.line)
        if self.accept("op", "<="):
            intra = None
            if self.accept("op", "#"):
                intra = self._parse_delay_value()
            rhs = self.parse_expression()
            self.expect("op", ";")
            return ast.NonBlockingAssign(lhs=lhs, rhs=rhs, intra_delay=intra,
                                         line=token.line)
        raise self.error("expected '=' or '<=' in assignment")

    def _parse_event_control(self) -> List[ast.EventItem]:
        if self.accept("op", "*"):
            return []
        if self.at("id"):
            # ``@name`` — a named event or plain signal without parens.
            return [ast.EventItem(edge=None, expr=self._parse_hier_identifier())]
        self.expect("op", "(")
        if self.accept("op", "*"):
            self.expect("op", ")")
            return []
        items = [self._parse_event_item()]
        while True:
            if self.accept("keyword", "or") or self.accept("op", ","):
                items.append(self._parse_event_item())
            else:
                break
        self.expect("op", ")")
        return items

    def _parse_event_item(self) -> ast.EventItem:
        edge = None
        if self.accept("keyword", "posedge"):
            edge = "posedge"
        elif self.accept("keyword", "negedge"):
            edge = "negedge"
        expr = self.parse_expression()
        return ast.EventItem(edge=edge, expr=expr)

    def _parse_delay_value(self) -> ast.Expr:
        if self.accept("op", "("):
            value = self.parse_expression()
            # min:typ:max — keep the typical value
            if self.accept("op", ":"):
                value = self.parse_expression()
                if self.accept("op", ":"):
                    self.parse_expression()
            self.expect("op", ")")
            return value
        token = self.peek()
        if token.kind == "number":
            self.next()
            return self._make_number(token)
        if token.kind == "real":
            self.next()
            return ast.RealNumber(value=float(token.value), line=token.line)
        if token.kind == "id":
            return self._parse_hier_identifier()
        raise self.error("expected delay value")

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self.accept("op", "?"):
            then_value = self.parse_expression()
            self.expect("op", ":")
            else_value = self.parse_expression()
            return ast.Ternary(cond=cond, then_value=then_value,
                               else_value=else_value, line=cond.line)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self.peek()
            if token.kind != "op":
                return left
            prec = _BINARY_PRECEDENCE.get(token.value)
            if prec is None or prec < min_prec:
                return left
            self.next()
            # ** is right-associative; everything else left-associative.
            next_min = prec if token.value == "**" else prec + 1
            right = self._parse_binary(next_min)
            left = ast.Binary(op=token.value, left=left, right=right,
                              line=token.line)

    def _parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "op" and token.value in _UNARY_OPS:
            self.next()
            operand = self._parse_unary()
            return ast.Unary(op=token.value, operand=operand, line=token.line)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "number":
            self.next()
            return self._make_number(token)
        if token.kind == "real":
            self.next()
            return ast.RealNumber(value=float(token.value), line=token.line)
        if token.kind == "string":
            self.next()
            return ast.StringLiteral(value=token.value, line=token.line)
        if token.kind == "sysid":
            self.next()
            args: List[ast.Expr] = []
            if self.accept("op", "("):
                if not self.at("op", ")"):
                    args.append(self.parse_expression())
                    while self.accept("op", ","):
                        args.append(self.parse_expression())
                self.expect("op", ")")
            return ast.SystemCall(name=token.value, args=args, line=token.line)
        if token.kind == "op" and token.value == "(":
            self.next()
            expr = self.parse_expression()
            self.expect("op", ")")
            return self._parse_selects(expr)
        if token.kind == "op" and token.value == "{":
            return self._parse_concat()
        if token.kind == "id":
            if self.peek(1).kind == "op" and self.peek(1).value == "(" and "." not in token.value:
                name = self.next().value
                self.expect("op", "(")
                args = []
                if not self.at("op", ")"):
                    args.append(self.parse_expression())
                    while self.accept("op", ","):
                        args.append(self.parse_expression())
                self.expect("op", ")")
                return ast.FunctionCall(name=name, args=args, line=token.line)
            ident = self._parse_hier_identifier()
            return self._parse_selects(ident)
        raise self.error(f"unexpected token {token.value!r} in expression")

    def _parse_hier_identifier(self) -> ast.Identifier:
        token = self.expect("id")
        parts = [token.value]
        while self.at("op", ".") and self.peek(1).kind == "id":
            self.next()
            parts.append(self.expect("id").value)
        return ast.Identifier(parts=tuple(parts), line=token.line)

    def _parse_selects(self, base: ast.Expr) -> ast.Expr:
        while self.at("op", "["):
            self.next()
            first = self.parse_expression()
            if self.accept("op", ":"):
                second = self.parse_expression()
                self.expect("op", "]")
                base = ast.PartSelect(base=base, msb=first, lsb=second,
                                      line=first.line)
            elif self.at("op", "+:") or self.at("op", "-:"):
                raise self.error("indexed part selects (+:/-:) are not supported")
            else:
                self.expect("op", "]")
                base = ast.Index(base=base, index=first, line=first.line)
        return base

    def _parse_concat(self) -> ast.Expr:
        line = self.expect("op", "{").line
        first = self.parse_expression()
        if self.at("op", "{"):
            # replication {n{expr}}
            self.next()
            value = self.parse_expression()
            if self.accept("op", ","):
                parts = [value]
                while True:
                    parts.append(self.parse_expression())
                    if not self.accept("op", ","):
                        break
                value = ast.Concat(parts=parts, line=line)
            self.expect("op", "}")
            self.expect("op", "}")
            return ast.Repl(count=first, value=value, line=line)
        parts = [first]
        while self.accept("op", ","):
            parts.append(self.parse_expression())
        self.expect("op", "}")
        return ast.Concat(parts=parts, line=line)

    def _parse_range(self) -> ast.Range:
        self.expect("op", "[")
        msb = self.parse_expression()
        self.expect("op", ":")
        lsb = self.parse_expression()
        self.expect("op", "]")
        return ast.Range(msb=msb, lsb=lsb)

    # ------------------------------------------------------------------
    # literals
    # ------------------------------------------------------------------

    def _make_number(self, token: Token) -> ast.Number:
        text = token.value.replace("_", "").replace(" ", "").replace("\t", "")
        if "'" not in text:
            # An unsized decimal is a signed integer of at least 32
            # bits; wider values keep every bit, plus a 0 sign bit.
            value = int(text)
            width = max(32, value.bit_length() + 1)
            return ast.Number(bits=format(value, f"0{width}b"), width=width,
                              signed=True, sized=False, base="d",
                              line=token.line)
        size_text, rest = text.split("'", 1)
        signed = False
        if rest and rest[0] in "sS":
            signed = True
            rest = rest[1:]
        base = rest[0].lower()
        digits = rest[1:].lower().replace("?", "z")
        if base == "d":
            if digits in ("x", "z"):
                bit_string = digits
            else:
                bit_string = format(int(digits), "b")
        else:
            bits_per = {"b": 1, "o": 3, "h": 4}[base]
            chunks = []
            for digit in digits:
                if digit in "xz":
                    chunks.append(digit * bits_per)
                else:
                    chunks.append(format(int(digit, 16), f"0{bits_per}b"))
            bit_string = "".join(chunks) or "0"
        sized = bool(size_text)
        width = int(size_text) if size_text else max(32, len(bit_string))
        if len(bit_string) < width:
            fill = bit_string[0] if bit_string[0] in "xz" else "0"
            bit_string = fill * (width - len(bit_string)) + bit_string
        elif len(bit_string) > width:
            bit_string = bit_string[-width:]
        return ast.Number(bits=bit_string, width=width, signed=signed,
                          sized=sized, base=base, line=token.line)
