"""The `.rvm` workflow file format: parser and canonical printer.

A file declares one workflow: inline model definitions (chains and
networks), model instances with parameter bindings, and exported output
expressions. The grammar, with `#` comments to end of line:

    file     := [ "version" NUMBER ";" ] workflow
    workflow := "workflow" STRING "{" item* "}"
    item     := instance | export | inline
    instance := "instance" IDENT ":" ref "{" binding* "}"
    ref      := "builtin" "." IDENT | IDENT
    binding  := IDENT "=" expr ";"
    export   := "output" IDENT "=" expr ";"
    expr     := NUMBER | IDENT | IDENT "." IDENT
              | expr ("+"|"-"|"*"|"/") expr | "(" expr ")"
    inline   := ctmcdef | bayesdef
    ctmcdef  := "ctmc" IDENT "{" ("state" IDENT ["init"] ";")*
                                 ("rate" IDENT "->" IDENT ":" expr ";")* "}"
    bayesdef := "bayes" IDENT "{" ("node" IDENT
                    "states" "(" IDENT ("," IDENT)* ")"
                    ["parents" "(" IDENT ("," IDENT)* ")"]
                    "cpt" "(" expr ("," expr)* ")" ";")* "}"

Multiplication and division bind tighter than addition and subtraction;
operators associate left. Numbers are non-negative decimals with an
optional exponent; no hex, no underscores, which keeps files reviewable
line by line. Bare identifiers inside rate expressions and table entries
are the inline model's input parameters; bindings and exports reference
solved values as `<instance>.<output>`. Inline network tables list one
probability row per parent-state combination (first parent varying
slowest), each row in the node's own state order. The builtin templates
are records of the same kind, so each prints as an inline definition that
parses back to an equal record.

Parsing never raises for bad input: it returns a diagnostic with line and
column instead. The parser builds the `compose` records directly and checks
only the facts that exist in the text alone: the syntax, a parameter bound
twice in one instance, a chain with more than one `init` state or none, and
a reference without the `builtin.` prefix to a model the file does not
define. Every other check on the records is `compose.check_records`, the
same one `compose.validate_workflow` runs first; the parser positions its
failure at the element it names. Printing is deterministic, and
`parse(print(w))` yields a structurally equal workflow.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from typing import Callable

from . import bayes, compose
from .errors import ValidationError

KEYWORDS = frozenset({
    "workflow", "instance", "builtin", "output", "version",
    "ctmc", "bayes", "state", "init", "rate", "node", "states", "parents", "cpt",
})

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<arrow>->)
  | (?P<punct>[{}();:,=.+\-*/])
    """,
    re.VERBOSE,
)


class ParseDiagnostic(namedtuple("ParseDiagnostic", "message line column")):
    """An error message at a 1-based line and column."""

    __slots__ = ()

    def render(self, origin: str) -> str:
        return f"{origin}:{self.line}:{self.column}: error: {self.message}"


class ParseResult(namedtuple("ParseResult", "workflow diagnostics origin",
                             defaults=("<string>",))):
    """The parsed workflow, or None, with a tuple of :class:`ParseDiagnostic`
    and the ``origin`` that labels them."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.workflow is not None

    def rendered_diagnostics(self) -> list[str]:
        return [diag.render(self.origin) for diag in self.diagnostics]


class _Token(namedtuple("_Token", "kind text line column")):
    """``kind`` is NUMBER, IDENT, STRING, ``->``, the punctuation itself, or EOF."""

    __slots__ = ()


class _ParseAbort(Exception):
    """Internal: unwinds the parser with the diagnostic that stopped it."""

    def __init__(self, diagnostic: ParseDiagnostic) -> None:
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise _ParseAbort(ParseDiagnostic(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            ))
        column = pos - line_start + 1
        kind = match.lastgroup
        value = match.group()
        if kind == "number":
            tokens.append(_Token("NUMBER", value, line, column))
        elif kind == "ident":
            tokens.append(_Token("IDENT", value, line, column))
        elif kind == "string":
            tokens.append(_Token("STRING", value[1:-1], line, column))
        elif kind == "arrow":
            tokens.append(_Token("->", value, line, column))
        elif kind == "punct":
            tokens.append(_Token(value, value, line, column))
        # whitespace and comments are skipped, but newlines advance the position
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + value.rindex("\n") + 1
        pos = match.end()
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    """Builds the `compose` records of a file, and the position of each
    element, keyed by its path in the record."""

    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.positions: dict[tuple[str | int, ...], _Token] = {}
        self.templates: list[compose.InlineCtmc | compose.InlineBayes] = []
        self.instances: list[compose.ModelInstance] = []
        self.exports: list[compose.Export] = []
        self.local_refs: list[_Token] = []  # model references without 'builtin.'
        self.faults: list[_ParseAbort] = []  # reported once the syntax is known good

    # token plumbing

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def error(self, message: str, token: _Token | None = None) -> _ParseAbort:
        tok = token or self.current
        return _ParseAbort(ParseDiagnostic(message, tok.line, tok.column))

    def expected(self, what: str) -> _ParseAbort:
        """An error at the current token: ``what`` was expected there."""
        found = self.current.text or "end of file"
        return self.error(f"expected {what}, found {found!r}")

    def advance(self) -> _Token:
        tok = self.current
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.current.kind != kind:
            raise self.expected(what)
        return self.advance()

    def expect_ident(self, what: str) -> _Token:
        tok = self.current
        if tok.kind != "IDENT":
            raise self.expected(what)
        if tok.text in KEYWORDS:
            raise self.error(f"{tok.text!r} is a reserved word and cannot name {what}")
        return self.advance()

    def keyword(self) -> str | None:
        tok = self.current
        if tok.kind == "IDENT" and tok.text in KEYWORDS:
            return tok.text
        return None

    # grammar

    def parse_file(self) -> compose.Workflow:
        if self.keyword() == "version":
            version_tok = self.advance()
            number = self.expect("NUMBER", "a version number")
            self.expect(";", "';'")
            if float(number.text) != 1.0:
                raise self.error(
                    f"unsupported format version {number.text}; this tool reads version 1",
                    version_tok,
                )
        if self.keyword() != "workflow":
            raise self.error("expected 'workflow'")
        self.positions[()] = self.advance()
        name = self.expect("STRING", "a quoted workflow name")
        self.expect("{", "'{'")
        while self.current.kind != "}":
            kw = self.keyword()
            if kw == "instance":
                self.parse_instance()
            elif kw == "output":
                self.parse_export()
            elif kw == "ctmc":
                self.parse_ctmc()
            elif kw == "bayes":
                self.parse_bayes()
            else:
                raise self.expected("'instance', 'output', 'ctmc', 'bayes' or '}'")
        self.expect("}", "'}'")
        if self.current.kind != "EOF":
            raise self.error(f"unexpected trailing input {self.current.text!r}")
        defined = {template.name for template in self.templates}
        self.faults += [
            self.error(
                f"unknown model {ref.text!r}: not defined in this file "
                "(builtin templates need the 'builtin.' prefix)",
                ref,
            )
            for ref in self.local_refs if ref.text not in defined
        ]
        if self.faults:
            raise min(self.faults, key=lambda f: (f.diagnostic.line, f.diagnostic.column))
        workflow = compose.Workflow(
            name.text,
            tuple(compose.class_from_inline(template) for template in self.templates),
            tuple(self.instances),
            tuple(self.exports),
        )
        try:
            compose.check_records(workflow)
        except ValidationError as exc:
            path = exc.element
            while path not in self.positions:  # () is always there: the 'workflow' keyword
                path = path[:-1]
            raise self.error(str(exc), self.positions[path]) from None
        return workflow

    def parse_instance(self) -> None:
        self.advance()  # instance
        name = self.expect_ident("an instance")
        self.expect(":", "':'")
        is_builtin = False
        if self.keyword() == "builtin":
            self.advance()
            self.expect(".", "'.'")
            is_builtin = True
        ref = self.current
        if ref.kind != "IDENT" or (not is_builtin and ref.text in KEYWORDS):
            raise self.expected("a model class name")
        self.advance()
        if not is_builtin:
            self.local_refs.append(ref)
        self.expect("{", "'{'")
        bindings: dict[str, compose.Expr] = {}
        while self.current.kind != "}":
            pname = self.expect_ident("a parameter")
            if pname.text in bindings:
                self.faults.append(self.error(
                    f"duplicate binding for {pname.text!r} in instance {name.text!r}", pname
                ))
            self.expect("=", "'='")
            bindings[pname.text] = self.parse_expr()
            self.expect(";", "';'")
        self.expect("}", "'}'")
        self.positions["instances", len(self.instances)] = name
        self.instances.append(compose.ModelInstance(name.text, ref.text, bindings))

    def parse_export(self) -> None:
        self.advance()  # output
        name = self.expect_ident("an output")
        self.expect("=", "'='")
        expr = self.parse_expr()
        self.expect(";", "';'")
        self.positions["exports", len(self.exports)] = name
        self.exports.append(compose.Export(name.text, expr))

    def parse_ctmc(self) -> None:
        path = ("classes", len(self.templates))
        self.positions[path] = self.advance()  # ctmc
        name = self.expect_ident("a model")
        self.expect("{", "'{'")
        states: list[str] = []
        initial: str | None = None
        rates: list[tuple[str, str, compose.Expr]] = []
        while self.current.kind != "}":
            kw = self.keyword()
            if kw == "state":
                self.advance()
                sname = self.expect_ident("a state")
                if self.keyword() == "init":
                    if initial is not None:
                        self.faults.append(self.error("more than one state marked 'init'", sname))
                    self.advance()
                    initial = sname.text
                self.expect(";", "';'")
                self.positions[(*path, "states", len(states))] = sname
                states.append(sname.text)
            elif kw == "rate":
                self.positions[(*path, "rates", len(rates))] = self.advance()
                src = self.expect_ident("a state")
                self.expect("->", "'->'")
                dst = self.expect_ident("a state")
                self.expect(":", "':'")
                expr = self.parse_expr()
                self.expect(";", "';'")
                rates.append((src.text, dst.text, expr))
            else:
                raise self.expected("'state', 'rate' or '}'")
        self.expect("}", "'}'")
        if states and initial is None:  # a chain without states is compose's to reject
            self.faults.append(self.error(
                f"model {name.text!r} has no state marked 'init'", self.positions[path]
            ))
        self.templates.append(
            compose.InlineCtmc(name.text, tuple(states), initial or "", tuple(rates))
        )

    def parse_bayes(self) -> None:
        path = ("classes", len(self.templates))
        self.positions[path] = self.advance()  # bayes
        name = self.expect_ident("a model")
        self.expect("{", "'{'")
        nodes: list[bayes.Node] = []
        while self.current.kind != "}":
            if self.keyword() != "node":
                raise self.expected("'node' or '}'")
            self.advance()
            nname = self.expect_ident("a node")
            if self.keyword() != "states":
                raise self.error("expected 'states'")
            self.advance()
            states = self.parse_list(lambda: self.expect_ident("a state label").text)
            parents: tuple[str, ...] = ()
            if self.keyword() == "parents":
                self.advance()
                parents = self.parse_list(lambda: self.expect_ident("a parent node").text)
            if self.keyword() != "cpt":
                raise self.error("expected 'cpt'")
            self.advance()
            cpt = self.parse_list(self.parse_expr)
            self.expect(";", "';'")
            self.positions[(*path, "nodes", len(nodes))] = nname
            nodes.append(bayes.Node(nname.text, states, parents, cpt))
        self.expect("}", "'}'")
        self.templates.append(compose.InlineBayes(name.text, tuple(nodes)))

    def parse_list(self, parse_item: Callable[[], object]) -> tuple:
        """A parenthesized, comma-separated list of at least one item."""
        self.expect("(", "'('")
        items = [parse_item()]
        while self.current.kind == ",":
            self.advance()
            items.append(parse_item())
        self.expect(")", "')'")
        return tuple(items)

    # expressions: left-associative, * and / bind tighter than + and -

    def parse_expr(self) -> compose.Expr:
        expr = self.parse_term()
        while self.current.kind in ("+", "-"):
            op = self.advance().kind
            expr = compose.BinOp(op, expr, self.parse_term())
        return expr

    def parse_term(self) -> compose.Expr:
        expr = self.parse_factor()
        while self.current.kind in ("*", "/"):
            op = self.advance().kind
            expr = compose.BinOp(op, expr, self.parse_factor())
        return expr

    def parse_factor(self) -> compose.Expr:
        tok = self.current
        if tok.kind == "NUMBER":
            self.advance()
            return compose.Literal(float(tok.text))
        if tok.kind == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")", "')'")
            return expr
        if tok.kind == "IDENT" and tok.text not in KEYWORDS:
            self.advance()
            if self.current.kind == ".":
                self.advance()
                output = self.expect_ident("an output parameter")
                return compose.Ref(tok.text, output.text)
            return compose.Param(tok.text)
        raise self.expected("a number, reference or '('")


def parse(text: str, origin: str = "<string>") -> ParseResult:
    """Parse workflow text; diagnostics instead of exceptions on bad input.

    ``origin`` labels diagnostics (usually the file path). A rejection
    carries one positioned error diagnostic.
    """
    try:
        workflow = _Parser(_lex(text)).parse_file()
    except _ParseAbort as abort:
        return ParseResult(None, (abort.diagnostic,), origin)
    return ParseResult(workflow, (), origin)


# --- canonical printing -------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _format_number(value: float) -> str:
    """A literal as text that parses back to it: ``inf`` and ``nan`` would
    parse as names and ``-0.0`` not at all, so -0.0 prints as 0.0."""
    if not math.isfinite(value):
        raise ValidationError(f"cannot print non-finite literal {value!r}")
    if value < 0.0:
        raise ValidationError(f"cannot print negative literal {value!r}")
    return repr(abs(float(value)))


def format_expr(expr: compose.Expr) -> str:
    """Render an expression with the fewest parentheses that
    preserve its structure under re-parsing."""

    def render(node: compose.Expr, parent_prec: int, right_side: bool) -> str:
        if isinstance(node, compose.Literal):
            return _format_number(node.value)
        if isinstance(node, compose.Param):
            return node.name
        if isinstance(node, compose.Ref):
            return f"{node.instance}.{node.output}"
        if isinstance(node, compose.BinOp):
            prec = _PRECEDENCE[node.op]
            text = (
                f"{render(node.left, prec, False)} {node.op} "
                f"{render(node.right, prec, True)}"
            )
            if prec < parent_prec or (prec == parent_prec and right_side):
                return f"({text})"
            return text
        raise ValidationError(f"cannot print expression node {node!r}")

    return render(expr, 0, False)


def print_workflow(workflow: compose.Workflow) -> str:
    """Canonical text for a workflow; byte-identical across calls."""
    if '"' in workflow.name or "\n" in workflow.name:
        raise ValidationError("workflow names cannot contain quotes or newlines")
    inline_names = {cls.name for cls in workflow.classes}
    lines: list[str] = [f'workflow "{workflow.name}" {{']
    for cls in workflow.classes:
        template = cls.template
        if isinstance(template, compose.InlineCtmc):
            lines.append(f"  ctmc {template.name} {{")
            for state in template.states:
                suffix = " init" if state == template.initial else ""
                lines.append(f"    state {state}{suffix};")
            for src, dst, expr in template.rates:
                lines.append(f"    rate {src} -> {dst} : {format_expr(expr)};")
            lines.append("  }")
        else:
            lines.append(f"  bayes {template.name} {{")
            for node in template.nodes:
                parts = [f"node {node.id} states ({', '.join(node.states)})"]
                if node.parents:
                    parts.append(f"parents ({', '.join(node.parents)})")
                parts.append(f"cpt ({', '.join(format_expr(expr) for expr in node.cpt)})")
                lines.append(f"    {' '.join(parts)};")
            lines.append("  }")
    for inst in workflow.instances:
        ref = inst.class_name if inst.class_name in inline_names else f"builtin.{inst.class_name}"
        lines.append(f"  instance {inst.name} : {ref} {{")
        for pname, expr in inst.bindings.items():
            lines.append(f"    {pname} = {format_expr(expr)};")
        lines.append("  }")
    for export in workflow.exports:
        lines.append(f"  output {export.name} = {format_expr(export.expr)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
