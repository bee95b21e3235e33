"""Construction-script language: tokenizer, recursive-descent parser,
pretty-printer and interpreter.

Grammar::

    script := stmt*
    stmt   := "point" NAME expr expr ";"
            | "let" NAME "=" NAME "(" NAME ("," NAME)* ")" ";"
            | "assert" NAME "(" NAME ("," NAME)* ")" ";"
            | "render" STRING ";"
    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := atom ["^" INT]        (INT at most MAX_EXPONENT)
    atom   := INT | "eps" | "sqrt" "(" expr ")" | "-" atom | "(" expr ")"

Every INT has at most MAX_DIGITS digits.

`parse_element` evaluates a single ``expr`` with the same tokenizer,
parser and evaluator; it reads back `field.render_element` output.
Pretty-printing is a left inverse of parsing on the AST.  The interpreter
executes statements in order against a chosen field mode; failed
assertions and refused constructions are recorded in the environment (with
the offending statement) rather than raised, so a partial environment is
always returned.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dfield

from . import arithmetic
from .field import (
    DomainViolation, FieldElement, FieldError, Q, eps, sqrt_nonneg,
)
from .geometry import (
    ArityMismatch, NotPositiveAngle, Point, midpoint, predicate_eval,
    reflect_in_point, resolve_mode,
)
from .constructions import (
    ConstructionError, PostconditionFailure, angle_bisect, crossbar_point,
    equilateral, ext, ext_strict, euclid5, inner_pasch, lay_off,
    line_intersect, midpoint_gupta, outer_pasch, perpendicular, reflect,
    tracing,
)


# Largest accepted "^" exponent.  `render_element` writes eps^k only up to
# the degree of a RatFunc, far below this; the cap keeps "2^100000000" from
# running for minutes, and is checked while parsing, before any evaluation.
MAX_EXPONENT = 256

# Longest accepted integer literal: CPython's default limit on int() of a
# decimal string, so a longer literal is a syntax error, not a ValueError.
MAX_DIGITS = 4300


class ScriptSyntaxError(SyntaxError):
    def __init__(self, line: int, column: int, expected: str):
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(f"line {line}, column {column}: expected {expected}")


# -- tokens ------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<string>"[^"\n]*")
  | (?P<sym>[;=(),+\-*/^])
""", re.VERBOSE)

_KEYWORDS = {"point", "let", "assert", "render", "sqrt", "eps"}


@dataclass(frozen=True)
class Token:
    kind: str  # int | name | keyword | string | sym | eof
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos, line, linestart = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ScriptSyntaxError(line, pos - linestart + 1,
                                    "a token")
        kind = m.lastgroup
        tok = m.group()
        col = pos - linestart + 1
        if kind == "ws":
            line += tok.count("\n")
            if "\n" in tok:
                linestart = pos + tok.rfind("\n") + 1
        else:
            if kind == "name" and tok in _KEYWORDS:
                kind = "keyword"
            tokens.append(Token(kind, tok, line, col))
        pos = m.end()
    tokens.append(Token("eof", "", line, len(text) - linestart + 1))
    return tokens


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class EpsLit:
    pass


@dataclass(frozen=True)
class Sqrt:
    arg: object


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    op: str
    args: tuple


@dataclass(frozen=True)
class PointDecl:
    name: str
    x: object
    y: object
    line: int = dfield(default=0, compare=False)


@dataclass(frozen=True)
class LetStmt:
    name: str
    call: Call
    line: int = dfield(default=0, compare=False)


@dataclass(frozen=True)
class AssertStmt:
    call: Call
    line: int = dfield(default=0, compare=False)


@dataclass(frozen=True)
class RenderStmt:
    label: str
    line: int = dfield(default=0, compare=False)


@dataclass(frozen=True)
class Script:
    statements: tuple


# -- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def error(self, expected: str):
        t = self.cur
        raise ScriptSyntaxError(t.line, t.column, expected)

    def eat(self, kind: str, text: str | None = None) -> Token:
        t = self.cur
        if t.kind != kind or (text is not None and t.text != text):
            self.error(text or kind)
        self.i += 1
        return t

    def script(self) -> Script:
        stmts = []
        while self.cur.kind != "eof":
            stmts.append(self.stmt())
        return Script(tuple(stmts))

    def stmt(self):
        t = self.cur
        if t.kind != "keyword":
            self.error("'point', 'let', 'assert' or 'render'")
        if t.text == "point":
            self.eat("keyword")
            name = self.eat("name").text
            # coordinates parse at term level so that two juxtaposed
            # expressions stay unambiguous ("0 -1" is two coordinates);
            # a top-level sum needs parentheses
            x = self.term()
            y = self.term()
            self.eat("sym", ";")
            return PointDecl(name, x, y, line=t.line)
        if t.text == "let":
            self.eat("keyword")
            name = self.eat("name").text
            self.eat("sym", "=")
            call = self.call()
            self.eat("sym", ";")
            return LetStmt(name, call, line=t.line)
        if t.text == "assert":
            self.eat("keyword")
            call = self.call()
            self.eat("sym", ";")
            return AssertStmt(call, line=t.line)
        if t.text == "render":
            self.eat("keyword")
            s = self.eat("string").text
            self.eat("sym", ";")
            return RenderStmt(s[1:-1], line=t.line)
        self.error("'point', 'let', 'assert' or 'render'")

    def call(self) -> Call:
        op = self.eat("name").text
        self.eat("sym", "(")
        args = [self.eat("name").text]
        while self.cur.kind == "sym" and self.cur.text == ",":
            self.eat("sym", ",")
            args.append(self.eat("name").text)
        self.eat("sym", ")")
        return Call(op, tuple(args))

    def expr(self):
        node = self.term()
        while self.cur.kind == "sym" and self.cur.text in "+-":
            op = self.eat("sym").text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.cur.kind == "sym" and self.cur.text in "*/":
            op = self.eat("sym").text
            node = BinOp(op, node, self.factor())
        return node

    def integer(self, limit: int | None = None) -> int:
        t = self.cur
        if t.kind == "int" and len(t.text) > MAX_DIGITS:
            self.error(f"an integer of at most {MAX_DIGITS} digits")
        if t.kind == "int" and limit is not None and int(t.text) > limit:
            self.error(f"an exponent of at most {limit}")
        return int(self.eat("int").text)

    def factor(self):
        node = self.atom()
        if self.cur.kind == "sym" and self.cur.text == "^":
            self.eat("sym")
            node = BinOp("^", node, Num(self.integer(MAX_EXPONENT)))
        return node

    def atom(self):
        t = self.cur
        if t.kind == "int":
            return Num(self.integer())
        if t.kind == "keyword" and t.text == "eps":
            self.eat("keyword")
            return EpsLit()
        if t.kind == "keyword" and t.text == "sqrt":
            self.eat("keyword")
            self.eat("sym", "(")
            e = self.expr()
            self.eat("sym", ")")
            return Sqrt(e)
        if t.kind == "sym" and t.text == "-":
            self.eat("sym")
            return Neg(self.atom())
        if t.kind == "sym" and t.text == "(":
            self.eat("sym")
            e = self.expr()
            self.eat("sym", ")")
            return e
        self.error("an expression")


def parse_script(text: str) -> Script:
    return _Parser(tokenize(text)).script()


# -- pretty-printer ----------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _pp_expr(e, parent_prec: int = 0) -> str:
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, EpsLit):
        return "eps"
    if isinstance(e, Sqrt):
        return f"sqrt({_pp_expr(e.arg)})"
    if isinstance(e, Neg):
        return f"-{_pp_expr(e.arg, 4)}"
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        s = f"{_pp_expr(e.left, p)} {e.op} {_pp_expr(e.right, p + 1)}"
        return f"({s})" if p < parent_prec else s
    raise TypeError(f"not an expression node: {e!r}")


def _pp_stmt(s) -> str:
    if isinstance(s, PointDecl):
        return f"point {s.name} {_pp_expr(s.x, 2)} {_pp_expr(s.y, 2)};"
    if isinstance(s, LetStmt):
        return f"let {s.name} = {_pp_call(s.call)};"
    if isinstance(s, AssertStmt):
        return f"assert {_pp_call(s.call)};"
    if isinstance(s, RenderStmt):
        return f'render "{s.label}";'
    raise TypeError(f"not a statement node: {s!r}")


def _pp_call(c: Call) -> str:
    return f"{c.op}({', '.join(c.args)})"


def pretty_print(script: Script) -> str:
    return "\n".join(_pp_stmt(s) for s in script.statements) + "\n"


# -- interpreter -------------------------------------------------------------

def _wrap1(fn):
    return lambda sem, *pts: fn(*pts, sem)


_CONSTRUCTION_OPS = {
    "ext": (4, _wrap1(ext)),
    "ext_strict": (4, _wrap1(ext_strict)),
    "inner_pasch": (5, _wrap1(inner_pasch)),
    "outer_pasch": (5, _wrap1(outer_pasch)),
    "euclid5": (6, _wrap1(euclid5)),
    "lay_off": (4, _wrap1(lay_off)),
    "equilateral": (2, _wrap1(equilateral)),
    "gupta_midpoint": (2, _wrap1(midpoint_gupta)),
    "midpoint": (2, lambda sem, a, b: midpoint(a, b)),
    "reflect_point": (2, lambda sem, p, c: reflect_in_point(p, c)),
    "reflect_line": (3, _wrap1(reflect)),
    "erect": (3, lambda sem, p, u, v:
              perpendicular("erect", p, (u, v), sem=sem)[1]),
    "drop": (3, lambda sem, p, u, v:
             perpendicular("drop", p, (u, v), sem=sem)[0]),
    "meet": (4, lambda sem, a, b, c, d: line_intersect(a, b, c, d)),
    "angle_bisect": (3, _wrap1(angle_bisect)),
    "crossbar": (6, _wrap1(crossbar_point)),
    "geo_add": (2, lambda sem, a, b: arithmetic.geo_add(a, b)),
    "geo_mul": (2, lambda sem, a, b: arithmetic.geo_mul(a, b)),
    "geo_inv": (1, lambda sem, a: arithmetic.geo_inv(a)),
    "geo_sqrt": (1, lambda sem, a: arithmetic.geo_sqrt(a)),
    "rotate90": (1, lambda sem, a: arithmetic.rotate90(a)),
}


_PREDICATES = {
    "distinct": "Distinct", "between": "B", "t_between": "T",
    "congruent": "E", "collinear": "L", "right_angle": "RightAngle",
    "pos_angle": "PosAngle", "angle_lt_pi": "AngleLtPi",
    "angle_cong": "AngleCong", "on_ray": "Ray",
}


@dataclass
class Env:
    mode: str = "constructible"
    bindings: dict = dfield(default_factory=dict)
    declared: set = dfield(default_factory=set)  # literal "point" names
    trace: list = dfield(default_factory=list)
    assertions: list = dfield(default_factory=list)
    errors: list = dfield(default_factory=list)
    renders: list = dfield(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors) or any(
            not a["holds"] for a in self.assertions)


def _eval_expr(e, mode: str) -> FieldElement:
    if isinstance(e, Num):
        return Q(e.value)
    if isinstance(e, EpsLit):
        if mode != "nonarchimedean":
            raise DomainViolation("eps outside NonArchimedean mode")
        return eps()
    if isinstance(e, Sqrt):
        return sqrt_nonneg(_eval_expr(e.arg, mode))
    if isinstance(e, Neg):
        return -_eval_expr(e.arg, mode)
    if isinstance(e, BinOp):
        le = _eval_expr(e.left, mode)
        if e.op == "^":
            return le ** e.right.value
        r = _eval_expr(e.right, mode)
        if e.op == "+":
            return le + r
        if e.op == "-":
            return le - r
        if e.op == "*":
            return le * r
        return le / r
    raise TypeError(f"not an expression node: {e!r}")


def parse_element(text: str, mode: str = "constructible") -> FieldElement:
    """Parse one expression (e.g. a `render_element` output) in `mode`."""
    resolve_mode(mode)  # reject an unknown mode
    p = _Parser(tokenize(text))
    node = p.expr()
    p.eat("eof")
    return _eval_expr(node, mode)


_RUNTIME_ERRORS = (ConstructionError, PostconditionFailure, FieldError,
                   NotPositiveAngle, ArityMismatch, DomainViolation,
                   ZeroDivisionError)


def run_script(script: Script, mode: str = "constructible") -> Env:
    sem = resolve_mode(mode)
    env = Env(mode=mode)

    def resolve(call: Call) -> list[Point]:
        pts = []
        for n in call.args:
            if n not in env.bindings:
                raise DomainViolation(f"unbound name {n!r}")
            pts.append(env.bindings[n])
        return pts

    for stmt in script.statements:
        text = _pp_stmt(stmt)
        try:
            if isinstance(stmt, PointDecl):
                p = Point(_eval_expr(stmt.x, mode),
                          _eval_expr(stmt.y, mode))
                env.bindings[stmt.name] = p
                env.declared.add(stmt.name)
            elif isinstance(stmt, LetStmt):
                call = stmt.call
                if call.op not in _CONSTRUCTION_OPS:
                    raise DomainViolation(f"unknown operation {call.op!r}")
                arity, fn = _CONSTRUCTION_OPS[call.op]
                if len(call.args) != arity:
                    raise ArityMismatch(
                        f"{call.op} expects {arity} points, "
                        f"got {len(call.args)}")
                with tracing(env.trace):
                    env.bindings[stmt.name] = fn(sem, *resolve(call))
            elif isinstance(stmt, AssertStmt):
                call = stmt.call
                if call.op not in _PREDICATES:
                    raise DomainViolation(f"unknown predicate {call.op!r}")
                res = predicate_eval(_PREDICATES[call.op],
                                     resolve(call), sem)
                env.assertions.append(
                    {"statement": text, "holds": res.holds,
                     "witness": res.witness})
            elif isinstance(stmt, RenderStmt):
                env.renders.append(stmt.label)
        except _RUNTIME_ERRORS as err:
            env.errors.append({"statement": text,
                               "error": type(err).__name__,
                               "detail": str(err)})
    return env
