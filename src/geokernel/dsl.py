"""Construction-script language: tokenizer, recursive-descent parser,
pretty-printer and interpreter.

Grammar::

    script := stmt*
    stmt   := "point" NAME term term ";"
            | "let" NAME "=" NAME "(" NAME ("," NAME)* ")" ";"
            | "assert" NAME "(" NAME ("," NAME)* ")" ";"
            | "render" STRING ";"
    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := atom ["^" INT]        (INT at most MAX_EXPONENT)
    atom   := INT | "eps" | "sqrt" "(" expr ")" | "-" atom | "(" expr ")"

Every INT has at most MAX_DIGITS digits.  At most MAX_NESTING "(", "sqrt("
and unary "-" open around a subterm, and a term is at most MAX_TERM_DEPTH
levels deep; past either limit a script is a syntax error, before it runs.

The grammar's expressions parse to the terms of `kripke`, the kernel's one
term language, and `kripke.teval` evaluates them: an INT is a `TConst`,
"eps" is the variable `TVar("eps")`, bound only in NonArchimedean mode,
and "sqrt", unary "-" and the binary operators are `TOp`s ("sqrt", "neg",
"+", "-", "*", "/", "^"; the "^" exponent stays an int).

`parse_element` evaluates a single ``expr`` with the same tokenizer,
parser and evaluator; it reads back `field.render_element` output.
Pretty-printing is a left inverse of parsing on the AST.  The interpreter
executes statements in order against a chosen field mode; failed
assertions and refused constructions are recorded in the environment (with
the offending statement) rather than raised, so a partial environment is
always returned.  At NODE0 every point bound, by "point" or by "let", must
lie in F0; one outside is refused as a `DomainViolation` and binds nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dfield

from . import arithmetic
from .field import (
    DomainViolation, FieldElement, FieldError, eps, render_element,
)
from .geometry import (
    CONSTRUCTIBLE, NODE0, ArityMismatch, Point, in_domain, midpoint,
    predicate_eval, reflect_in_point, resolve_mode,
)
from .constructions import (
    ConstructionError, PostconditionFailure, angle_bisect, crossbar_point,
    equilateral, ext, ext_strict, euclid5, inner_pasch, lay_off,
    line_intersect, midpoint_gupta, outer_pasch, perpendicular, reflect,
    tracing,
)
from .kripke import TConst, TOp, TVar, tconst, teval


# Largest accepted "^" exponent.  `render_element` writes eps^k only up to
# the degree of a RatFunc, far below this; the cap keeps "2^100000000" from
# running for minutes, and is checked while parsing, before any evaluation.
MAX_EXPONENT = 256

# Longest accepted integer literal: CPython's default limit on int() of a
# decimal string, so a longer literal is a syntax error, not a ValueError.
MAX_DIGITS = 4300

# Bounds on a term's shape, inside Python's default 1000 frames: the parser
# spends up to 4 frames on each "(", "sqrt(" or unary "-" open around a
# subterm, `kripke.teval` 2 on each tree level (Python 3.10 and 3.11).
# A rendered value such as (1+eps)^192/(2+3*eps)^100 is 196 levels deep.
MAX_NESTING = 100
MAX_TERM_DEPTH = 256


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
class Call:
    op: str
    args: tuple


@dataclass(frozen=True)
class PointDecl:
    name: str
    x: object
    y: object


@dataclass(frozen=True)
class LetStmt:
    name: str
    call: Call


@dataclass(frozen=True)
class AssertStmt:
    call: Call


@dataclass(frozen=True)
class RenderStmt:
    label: str


@dataclass(frozen=True)
class Script:
    statements: tuple


# -- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0
        self.nesting = 0  # subterms open around the current token

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
        if t.kind != "keyword" or t.text not in ("point", "let", "assert",
                                                  "render"):
            self.error("'point', 'let', 'assert' or 'render'")
        self.i += 1
        if t.text == "point":
            name = self.eat("name").text
            # coordinates parse at term level so that two juxtaposed
            # expressions stay unambiguous ("0 -1" is two coordinates);
            # a top-level sum needs parentheses
            s = PointDecl(name, self.bounded(self.term),
                          self.bounded(self.term))
        elif t.text == "let":
            name = self.eat("name").text
            self.eat("sym", "=")
            s = LetStmt(name, self.call())
        elif t.text == "assert":
            s = AssertStmt(self.call())
        else:
            s = RenderStmt(self.eat("string").text[1:-1])
        self.eat("sym", ";")
        return s

    def bounded(self, parse):
        """parse(), refused when its tree is more than MAX_TERM_DEPTH deep."""
        t = self.cur
        node = parse()
        height, level = 0, [node]
        while level:  # level by level: the walk itself must not recurse
            height += 1
            level = [a for e in level if type(e) is TOp for a in e.args]
        if height > MAX_TERM_DEPTH:
            raise ScriptSyntaxError(t.line, t.column, "a term at most "
                                    f"{MAX_TERM_DEPTH} levels deep")
        return node

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
            node = TOp(op, (node, self.term()))
        return node

    def term(self):
        node = self.factor()
        while self.cur.kind == "sym" and self.cur.text in "*/":
            op = self.eat("sym").text
            node = TOp(op, (node, self.factor()))
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
            node = TOp("^", (node, self.integer(MAX_EXPONENT)))
        return node

    def atom(self):
        t = self.cur
        if t.kind == "int":
            return tconst(self.integer())
        if t.kind == "keyword" and t.text == "eps":
            self.eat("keyword")
            return TVar("eps")
        if not (t.kind == "keyword" and t.text == "sqrt"
                or t.kind == "sym" and t.text in "-("):
            self.error("an expression")
        if self.nesting == MAX_NESTING:  # each of the three opens a subterm
            self.error(f"at most {MAX_NESTING} nested brackets and signs")
        self.nesting += 1
        self.i += 1
        if t.text == "-":
            e = TOp("neg", (self.atom(),))
        else:
            if t.text == "sqrt":
                self.eat("sym", "(")
            e = self.expr()
            self.eat("sym", ")")
            if t.text == "sqrt":
                e = TOp("sqrt", (e,))
        self.nesting -= 1
        return e


def parse_script(text: str) -> Script:
    return _Parser(tokenize(text)).script()


# -- pretty-printer ----------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _pp_expr(e, parent_prec: int = 0) -> str:
    if isinstance(e, int):  # a "^" exponent
        return str(e)
    if isinstance(e, TConst):
        return render_element(e.value)
    if isinstance(e, TVar):
        return e.name
    if e.op == "sqrt":
        return f"sqrt({_pp_expr(e.args[0])})"
    if e.op == "neg":
        return f"-{_pp_expr(e.args[0], 4)}"
    p = _PREC[e.op]
    s = f"{_pp_expr(e.args[0], p)} {e.op} {_pp_expr(e.args[1], p + 1)}"
    return f"({s})" if p < parent_prec else s


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


# -- interpreter -------------------------------------------------------------

# op -> (fn, arity, reads_sem), the row shape of `geometry._KINDS`
_CONSTRUCTION_OPS = {
    "ext": (ext, 4, True),
    "ext_strict": (ext_strict, 4, True),
    "inner_pasch": (inner_pasch, 5, True),
    "outer_pasch": (outer_pasch, 5, True),
    "euclid5": (euclid5, 6, True),
    "lay_off": (lay_off, 4, True),
    "equilateral": (equilateral, 2, True),
    "gupta_midpoint": (midpoint_gupta, 2, True),
    "midpoint": (midpoint, 2, False),
    "reflect_point": (reflect_in_point, 2, False),
    "reflect_line": (reflect, 3, True),
    "erect": (lambda p, u, v, sem:
              perpendicular("erect", p, (u, v), sem=sem)[1], 3, True),
    "drop": (lambda p, u, v, sem:
             perpendicular("drop", p, (u, v), sem=sem)[0], 3, True),
    "meet": (line_intersect, 4, False),
    "angle_bisect": (angle_bisect, 3, True),
    "crossbar": (crossbar_point, 6, True),
    "geo_add": (arithmetic.geo_add, 2, False),
    "geo_mul": (arithmetic.geo_mul, 2, False),
    "geo_inv": (arithmetic.geo_inv, 1, False),
    "geo_sqrt": (arithmetic.geo_sqrt, 1, False),
    "rotate90": (arithmetic.rotate90, 1, False),
}


_PREDICATES = {
    "distinct": "Distinct", "between": "B", "t_between": "T",
    "congruent": "E", "collinear": "L", "right_angle": "RightAngle",
    "pos_angle": "PosAngle", "angle_lt_pi": "AngleLtPi",
    "angle_cong": "AngleCong", "on_ray": "Ray",
}


@dataclass
class Env:
    mode: str = CONSTRUCTIBLE
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


def _eval_expr(e, sem: str) -> FieldElement:
    """The value of a coordinate term read under `sem`: eps is bound only
    at NODE0, the NonArchimedean reading."""
    try:
        return teval(e, {"eps": eps()} if sem == NODE0 else {})
    except KeyError:  # eps, the one variable, is unbound
        raise DomainViolation("eps outside NonArchimedean mode") from None


def parse_element(text: str, mode: str = CONSTRUCTIBLE) -> FieldElement:
    """Parse one expression (e.g. a `render_element` output) in `mode`."""
    sem = resolve_mode(mode)  # reject an unknown mode
    p = _Parser(tokenize(text))
    node = p.bounded(p.expr)
    p.eat("eof")
    return _eval_expr(node, sem)


_RUNTIME_ERRORS = (ConstructionError, PostconditionFailure, FieldError,
                   ArityMismatch, DomainViolation, ZeroDivisionError)


def run_script(script: Script, mode: str = CONSTRUCTIBLE) -> Env:
    sem = resolve_mode(mode)
    env = Env(mode=mode)

    def resolve(call: Call) -> list[Point]:
        pts = []
        for n in call.args:
            if n not in env.bindings:
                raise DomainViolation(f"unbound name {n!r}")
            pts.append(env.bindings[n])
        return pts

    def bind(what: str, name: str, p: Point, mark: int) -> None:
        """Bind p, or refuse it outside F0 and drop the trace from mark."""
        if not (in_domain(sem, p.x) and in_domain(sem, p.y)):
            del env.trace[mark:]
            raise DomainViolation(f"{what} {name} = {p!r} is outside F0, "
                                  "the domain of node 0")
        env.bindings[name] = p

    for stmt in script.statements:
        text = _pp_stmt(stmt)
        try:
            if isinstance(stmt, PointDecl):
                p = Point(_eval_expr(stmt.x, sem), _eval_expr(stmt.y, sem))
                bind("point", stmt.name, p, len(env.trace))
                env.declared.add(stmt.name)
            elif isinstance(stmt, LetStmt):
                call = stmt.call
                if call.op not in _CONSTRUCTION_OPS:
                    raise DomainViolation(f"unknown operation {call.op!r}")
                fn, arity, reads_sem = _CONSTRUCTION_OPS[call.op]
                if len(call.args) != arity:
                    raise ArityMismatch(
                        f"{call.op} expects {arity} points, "
                        f"got {len(call.args)}")
                pts, mark = resolve(call), len(env.trace)
                with tracing(env.trace):
                    p = fn(*pts, sem) if reads_sem else fn(*pts)
                bind("let", stmt.name, p, mark)
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
