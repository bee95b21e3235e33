"""The audit's predicate decisions, replayed against sympy alone.

A small fixed-seed audit runs in both modes with every point predicate
recorded where it is imported (its points, semantics and answer).  A
capped sample, a few calls per (predicate, semantics, tower depth, eps,
answer), is decided again from the definitions: the coordinates are
rendered with `render_element` and sympified with a positive symbol `eps`,
and every sign, zero test and eps-order is sympy's.  No kernel arithmetic
takes part in the replay, so the fast paths under the predicates (the
integer forms, the Q(eps) path, the tower) are checked against an oracle
that shares none of them.  Each NODE0 call that reads P is also decided at
NODE1, each three-point call also as `collinear`, and each `pos_angle`
call also as `angle_lt_pi`, so every predicate kind is replayed at every
node the audit uses and at NODE1.
"""

import collections

import pytest

from geokernel import arithmetic, audit, constructions, geometry
from geokernel.field import FieldElement, render_element
from geokernel.geometry import CONSTRUCTIBLE, NODE0, NODE1, Point
from geokernel.nafield import RatFunc

sympy = pytest.importorskip("sympy")

EPS = sympy.Symbol("eps", positive=True)
_T = sympy.Symbol("t")

# the point predicates, and those that read P (their last argument is sem)
_KINDS = ("collinear", "between", "nonstrict_between", "congruent",
          "distinct", "on_ray", "right_angle", "pos_angle", "angle_lt_pi",
          "angle_cong")
_READS_P = {"between", "distinct", "right_angle", "pos_angle",
            "angle_lt_pi"}
PER_GROUP = 4  # calls replayed per (kind, sem, depth, eps, answer)


# -- the oracle: sympy numbers from rendered coordinates --------------------

def _number(c):
    return sympy.sympify(render_element(c).replace("^", "**"),
                         locals={"eps": EPS})


def _const_sign(c) -> int:
    """The sign of an eps-free algebraic number."""
    if c.is_Rational:
        return int(sympy.sign(c))
    v = sympy.N(c, 60)
    if abs(v) > sympy.Rational(1, 10 ** 40):
        return int(sympy.sign(v))
    # too near 0 to tell by digits: zero iff its minimal polynomial is t
    assert sympy.minimal_polynomial(c, _T) == _T, c
    return 0


def _lead(q) -> tuple[int, object]:
    """(sign, eps-order) of q as eps -> 0+, with (0, None) for zero."""
    num, den = sympy.fraction(sympy.together(q))
    num = sympy.expand(num)
    if num == 0:
        return 0, None
    terms = []
    for part in (num, sympy.expand(den)):
        if part.has(EPS):
            coeff, k = part.as_leading_term(EPS).as_coeff_exponent(EPS)
        else:
            coeff, k = part, 0
        terms.append((_const_sign(coeff), k))
    (sn, kn), (sd, kd) = terms
    assert sn and sd, q  # a leading coefficient that vanishes: undecided
    return sn * sd, kn - kd


class _Plane:
    """The definitions of the predicates, over sympy numbers."""

    def __init__(self):
        self.leads: dict = {}

    def lead(self, q):
        if q not in self.leads:
            self.leads[q] = _lead(q)
        return self.leads[q]

    def sign(self, q) -> int:
        return self.lead(q)[0]

    def P(self, q, sem) -> bool:
        s, k = self.lead(q)
        return s > 0 and (sem != NODE0 or k <= 0)

    @staticmethod
    def sub(p, q):
        return p[0] - q[0], p[1] - q[1]

    @staticmethod
    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1]

    @staticmethod
    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def sqdist(self, p, q):
        d = self.sub(p, q)
        return self.dot(d, d)

    def equal(self, p, q) -> bool:
        return self.sign(self.sqdist(p, q)) == 0

    def collinear(self, u, v, w):
        return self.sign(self.cross(self.sub(w, u), self.sub(w, v))) == 0

    def ordered(self, u, v, w):
        return self.sign(self.dot(self.sub(v, u), self.sub(w, v))) > 0

    def between(self, u, v, w, sem=CONSTRUCTIBLE):
        return (self.collinear(u, v, w) and self.P(self.sqdist(u, v), sem)
                and self.P(self.sqdist(v, w), sem) and self.ordered(u, v, w))

    def nonstrict_between(self, u, v, w):
        return (self.equal(u, v) or self.equal(v, w)
                or (self.collinear(u, v, w) and self.ordered(u, v, w)))

    def congruent(self, a, b, c, d):
        return self.sign(self.sqdist(a, b) - self.sqdist(c, d)) == 0

    def distinct(self, a, b, sem=CONSTRUCTIBLE):
        return self.P(self.sqdist(a, b), sem)

    def on_ray(self, a, b, x):
        e = (2 * a[0] - b[0], 2 * a[1] - b[1])  # b reflected in a
        return self.nonstrict_between(e, a, x)

    def right_angle(self, a, b, c, sem=CONSTRUCTIBLE):
        return (self.distinct(a, b, sem) and self.distinct(c, b, sem)
                and self.distinct(a, c, sem)
                and self.sign(self.dot(self.sub(a, b), self.sub(c, b))) == 0)

    def pos_angle(self, a, b, c, sem=CONSTRUCTIBLE):
        cr = self.cross(self.sub(a, b), self.sub(c, b))
        return (self.distinct(a, b, sem) and self.distinct(c, b, sem)
                and self.P(cr * cr, sem))

    def angle_lt_pi(self, a, b, c, sem=CONSTRUCTIBLE):
        d = (2 * b[0] - a[0], 2 * b[1] - a[1])  # a reflected in b
        return self.pos_angle(d, b, c, sem)

    def angle_cong(self, a, b, c, a2, b2, c2):
        ba, bc = self.sub(a, b), self.sub(c, b)
        ba2, bc2 = self.sub(a2, b2), self.sub(c2, b2)
        q1, q2 = self.dot(ba, ba), self.dot(bc, bc)
        p1, p2 = self.dot(ba2, ba2), self.dot(bc2, bc2)
        if any(self.sign(x) == 0 for x in (q1, q2, p1, p2)):
            return False
        d, e = self.dot(ba, bc), self.dot(ba2, bc2)
        if self.sign(d) != self.sign(e):
            return False
        return self.sign(d * d * p1 * p2 - e * e * q1 * q2) == 0


# -- recording ---------------------------------------------------------------

def _record(modes, per_axiom, seed) -> list:
    """(kind, points, sem or None, answer) of every predicate call that
    `audit_run` makes, patched at each module that imports the predicate."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for kind in _KINDS:
            fn = getattr(geometry, kind)

            def recorded(*args, _fn=fn, _kind=kind):
                out = _fn(*args)
                pts = tuple(a for a in args if isinstance(a, Point))
                sem = args[len(pts)] if len(args) > len(pts) else None
                calls.append((_kind, pts, sem, out))
                return out

            for module in (geometry, constructions, arithmetic, audit):
                if kind in vars(module):
                    patch.setattr(module, kind, recorded)
        for mode in modes:
            audit.audit_run(mode, per_axiom, seed)
    return calls


def _depth(p: Point) -> int:
    return max(len(p.x.tower), len(p.y.tower))


def _has_eps(c) -> bool:
    if type(c) is RatFunc:
        return True
    if type(c) is FieldElement:
        return "eps" in render_element(c)
    return False


def _group(kind, pts, sem, out):
    return (kind, sem, max(map(_depth, pts)),
            any(_has_eps(p.x) or _has_eps(p.y) for p in pts), out)


def _sample(calls) -> list:
    """Up to PER_GROUP calls of each group, spread evenly over the run."""
    groups = collections.defaultdict(list)
    for call in calls:
        groups[_group(*call)].append(call)
    return [g[i * len(g) // PER_GROUP] for g in groups.values()
            for i in range(min(PER_GROUP, len(g)))]


def _replays(call):
    """(kind, points, sem, kernel answer) to decide for one recorded call:
    the call itself, at NODE1 too when it read P at NODE0, `collinear` on
    its first three points, and `angle_lt_pi` beside `pos_angle`."""
    kind, pts, sem, out = call
    yield kind, pts, sem, out
    if kind in _READS_P and sem == NODE0:
        yield kind, pts, NODE1, getattr(geometry, kind)(*pts, NODE1)
    if len(pts) >= 3:
        yield "collinear", pts[:3], None, geometry.collinear(*pts[:3])
    if kind == "pos_angle":
        for s in (sem, NODE1):
            yield "angle_lt_pi", pts, s, geometry.angle_lt_pi(*pts, s)


@pytest.fixture(scope="module")
def recorded():
    return _record(("constructible", "nonarchimedean"), 16, 42)


def test_sample_covers_every_kind_node_depth_and_eps(recorded):
    sample = _sample(recorded)
    replays = [r for call in sample for r in _replays(call)]
    assert {k for k, *_ in replays} == set(_KINDS)
    assert {s for _, _, s, _ in replays} >= {CONSTRUCTIBLE, NODE0, NODE1}
    assert {_group(*c)[2] for c in sample} == {0, 1, 2}
    assert any(_group(*c)[3] and c[2] == NODE0 for c in sample)
    assert any(_group(*c)[3] and _group(*c)[2] == 1 for c in sample)
    assert {out for *_, out in sample} == {True, False}


def test_sympy_decides_as_the_kernel(recorded):
    plane, numbers = _Plane(), {}

    def point(p):
        if id(p) not in numbers:
            numbers[id(p)] = (p, (_number(p.x), _number(p.y)))
        return numbers[id(p)][1]

    wrong = []
    for call in _sample(recorded):
        for kind, pts, sem, out in _replays(call):
            args = [point(p) for p in pts] + ([sem] if sem else [])
            if getattr(plane, kind)(*args) != out:
                wrong.append((kind, sem, pts, out))
    assert wrong == []


# -- constructions ------------------------------------------------------------
#
# The same audit with `constructions.tracing` on: each recorded construction
# (its op, inputs and outputs) is checked again in the sympy plane, from the
# conclusion it promises.  A Pasch, parallel or crossbar point lies strictly
# between the points it names (at NODE0 too, as B at NODE0 implies B), an
# extension or a laid-off point lies on its line at the length it copies,
# the two points of a line and a circle lie on the line and at one distance
# from the center, and the two of two circles at one distance from each.

PER_OP = 6  # constructions replayed per (op, mode, output depth)


def _trace(modes, per_axiom, seed) -> list:
    """(mode, entry) of every construction that `audit_run` records."""
    out = []
    for mode in modes:
        trace = []
        with constructions.tracing(trace):
            audit.audit_run(mode, per_axiom, seed)
        out += [(mode, e) for e in trace]
    return out


def _op_sample(traced) -> list:
    """Up to PER_OP entries of each (op, mode, output depth), spread evenly
    over the run."""
    groups = collections.defaultdict(list)
    for mode, e in traced:
        groups[e.op, mode, max(map(_depth, e.outputs))].append(e)
    return [g[i * len(g) // PER_OP] for g in groups.values()
            for i in range(min(PER_OP, len(g)))]


def _conclusion(plane: _Plane, op: str, ins, outs) -> bool:
    if op == "ext":
        a, b, c, d = ins
        return (plane.nonstrict_between(a, b, outs[0])
                and plane.congruent(b, outs[0], c, d))
    if op == "lay_off":
        a, b, c, d = ins
        return (plane.on_ray(a, b, outs[0])
                and plane.congruent(a, outs[0], c, d))
    if op in ("inner_pasch", "outer_pasch"):
        a, p, c, b, q = ins
        x = outs[0]
        first = (p, x, b) if op == "inner_pasch" else (b, p, x)
        return plane.between(*first) and plane.between(a, x, q)
    if op == "euclid5":
        t, p, q, s, r, a = ins
        return plane.between(p, a, outs[0]) and plane.between(s, q, outs[0])
    if op == "crossbar_point":
        a, b, c, e, u, v = ins
        return plane.between(u, outs[0], v) and plane.on_ray(b, e, outs[0])
    if op == "angle_bisect":
        a, b, c = ins
        m = outs[0]
        return plane.angle_cong(a, b, m, m, b, c) and plane.distinct(b, m)
    if op == "line_circle":
        o, a, b = ins
        x, y = outs
        return (plane.collinear(a, b, x) and plane.collinear(a, b, y)
                and plane.congruent(o, x, o, y)
                and plane.nonstrict_between(x, a, y))
    if op == "circle_circle":
        o1, o2 = ins
        left, right = outs
        return (plane.congruent(o1, left, o1, right)
                and plane.congruent(o2, left, o2, right)
                and plane.sign(plane.dot(plane.sub(left, right),
                                         plane.sub(o2, o1))) == 0)
    raise AssertionError(f"no conclusion to replay for {op!r}")


@pytest.fixture(scope="module")
def traced():
    return _trace(("constructible", "nonarchimedean"), 16, 42)


def test_construction_sample_covers_every_op(traced):
    sample = _op_sample(traced)
    assert {e.op for e in sample} == {
        "ext", "lay_off", "inner_pasch", "outer_pasch", "euclid5",
        "crossbar_point", "angle_bisect", "line_circle", "circle_circle"}
    depths = {max(map(_depth, e.outputs)) for e in sample}
    assert depths == {0, 1, 2}  # I.20 lays off along a depth-1 segment
    assert any(_has_eps(p.x) or _has_eps(p.y)
               for e in sample for p in e.outputs)


def test_sympy_replays_each_construction(traced):
    plane, wrong = _Plane(), []
    for e in _op_sample(traced):
        ins, outs = ([(_number(p.x), _number(p.y)) for p in ps]
                     for ps in (e.inputs, e.outputs))
        if not _conclusion(plane, e.op, ins, outs):
            wrong.append((e.op, e.inputs, e.outputs))
    assert wrong == []
