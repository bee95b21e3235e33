"""Guarded constructions against hand-computed instances."""

import doctest
import os
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geokernel import geometry
from geokernel.field import FieldElement, Q, eps, sqrt_nonneg
from geokernel.geometry import (
    NODE0, NODE1, Point, Seg, apex_witness, between, chord, collinear,
    congruent, cross, distinct, dot, meet, midpoint, nonstrict_between,
    offset, on_ray, pos_angle, pt, reach, right_angle, vsub,
)
from geokernel.constructions import (
    CircleSpec, ConstructionError, PostconditionFailure, _project,
    angle_bisect, angle_copy, circle_circle, crossbar_point, equilateral,
    ext, ext_strict, euclid5, inner_pasch, lay_off, line_circle,
    line_intersect, midpoint_gupta, named_angle_tiling, outer_pasch,
    perpendicular, reflect, tracing,
)
from geokernel.arithmetic import axis, geo_add, geo_inv, geo_sqrt
from test_predicates import _DEPTH2, _SAME_R, _scalars

O, X = pt(0, 0), pt(1, 0)
UNIT = CircleSpec(O, O, X)
EPS_X = Point(eps(), Q(0))  # eps along the x-axis


class TestExtension:
    def test_worked_instance(self):
        # extend (0,0)->(1,0) by a unit segment twice over
        x = ext(pt(0, 0), pt(1, 0), pt(0, 0), pt(2, 0))
        assert x == pt(3, 0)

    def test_null_segment_lands_on_b(self):
        assert ext(pt(0, 0), pt(1, 0), pt(5, 5), pt(5, 5)) == pt(1, 0)

    def test_off_axis_length(self):
        x = ext(pt(0, 0), pt(3, 4), pt(0, 0), pt(10, 0))
        assert between(pt(0, 0), pt(3, 4), x)
        assert congruent(pt(3, 4), x, pt(0, 0), pt(10, 0))

    def test_guard_refuses_a_eq_b(self):
        with pytest.raises(ConstructionError) as ei:
            ext(pt(1, 1), pt(1, 1), pt(0, 0), pt(1, 0))
        assert ei.value.kind == "NotDistinct"

    def test_strict_guard_refuses_null_cd(self):
        with pytest.raises(ConstructionError):
            ext_strict(pt(0, 0), pt(1, 0), pt(2, 2), pt(2, 2))


class TestPasch:
    def test_inner_worked_instance(self):
        # triangle with apex c = (2,2): cut p on ac, q on bc
        x = inner_pasch(pt(0, 0), pt(1, 1), pt(2, 2), pt(4, 0), pt(3, 1))
        assert between(pt(1, 1), x, pt(4, 0))
        assert between(pt(0, 0), x, pt(3, 1))

    def test_inner_guard_collinear(self):
        with pytest.raises(ConstructionError) as ei:
            inner_pasch(pt(0, 0), pt(1, 0), pt(2, 0), pt(4, 0), pt(3, 0))
        assert ei.value.kind == "AngleNotPositive"

    def test_outer_worked_instance(self):
        # oracle: line b..p, points (2-t, t), meets line a..q, the line
        # y = 3x/2, at t = 6/5
        x = outer_pasch(pt(0, 0), pt(1, 1), pt(2, 2), pt(2, 0), pt(2, 3))
        assert x == pt(Fraction(4, 5), Fraction(6, 5))

    def test_outer_conclusion(self):
        x = outer_pasch(pt(0, 0), pt(1, 1), pt(2, 2), pt(4, 0), pt(0, 4))
        assert between(pt(4, 0), pt(1, 1), x)
        assert between(pt(0, 0), x, pt(0, 4))


class TestEuclid5:
    def test_worked_instance(self):
        # oracle: intersection of line p..a with line s..q
        e = euclid5(pt(0, 0), pt(0, 1), pt(0, -1), pt(-1, 0), pt(1, 0),
                    pt(Fraction(1, 2), Fraction(-1, 2)))
        assert e == pt(1, -2)

    def test_guard_names_failing_hypothesis(self):
        with pytest.raises(ConstructionError) as ei:
            euclid5(pt(0, 0), pt(0, 1), pt(0, -2), pt(-1, 0), pt(1, 0),
                    pt(Fraction(1, 2), Fraction(-1, 2)))
        assert ei.value.hypothesis == "pt=qt"


class TestCircles:
    def test_line_circle_strict(self):
        c = CircleSpec(pt(0, 0), pt(0, 0), pt(2, 0))
        x1, x2 = line_circle(c, pt(0, 0), pt(1, 0))
        assert (x1, x2) == (pt(-2, 0), pt(2, 0))

    def test_line_circle_tangent_nonstrict(self):
        c = CircleSpec(pt(0, 0), pt(0, 0), pt(1, 0))
        x1, x2 = line_circle(c, pt(0, 1), pt(1, 1), strict=False)
        assert x1 == x2 == pt(0, 1)

    def test_line_circle_guard(self):
        c = CircleSpec(pt(0, 0), pt(0, 0), pt(1, 0))
        with pytest.raises(ConstructionError) as ei:
            line_circle(c, pt(5, 0), pt(5, 1))
        assert ei.value.kind == "NotInside"

    def test_circle_circle_worked_instance(self):
        # unit circles at 0 and 1 meet at (1/2, +-sqrt(3)/2)
        c1 = CircleSpec(pt(0, 0), pt(0, 0), pt(1, 0))
        c2 = CircleSpec(pt(1, 0), pt(0, 0), pt(1, 0))
        left, right = circle_circle(c1, c2)
        h = sqrt_nonneg(Q(3)) / 2
        assert left == Point(Q(1, 2), h)
        assert right == Point(Q(1, 2), -h)

    def test_circle_circle_separated_guard(self):
        c1 = CircleSpec(pt(0, 0), pt(0, 0), pt(1, 0))
        c2 = CircleSpec(pt(5, 0), pt(0, 0), pt(1, 0))
        with pytest.raises(ConstructionError) as ei:
            circle_circle(c1, c2)
        assert ei.value.kind == "CirclesSeparated"


class TestDerived:
    def test_lay_off(self):
        x = lay_off(pt(0, 0), pt(1, 0), pt(0, 0), pt(5, 0))
        assert x == pt(5, 0)

    def test_equilateral(self):
        apex = equilateral(pt(0, 0), pt(2, 0))
        assert apex == Point(Q(1), sqrt_nonneg(Q(3)))

    def test_gupta_midpoint_worked(self):
        assert midpoint_gupta(pt(0, 0), pt(2, 0)) == pt(1, 0)
        assert midpoint_gupta(pt(0, 0), pt(1, 1)) == \
            pt(Fraction(1, 2), Fraction(1, 2))

    def test_gupta_equals_analytic_off_axis(self):
        a, b = pt(Fraction(-3, 7), 2), pt(5, Fraction(11, 3))
        assert midpoint_gupta(a, b) == midpoint(a, b)

    def test_tiling_deg120(self):
        rec = named_angle_tiling("deg120", pt(0, 0), pt(1, 0))
        assert between(rec["a"], rec["x"], rec["g"])
        assert between(rec["a"], rec["c"], rec["e"])
        assert rec["e"] == pt(2, 0)

    def test_tiling_deg150(self):
        rec = named_angle_tiling("deg150", pt(0, 0), pt(1, 0))
        assert between(rec["a"], rec["c"], rec["e"])
        # c is the midpoint of the witness segment a..e
        assert rec["c"] == midpoint(rec["a"], rec["e"])

    def test_tiling_deg30(self):
        rec = named_angle_tiling("deg30", pt(0, 0), pt(2, 0))
        assert right_angle(rec["a"], rec["c"], rec["b"])

    def test_perpendicular_erect(self):
        foot, tip = perpendicular("erect", pt(0, 0), (pt(-1, 0), pt(1, 0)))
        assert foot == pt(0, 0)
        assert tip.x.is_zero() and tip.y.sign() > 0

    def test_perpendicular_drop(self):
        foot, tip = perpendicular("drop", pt(1, 5), (pt(0, 0), pt(4, 0)))
        assert foot == pt(1, 0) and tip == pt(1, 5)

    def test_reflect(self):
        assert reflect(pt(1, 1), pt(0, 0), pt(1, 0)) == pt(1, -1)

    def test_angle_copy_right_angle(self):
        # copy the right angle at b=(0,0) to p=(10,0) along the axis,
        # away from q above the line
        a2, c2 = angle_copy(pt(0, 1), pt(0, 0), pt(1, 0),
                            pt(10, 0), pt(12, 0), pt(11, 5))
        assert a2 == pt(10, -1)
        assert c2 == pt(11, 0)

    def test_angle_copy_45(self):
        a2, c2 = angle_copy(pt(1, 1), pt(0, 0), pt(2, 0),
                            pt(10, 0), pt(13, 0), pt(11, 7))
        assert a2 == pt(11, -1)
        assert c2 == pt(12, 0)

    def test_angle_bisect(self):
        m = angle_bisect(pt(1, 0), pt(0, 0), pt(0, 1))
        assert m == pt(Fraction(1, 2), Fraction(1, 2))
        m = angle_bisect(pt(1, 0), pt(0, 0), pt(Fraction(1, 2),
                                                sqrt_nonneg(Q(3)) / 2))
        assert m == Point(Q(3, 4), sqrt_nonneg(Q(3)) / 4)

    def test_crossbar(self):
        w = crossbar_point(pt(2, 0), pt(0, 0), pt(0, 2), pt(1, 1),
                           pt(3, 0), pt(0, 3))
        assert w == pt(Fraction(3, 2), Fraction(3, 2))
        assert on_ray(pt(0, 0), pt(1, 1), w)


class TestTrace:
    def test_trace_records_construction(self):
        trace = []
        with tracing(trace):
            midpoint_gupta(pt(0, 0), pt(2, 0))
        assert any(e.op == "inner_pasch" for e in trace)
        assert trace[-1].op == "midpoint_gupta"
        assert trace[-1].outputs == [pt(1, 0)]


class TestNodeGuards:
    def test_inner_pasch_infinitesimal_apex(self):
        # apex at height eps: refused at node 0, true at node 1
        a, c = Point(Q(0), Q(0)), Point(Q(2), Q(0))
        b = Point(Q(1), eps())
        p = Point(Q(1), Q(0))
        q = midpoint(b, c)
        with pytest.raises(ConstructionError) as ei:
            inner_pasch(a, p, c, b, q, NODE0)
        assert ei.value.kind == "AngleNotPositive"
        x = inner_pasch(a, p, c, b, q, NODE1)
        assert between(p, x, b, NODE1) and between(a, x, q, NODE1)

    def test_readme_examples(self):
        # the README shows this refusal as a doctest; keep it runnable
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        res = doctest.testfile(readme, module_relative=False)
        assert res.attempted > 0 and res.failed == 0


# Every guard: a call that violates it, and the refusal it must raise as
# (kind, axiom_id, hypothesis), or the exception type of a guard that
# raises no ConstructionError.
GUARDS = {
    "inner_pasch B(a,p,c)": (
        lambda: inner_pasch(O, pt(5, 5), pt(2, 0), pt(0, 2), pt(1, 1)),
        ("PreconditionViolated", "A7-i1", "B(a,p,c)")),
    "inner_pasch B(b,q,c)": (
        lambda: inner_pasch(O, X, pt(2, 0), pt(0, 2), pt(5, 5)),
        ("PreconditionViolated", "A7-i1", "B(b,q,c)")),
    "outer_pasch B(a,p,c)": (
        lambda: outer_pasch(O, pt(5, 5), pt(2, 0), pt(0, 2), pt(0, -2)),
        ("PreconditionViolated", "A7-i2", "B(a,p,c)")),
    "outer_pasch B(b,c,q)": (
        lambda: outer_pasch(O, X, pt(2, 0), pt(0, 2), pt(5, 5)),
        ("PreconditionViolated", "A7-i2", "B(b,c,q)")),
    "line_circle a#b": (
        lambda: line_circle(UNIT, O, O),
        ("NotDistinct", "LC-strict", "a#b")),
    "line_circle nonstrict inside": (
        lambda: line_circle(UNIT, pt(2, 0), pt(2, 1), strict=False),
        ("NotInside", "LC-nonstrict", "a non-strictly inside circle")),
    "circle_circle centers": (
        lambda: circle_circle(UNIT, CircleSpec(O, O, pt(2, 0))),
        ("NotDistinct", "CC", "distinct centers")),
    "circle_circle nested": (
        lambda: circle_circle(CircleSpec(O, O, pt(5, 0)),
                              CircleSpec(X, X, pt(2, 0))),
        ("CirclesSeparated", "CC", "|r1-r2| <= d")),
    "lay_off a#b": (lambda: lay_off(X, X, O, X), ("NotDistinct", None, "a#b")),
    "midpoint_gupta a#b": (lambda: midpoint_gupta(X, X),
                           ("NotDistinct", None, "a#b")),
    "named_angle_tiling a#b": (lambda: named_angle_tiling("deg30", X, X),
                               ("NotDistinct", None, "a#b")),
    "named_angle_tiling kind": (lambda: named_angle_tiling("deg45", O, X),
                                ValueError),
    "perpendicular u#v": (lambda: perpendicular("drop", pt(0, 1), (X, X)),
                          ("NotDistinct", None, "line u#v")),
    "perpendicular drop off line": (
        lambda: perpendicular("drop", pt(2, 0), (O, X)),
        ("NotOffLine", None, "p off line")),
    "perpendicular erect on line": (
        lambda: perpendicular("erect", pt(2, 1), (O, X)),
        ("NotOnLine", None, "p on line")),
    "perpendicular mode": (lambda: perpendicular("slant", pt(2, 1), (O, X)),
                           ValueError),
    "reflect u#v": (lambda: reflect(pt(0, 1), X, X),
                    ("NotDistinct", None, "line u#v")),
    "angle_copy p#s": (
        lambda: angle_copy(pt(1, 1), O, X, pt(5, 0), pt(5, 0), pt(5, 1)),
        ("NotDistinct", None, "p#s")),
    "angle_copy a#b": (
        lambda: angle_copy(O, O, X, pt(5, 0), pt(6, 0), pt(5, 1)),
        ("NotDistinct", None, "a#b")),
    "angle_copy c#b": (
        lambda: angle_copy(pt(1, 1), O, O, pt(5, 0), pt(6, 0), pt(5, 1)),
        ("NotDistinct", None, "c#b")),
    "angle_copy q off line": (
        lambda: angle_copy(pt(1, 1), O, X, pt(5, 0), pt(6, 0), pt(7, 0)),
        ("NotOffLine", None, "q off line ps")),
    "line_intersect parallel": (
        lambda: line_intersect(O, X, pt(0, 1), pt(1, 1)),
        PostconditionFailure),
    "arithmetic off-axis operand": (lambda: geo_add(pt(1, 1), O), ValueError),
    "geo_inv a#0": (lambda: geo_inv(axis(0)), ("NotDistinct", None, "a#0")),
    "arithmetic strict sqrt a#0": (
        lambda: geo_sqrt(axis(0), strict=True),
        ("NotDistinct", None, "a#0 (strict sqrt)")),
}

# Guards on a quantity that is an eps-sized violation: refused at NODE0,
# where deciding would take Markov's principle, and decided at NODE1.
NODE_GUARDS = {
    "ext_strict c#d": (lambda sem: ext_strict(O, X, O, EPS_X, sem),
                       ("NotDistinct", "A4-i2", "c#d")),
    "line_circle strict inside": (
        lambda sem: line_circle(UNIT, Point(1 - eps(), Q(0)), pt(0, 1),
                                True, sem),
        ("NotInside", "LC-strict", "a inside circle")),
    "lay_off a#b": (lambda sem: lay_off(O, EPS_X, O, X, sem),
                    ("NotDistinct", None, "a#b")),
    "angle_bisect": (lambda sem: angle_bisect(X, O, Point(Q(1), eps()), sem),
                     ("AngleNotPositive", None, "0<angle<pi")),
}


def _refusal(call) -> tuple:
    with pytest.raises(ConstructionError) as ei:
        call()
    return ei.value.kind, ei.value.axiom_id, ei.value.hypothesis


class TestGuardTable:
    @pytest.mark.parametrize("call, refusal", GUARDS.values(), ids=GUARDS)
    def test_guard_refuses(self, call, refusal):
        if isinstance(refusal, tuple):
            assert _refusal(call) == refusal
        else:
            with pytest.raises(refusal):
                call()

    @pytest.mark.parametrize("call, refusal", NODE_GUARDS.values(),
                             ids=NODE_GUARDS)
    def test_infinitesimal_refused_at_node0_only(self, call, refusal):
        assert _refusal(lambda: call(NODE0)) == refusal
        call(NODE1)  # decides; the construction re-checks its conclusion

    def test_lay_off_null_segment_checked_and_traced(self):
        trace = []
        with tracing(trace):
            assert lay_off(O, X, pt(5, 5), pt(5, 5)) == O
        assert [(e.op, e.outputs) for e in trace] == [("lay_off", [O])]


# -- the integer build -------------------------------------------------------
#
# One field per example: Q, a group of radicands that share R = r_n*r_d (so
# sqrt(2) meets sqrt(1/2), whose towers differ), or a depth-2 chain.  Each
# construction built from the kept forms must return the tower's points: the
# same values, coordinate kinds and towers.

_BUILD_FIELDS = st.sampled_from(_SAME_R + _DEPTH2).map(
    lambda units: _scalars(st.sampled_from(units)))


def _tower_path(build):
    """build() with the integer path switched off, as `_zpoints` declines
    the points of two radicand chains."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_zpoints", lambda *points, sem=None: None)
        return build()


def _outcome(build):
    """The points build() returns, or the type of the error it raises."""
    try:
        out = build()
    except (ConstructionError, PostconditionFailure) as err:
        return type(err)
    out = out if isinstance(out, tuple) else (out,)
    return [p.v if hasattr(p, "v") else p for p in out]


def _same_points(got, want) -> None:
    assert type(got) is type(want)
    if not isinstance(want, list):
        return
    for p, q in zip(got, want, strict=True):
        for c, d in ((p.x, q.x), (p.y, q.y)):
            assert type(c) is type(d) and c == d and c.tower == d.tower


def _kept(points) -> None:
    """A form kept from birth is `_zform`'s."""
    for p in points:
        if p._zf is not None:
            assert p._zf == geometry._zform(p)


@st.composite
def _configs(draw):
    """Four points over the scalars of one example, the last two often a
    combination of the first two (so that lines meet and circles cut)."""
    scalar = draw(_BUILD_FIELDS)
    point = st.builds(Point, scalar, scalar)
    a, b, c, d = (draw(point) for _ in range(4))
    if draw(st.booleans()):
        t = draw(scalar)
        c = Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
    return a, b, c, d


class TestIntegerBuild:
    @given(pts=_configs())
    @settings(max_examples=60, deadline=None)
    def test_constructions_match_the_tower(self, pts):
        a, b, c, d = pts
        assume(a != b)
        calls = [lambda: line_intersect(a, b, c, d),
                 lambda: ext(a, b, c, d), lambda: lay_off(a, b, c, d),
                 lambda: _project(c, a, b), lambda: apex_witness(c, a, b),
                 # d may lie outside the circle: then both sides refuse
                 lambda: line_circle(CircleSpec(a, a, c), d, b,
                                     strict=False),
                 lambda: circle_circle(CircleSpec(a, a, c),
                                       CircleSpec(b, b, c))]
        for build in calls:
            got = _outcome(build)
            _same_points(got, _tower_path(lambda: _outcome(build)))
            if isinstance(got, list):
                _kept(got)

    @given(pts=_configs())
    @settings(max_examples=60, deadline=None)
    def test_helpers_keep_zform(self, pts):
        # the helpers return points whose forms were kept at birth
        a, b, c, d = pts
        assume(a != b)
        built = [meet(a, b, c, d), reach(c, a, b, c, d),
                 offset(c, Seg(a, b), sqrt_nonneg(Q(2)) + 1),
                 offset(c, Seg(a, b), sqrt_nonneg(Q(3)), turn=True)]
        qc = geometry.sqdist(a, d) - geometry.sqdist(d, c)
        if qc <= 0:  # a lies inside the circle about d through c
            built += chord(Seg(d, a), Seg(a, b), qc)
        _kept([p for p in built if p is not None])
        kept = [p for p in built if p is not None and p._zf is not None]
        assert all(p._zf for p in kept)


# The tower expressions the helpers replace, operand for operand: where two
# towers share a key (sqrt(2) and sqrt(1/2)), a merge keeps its first
# operand's tower, so the order decides the result's tower.

def _sq(p, q):
    d = vsub(p, q)
    return dot(d, d)


def _cramer(a, b, c, d):
    d1, d2 = vsub(b, a), vsub(d, c)
    t = cross(vsub(c, a), d2) / cross(d1, d2)
    return Point(a.x + d1[0] * t, a.y + d1[1] * t)


def _along(p, a, b, c, d):
    t = sqrt_nonneg(_sq(c, d) / _sq(a, b))
    return Point(p.x + (b.x - a.x) * t, p.y + (b.y - a.y) * t)


def _foot(p, u, v):
    d = vsub(v, u)
    t = dot(vsub(p, u), d) / _sq(u, v)
    return Point(u.x + d[0] * t, u.y + d[1] * t)


def _cut(o, r2, a, b):
    d, ca = vsub(b, a), vsub(a, o)
    qa, qb, qc = dot(d, d), 2 * dot(ca, d), dot(ca, ca) - r2
    root = sqrt_nonneg(qb * qb - 4 * qa * qc)
    return tuple(Point(a.x + d[0] * t, a.y + d[1] * t)
                 for t in ((-qb - root) / (2 * qa), (-qb + root) / (2 * qa)))


def _circles(o1, o2, r1sq, r2sq):
    d2 = _sq(o1, o2)
    k = (d2 + r1sq - r2sq) / (2 * d2)
    base = vsub(o2, o1)
    m = Point(o1.x + base[0] * k, o1.y + base[1] * k)
    w = sqrt_nonneg(r1sq / d2 - k * k)
    off = (-base[1], base[0])
    return (Point(m.x + off[0] * w, m.y + off[1] * w),
            Point(m.x - off[0] * w, m.y - off[1] * w))


def _apex_point(a, b, c):
    ba, bc = vsub(a, b), vsub(c, b)
    t = sqrt_nonneg(dot(ba, ba) / dot(bc, bc))
    return Point(b.x + bc[0] * t, b.y + bc[1] * t)


_R2, _RH = sqrt_nonneg(Q(2)), sqrt_nonneg(Q(1, 2))


class TestTowerOrder:
    # the three examples tell a reversed operand apart: in the length |ab|
    # of `reach`, the |o1 o2| of `circle_circle`, and `line_circle`'s qc
    @example(pts=(Point(-2 - 3 * _RH, Q(-1)), Point(1 - 3 * _R2, Q(-2)),
                  pt(2, -3), Point(Q(2), -3 + 3 * _RH)))
    @example(pts=(Point(3 + _R2, Q(-2)), Point(1 - 3 * _RH, Q(-3)),
                  Point(3 * _R2, -_RH), pt(-3, 2)))
    @example(pts=(pt(-2, -2), Point(Q(1), 2 - _RH),
                  Point(-3 - 2 * _R2, Q(-3)), Point(Q(-3), 2 - _RH)))
    @given(pts=st.sampled_from(_SAME_R[1:]).flatmap(
        lambda units: st.tuples(*[st.builds(
            Point, _scalars(st.sampled_from(units)),
            _scalars(st.sampled_from(units))) for _ in range(4)])))
    @settings(max_examples=100, deadline=None)
    def test_helpers_keep_the_towers(self, pts):
        a, b, c, d = pts
        assume(a != b and a != c and d != b and not collinear(a, b, c))
        pairs = [(reach(b, a, b, c, d), _along(b, a, b, c, d)),
                 (_project(c, a, b), _foot(c, a, b)),
                 (apex_witness(c, a, b).v, _apex_point(c, a, b))]
        if not cross(vsub(b, a), vsub(d, c)).is_zero():
            pairs.append((meet(a, b, c, d), _cramer(a, b, c, d)))
        if _sq(a, d) <= _sq(a, c):  # d lies inside the circle about a
            pairs += zip(line_circle(CircleSpec(a, a, c), d, b, strict=False),
                         _cut(a, _sq(a, c), d, b))
        pairs += zip(circle_circle(CircleSpec(a, a, c), CircleSpec(b, b, c)),
                     _circles(a, b, _sq(a, c), _sq(b, c)))
        _same_points([p for p, _ in pairs], [q for _, q in pairs])


# each over Q, with an irrational output where the construction has one
_OVER_Q = {
    "line_intersect": lambda: line_intersect(pt(0, 0), pt(3, 1),
                                             pt(1, 5), pt(2, -3)),
    "ext-irrational": lambda: ext(pt(0, 0), pt(1, 2), pt(0, 0), pt(1, 1)),
    "lay_off": lambda: lay_off(pt(1, 1), pt(4, 2), pt(0, 0), pt(2, 3)),
    "line_circle": lambda: line_circle(CircleSpec(O, O, pt(3, 1)),
                                       pt(Q(1, 2), 0), pt(1, 1)),
    "line_circle-irrational": lambda: line_circle(
        CircleSpec(O, O, pt(3, 1)), pt(Q(1, 2), 0), pt(Q(3, 2), 1)),
    "equilateral": lambda: equilateral(pt(0, 0), pt(Q(3, 2), 1)),
    "apex_witness": lambda: apex_witness(pt(3, 1), pt(0, 0), pt(1, 4)),
}


class TestBuildBudget:
    def test_irrational_outputs(self):
        # the instances reach the integer build of Q(sqrt r)
        for name in ("ext-irrational", "lay_off", "line_circle-irrational",
                     "equilateral", "apex_witness"):
            out = _outcome(_OVER_Q[name])
            assert any(type(c) is FieldElement for p in out
                       for c in (p.x, p.y)), name

    @pytest.mark.parametrize("build", _OVER_Q.values(), ids=_OVER_Q)
    def test_over_q_makes_no_tower_op(self, build, monkeypatch):
        # points over Q are built from their forms, outputs in Q(sqrt r)
        # too: no FieldElement._binop
        calls, binop = [], FieldElement._binop

        def counted(self, other, op):
            calls.append(op)
            return binop(self, other, op)

        assert isinstance(_outcome(build), list)
        monkeypatch.setattr(FieldElement, "_binop", counted)
        build()
        assert calls == []
