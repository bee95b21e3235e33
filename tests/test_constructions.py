"""Guarded constructions against hand-computed instances."""

import doctest
import os
from fractions import Fraction

import pytest

from geokernel.field import Q, eps, sqrt_nonneg
from geokernel.geometry import (
    NODE0, NODE1, Point, between, collinear, congruent, distinct, midpoint,
    nonstrict_between, on_ray, pos_angle, pt, right_angle,
)
from geokernel.constructions import (
    CircleSpec, ConstructionError, PostconditionFailure, angle_bisect,
    angle_copy, circle_circle, crossbar_point, equilateral, ext, ext_strict,
    euclid5, inner_pasch, lay_off, line_circle, line_intersect,
    midpoint_gupta, named_angle_tiling, outer_pasch, perpendicular, reflect,
    tracing,
)
from geokernel.arithmetic import axis, geo_add, geo_inv, geo_sqrt

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
