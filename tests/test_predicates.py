"""Point predicates and their witnesses, in both semantics."""

import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geokernel.audit import audit_run
from geokernel.constructions import (
    ConstructionError, crossbar_point, euclid5, inner_pasch, outer_pasch,
)
from geokernel import field, geometry, nafield
from geokernel.field import FieldElement, Q, eps, sqrt_nonneg
from geokernel.geometry import (
    CONSTRUCTIBLE, NODE0, NODE1, ArityMismatch, NotPositiveAngle, Point,
    angle_cong, angle_lt_pi, apex_witness, angle_witness, between, collinear,
    congruent, cross, distinct, distinct_witness, dot, midpoint,
    nonstrict_between, on_ray, pos_angle, positive, predicate_eval, pt,
    right_angle, sqdist, verify_witness, vsub,
)
from geokernel.nafield import DegreeTooHigh, Rat, RatFunc

coord = st.fractions(min_value=-20, max_value=20)


def rand_pt(x, y):
    return pt(x, y)


class TestBetweenness:
    def test_strict_basics(self):
        assert between(pt(0, 0), pt(1, 0), pt(3, 0))
        assert not between(pt(0, 0), pt(0, 0), pt(3, 0))
        assert not between(pt(0, 0), pt(3, 0), pt(3, 0))
        assert not between(pt(0, 0), pt(4, 0), pt(3, 0))
        assert not between(pt(0, 0), pt(1, 1), pt(3, 0))

    def test_nonstrict_allows_endpoints(self):
        assert nonstrict_between(pt(0, 0), pt(0, 0), pt(3, 0))
        assert nonstrict_between(pt(0, 0), pt(3, 0), pt(3, 0))
        assert nonstrict_between(pt(1, 1), pt(1, 1), pt(1, 1))
        assert not nonstrict_between(pt(0, 0), pt(4, 0), pt(3, 0))

    @given(ax=coord, ay=coord, bx=coord, by=coord,
           t=st.fractions(min_value=Fraction(1, 100),
                          max_value=Fraction(99, 100)))
    @settings(max_examples=100, deadline=None)
    def test_interior_points_are_between(self, ax, ay, bx, by, t):
        a, b = pt(ax, ay), pt(bx, by)
        m = pt(ax + (bx - ax) * t, ay + (by - ay) * t)
        if distinct(a, b):
            assert between(a, m, b)
            assert between(b, m, a)  # symmetry

    @given(ax=coord, ay=coord, bx=coord, by=coord, cx=coord, cy=coord)
    @settings(max_examples=100, deadline=None)
    def test_strict_implies_nonstrict(self, ax, ay, bx, by, cx, cy):
        a, b, c = pt(ax, ay), pt(bx, by), pt(cx, cy)
        if between(a, b, c):
            assert nonstrict_between(a, b, c)
            assert collinear(a, b, c)


class TestAngles:
    def test_positive_angle_is_noncollinearity(self):
        assert pos_angle(pt(1, 0), pt(0, 0), pt(0, 1))
        assert not pos_angle(pt(1, 0), pt(0, 0), pt(2, 0))
        assert not pos_angle(pt(1, 0), pt(0, 0), pt(-1, 0))
        assert not pos_angle(pt(0, 0), pt(0, 0), pt(0, 1))

    def test_straight_angle_not_lt_pi(self):
        assert angle_lt_pi(pt(1, 0), pt(0, 0), pt(0, 1))
        assert not angle_lt_pi(pt(1, 0), pt(0, 0), pt(-2, 0))

    def test_right_angle(self):
        assert right_angle(pt(3, 0), pt(0, 0), pt(0, 5))
        assert not right_angle(pt(3, 0), pt(0, 0), pt(1, 5))

    def test_angle_cong_scale_invariant(self):
        # the 45-degree angle at two different scales
        assert angle_cong(pt(1, 0), pt(0, 0), pt(1, 1),
                          pt(7, 0), pt(0, 0), pt(3, 3))
        assert not angle_cong(pt(1, 0), pt(0, 0), pt(1, 1),
                              pt(1, 0), pt(0, 0), pt(0, 1))

    def test_angle_cong_rejects_reflex_mismatch(self):
        # equal cosines but opposite dot signs must not be identified
        assert not angle_cong(pt(1, 0), pt(0, 0), pt(1, 1),
                              pt(1, 0), pt(0, 0), pt(-1, 1))


class TestWitnesses:
    def test_distinct_witness_verifies(self):
        a, b = pt(0, 0), pt(4, 2)
        w = distinct_witness(a, b)
        assert verify_witness("Distinct", (a, b), w)

    def test_apex_witness_verifies(self):
        a, b, c = pt(2, 0), pt(0, 0), pt(3, 3)
        w = apex_witness(a, b, c)
        assert w.kind == "apex"
        assert congruent(b, w.u, b, w.v)
        assert verify_witness("PosAngle", (a, b, c), w)

    def test_right_witness_verifies(self):
        a, b, c = pt(2, 0), pt(0, 0), pt(0, 3)
        w = angle_witness(a, b, c)
        assert w.kind == "right"
        assert verify_witness("PosAngle", (a, b, c), w)

    def test_apex_refuses_flat_angle(self):
        with pytest.raises(NotPositiveAngle) as ei:
            apex_witness(pt(1, 0), pt(0, 0), pt(2, 0))
        # the one refusal type, refused as the Pasch angle guards refuse
        assert isinstance(ei.value, ConstructionError)
        assert ei.value.kind == "AngleNotPositive"


class TestDispatch:
    def test_arity_checked(self):
        with pytest.raises(ArityMismatch):
            predicate_eval("B", [pt(0, 0), pt(1, 0)])
        with pytest.raises(ArityMismatch):
            predicate_eval("NoSuch", [pt(0, 0)])

    def test_witness_returned(self):
        res = predicate_eval("Distinct", [pt(0, 0), pt(1, 0)])
        assert res.holds and res.witness is not None
        res = predicate_eval("PosAngle", [pt(1, 0), pt(0, 0), pt(1, 1)])
        assert res.holds and res.witness.kind == "apex"

    def test_all_kinds_run(self):
        a, b, c, d = pt(0, 0), pt(1, 0), pt(2, 0), pt(0, 1)
        assert predicate_eval("E", [a, b, b, c]).holds
        assert predicate_eval("L", [a, b, c]).holds
        assert predicate_eval("T", [a, a, c]).holds
        assert predicate_eval("Ray", [a, b, c]).holds
        assert predicate_eval("RightAngle", [b, a, d]).holds
        assert predicate_eval("AngleLtPi", [b, a, d]).holds
        assert predicate_eval(
            "AngleCong", [b, a, d, b, a, d]).holds


class TestPoint:
    def test_coordinates_cannot_be_set_or_deleted(self):
        p = pt(1, 2)
        for name in ("x", "y", "_zf"):
            with pytest.raises(AttributeError):
                setattr(p, name, Q(3))
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert p == pt(1, 2)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(pt(1, 2))

    def test_eq_is_a_patchable_class_attribute(self, monkeypatch):
        # perfbench's tracer wraps Point.__eq__ on the class
        assert "__eq__" in vars(Point)
        seen = []
        eq = Point.__eq__

        def counted(self, other):
            seen.append(other)
            return eq(self, other)

        monkeypatch.setattr(Point, "__eq__", counted)
        assert pt(1, 2) == pt(1, 2) and seen

    def test_each_form_is_built_once(self, monkeypatch):
        # the points stay referenced, so no two of them share an id
        built = []
        zform = geometry._zform

        def counted(p):
            built.append(p)
            return zform(p)

        monkeypatch.setattr(geometry, "_zform", counted)
        audit_run("constructible", 8, 42)
        ids = [id(p) for p in built]
        assert ids and len(ids) == len(set(ids))


class TestNodeSemantics:
    def test_infinitesimal_gap_read_differently(self):
        a = Point(Q(0), Q(0))
        b = Point(eps(), Q(0))
        assert not distinct(a, b, NODE0)
        assert distinct(a, b, NODE1)

    def test_between_with_infinitesimal_gap(self):
        a = Point(Q(0), Q(0))
        m = Point(eps(), Q(0))
        c = Point(Q(1), Q(0))
        assert not between(a, m, c, NODE0)
        assert between(a, m, c, NODE1)

    def test_unbounded_lengths_still_positive_at_node0(self):
        a = Point(Q(0), Q(0))
        b = Point(Q(1) / eps(), Q(0))
        assert distinct(a, b, NODE0)

    def test_gap_of_half_order_is_infinitesimal(self):
        # sqrt(eps) has eps-order 1/2: infinitesimal, though not a RatFunc;
        # sqrt(eps) - eps/2 keeps that order when the terms pull apart
        a = pt(0, 0)
        for gap in (sqrt_nonneg(eps()), sqrt_nonneg(eps()) - eps() / 2):
            b = Point(gap, Q(0))
            assert not distinct(a, b, NODE0) and distinct(a, b, NODE1)

    def test_unbounded_points_read_by_their_gaps_at_node0(self):
        # moved by (1/eps, 1/eps), the points lie outside F0; their finite
        # gaps stay positive at node 0, an infinitesimal one does not
        o, x, y = _moved((pt(0, 0), pt(1, 0), pt(0, 1)), 1 / eps(), 1 / eps())
        near = Point(o.x + eps(), o.y)
        assert distinct(o, x, NODE0) and not distinct(o, near, NODE0)
        assert pos_angle(x, o, y, NODE0) and right_angle(x, o, y, NODE0)
        assert not pos_angle(near, o, y, NODE0)
        assert between(near, x, Point(x.x + 1, x.y), NODE0)
        assert not between(o, near, x, NODE0) and between(o, near, x, NODE1)


# -- the predicates against their definitions --------------------------------

SEMANTICS = (CONSTRUCTIBLE, NODE0, NODE1)
# halves make coincidences likely; denominators up to 2^10 are the audit's
_RATIONALS = (st.fractions(min_value=-2, max_value=2, max_denominator=2)
              | st.fractions(min_value=-2, max_value=2, max_denominator=2 ** 10))
# Q, three quadratic fields (sqrt(1/2) over a radicand that is not an
# integer, and over another radicand than sqrt(2)), depth 2, Q(eps), two
# radicands with an eps (sqrt(eps) of half-integer order), an eps leaf over
# sqrt(2), and an eps denominator that is not a unit
_UNITS = [Q(0), sqrt_nonneg(Q(2)), sqrt_nonneg(Q(1, 2)), sqrt_nonneg(Q(3)),
          sqrt_nonneg(1 + sqrt_nonneg(Q(2))), eps(), sqrt_nonneg(1 + eps()),
          sqrt_nonneg(eps()), eps() * sqrt_nonneg(Q(2)), Q(1) / (1 + eps())]


def _scalars(units):
    """a + b*u, with u drawn from `units`."""
    return st.builds(lambda a, b, u: Q(a) + Q(b) * u, _RATIONALS, _RATIONALS,
                     units)


# the scalars of one example: all over one u, so that whole triples lie in
# one quadratic field, or each over its own u, drawn from the eps-free units
# or from those with an eps, so that radicands mix (in towers of depth 3 at
# most: sign and valuation grow fivefold in cost with each level)
_FIELDS = (st.sampled_from(_UNITS).map(lambda u: _scalars(st.just(u)))
           | st.just(_scalars(st.sampled_from(_UNITS[:6])))
           | st.just(_scalars(st.sampled_from(_UNITS[5:]))))


def _along(u: Point, v: Point, t: FieldElement) -> Point:
    return Point(u.x + (v.x - u.x) * t, u.y + (v.y - u.y) * t)


@st.composite
def _triples(draw, scalar=None):
    """Three points: free, with a repeat, or collinear in any order (the
    third at u + t*(v - u), so an eps in t gives an infinitesimal gap)."""
    if scalar is None:
        scalar = draw(_FIELDS)
    point = st.builds(Point, scalar, scalar)
    u, v, w = draw(point), draw(point), draw(point)
    kind = draw(st.sampled_from(["free", "repeat", "collinear"]))
    if kind == "repeat":
        return tuple(draw(st.permutations([u, u, v])))
    if kind == "collinear":
        w = _along(u, v, draw(scalar | st.sampled_from([Q(0), Q(1)])))
        return tuple(draw(st.permutations([u, v, w])))
    return u, v, w


@st.composite
def _angle_pairs(draw, fields=_FIELDS):
    """Two angles a b c and a2 b2 c2 over the scalars of one example; often
    the second is the first with its legs rescaled or swapped, so congruent
    pairs are common."""
    scalar = draw(fields)
    a, b, c = draw(_triples(scalar))
    kind = draw(st.sampled_from(["free", "rescaled", "swapped"]))
    if kind == "rescaled":
        k1, k2 = draw(scalar), draw(scalar)
        return (a, b, c), (_along(b, a, k1), b, _along(b, c, k2))
    if kind == "swapped":
        return (a, b, c), (c, b, a)
    return (a, b, c), draw(_triples(scalar))


# the definitions, in field arithmetic alone: none of them calls a predicate

def _ordered(u, v, w) -> bool:
    return dot(vsub(v, u), vsub(w, v)).sign() > 0


def _collinear(u, v, w) -> bool:
    return cross(vsub(w, u), vsub(w, v)).is_zero()


def _apart(a, b, sem) -> bool:
    return positive(sqdist(a, b), sem)


class TestAgainstDefinitions:
    @given(pts=_triples())
    @settings(max_examples=100, deadline=None)
    def test_betweenness(self, pts):
        u, v, w = pts
        for sem in SEMANTICS:
            assert between(u, v, w, sem) == (
                _collinear(u, v, w) and _apart(u, v, sem)
                and _apart(v, w, sem) and _ordered(u, v, w))
        assert nonstrict_between(u, v, w) == (
            u == v or v == w or (_collinear(u, v, w) and _ordered(u, v, w)))

    @given(pts=_triples())
    @settings(max_examples=100, deadline=None)
    def test_angles(self, pts):
        a, b, c = pts
        for sem in SEMANTICS:
            cr = cross(vsub(a, b), vsub(c, b))
            assert pos_angle(a, b, c, sem) == (
                _apart(a, b, sem) and _apart(c, b, sem)
                and positive(cr * cr, sem))
            assert right_angle(a, b, c, sem) == (
                _apart(a, b, sem) and _apart(c, b, sem) and _apart(a, c, sem)
                and dot(vsub(a, b), vsub(c, b)).is_zero())

    @given(pts=_triples())
    @settings(max_examples=100, deadline=None)
    def test_angle_lt_pi_is_pos_angle(self, pts):
        # reflecting a in b keeps |a - b|^2 and negates the cross product,
        # so the Pasch guards may test pos_angle alone
        a, b, c = pts
        for sem in SEMANTICS:
            assert pos_angle(a, b, c, sem) == angle_lt_pi(a, b, c, sem)

    @given(angles=_angle_pairs())
    @settings(max_examples=100, deadline=None)
    def test_angle_cong(self, angles):
        (a, b, c), (a2, b2, c2) = angles
        q1, q2 = sqdist(a, b), sqdist(c, b)
        p1, p2 = sqdist(a2, b2), sqdist(c2, b2)
        d = dot(vsub(a, b), vsub(c, b))
        e = dot(vsub(a2, b2), vsub(c2, b2))
        assert angle_cong(a, b, c, a2, b2, c2) == (
            not any(x.is_zero() for x in (q1, q2, p1, p2))
            and d.sign() == e.sign() and d * d * p1 * p2 == e * e * q1 * q2)

    @given(triple=_triples())
    @settings(max_examples=100, deadline=None)
    def test_collinear_and_congruent(self, triple):
        u, v, w = triple
        assert collinear(u, v, w) == _collinear(u, v, w)
        assert congruent(u, v, v, w) == (sqdist(u, v) == sqdist(v, w))
        for sem in SEMANTICS:
            assert distinct(u, w, sem) == _apart(u, w, sem)


def _moved(points, dx, dy=Q(0)) -> tuple:
    return tuple(Point(p.x + dx, p.y + dy) for p in points)


def _answers(a, b, c, a2, b2, c2) -> list:
    """Every answer of the predicates decided over Z[sqrt R]."""
    out = [collinear(a, b, c), nonstrict_between(a, b, c),
           congruent(a, b, b, c), congruent(a, b, c2, b2), on_ray(b, a, c),
           angle_cong(a, b, c, a2, b2, c2)]
    for sem in SEMANTICS:
        out += [between(a, b, c, sem), distinct(a, c, sem),
                right_angle(a, b, c, sem), pos_angle(a, b, c, sem)]
    return out


# one field Q(eps)(sqrt r) per example, so that every example is decided
# over Q[eps][sqrt R]: radicands of eps-order 0, 1/2 and -1, with r_d = 1,
# 2, 1 + eps or eps (the last makes the scale's order positive), a rational
# radicand with r.d = 2, and leaves with a denominator 1 + eps, eps or
# 1 + eps/3 (a canonical denominator with a coefficient outside Z);
# scalars a + b*u + c*eps, or 1 + c*eps for an infinitesimal gap when they
# place a collinear point
_EPS_UNITS = [sqrt_nonneg(1 + eps()), sqrt_nonneg(eps()),
              sqrt_nonneg(3 * eps()), sqrt_nonneg(2 + eps() * eps()),
              sqrt_nonneg(eps() / 2), sqrt_nonneg(1 / (1 + eps())),
              sqrt_nonneg(1 / eps()), eps() * sqrt_nonneg(Q(1, 2)),
              Q(1) / (1 + eps()), Q(1) / eps(), Q(1) / (1 + eps() / 3)]
_EPS_FIELDS = st.sampled_from(_EPS_UNITS).map(lambda u: st.builds(
    lambda a, b, c: Q(a) + Q(b) * u + Q(c) * eps(),
    _RATIONALS, _RATIONALS, _RATIONALS)
    | st.builds(lambda c: 1 + Q(c) * eps(), _RATIONALS))


_SQRT2, _SQRT3 = sqrt_nonneg(Q(2)), sqrt_nonneg(Q(3))

# groups of radicands that share R = r_n*r_d, so that their points are
# decided together on their integer forms: 2 and 1/2 (R = 2); 6, 3/2 and
# 2/3 (R = 6); with 0 in each, so that points of depth 0 and 1 meet in one
# call; each coordinate has its own radicand and denominators
_SAME_R = [[Q(0)], [Q(0), _SQRT2, sqrt_nonneg(Q(1, 2))],
           [Q(0), sqrt_nonneg(Q(6)), sqrt_nonneg(Q(3, 2)),
            sqrt_nonneg(Q(2, 3))]]
_SAME_R_FIELDS = st.sampled_from(_SAME_R).map(
    lambda units: _scalars(st.sampled_from(units)))


def _chain(r1s, r2):
    """Units of depth 0, 1 and 2 over one chain Q(sqrt r1)(sqrt r2): 0, the
    roots of `r1s` (which share R1), sqrt(r2) for r2 = r2(sqrt r1s[0]),
    and its products with the first and last root."""
    roots = [sqrt_nonneg(Q(r)) for r in r1s]
    s = sqrt_nonneg(r2(roots[0]))
    assert s.depth == 2
    return [Q(0), *roots, s, roots[0] * s, roots[-1] * s]


# depth-2 chains: r2 = 1 + sqrt 2 (E = 1); r1 = 3/2 (r_d = 2) with r2 =
# 1/3 + (2/5)sqrt(3/2) (E > 1); r2 = 7/4 - (1/6)sqrt(5/7), whose sqrt r1
# part is negative; and r2 = 2 over r1 = 3 (a rational r2, met by the merge
# of sqrt 3 with sqrt 2)
_DEPTH2 = [
    _chain((2, Fraction(1, 2)), lambda s: 1 + s),
    _chain((Fraction(3, 2), 6, Fraction(2, 3)),
           lambda s: Q(1, 3) + Q(2, 5) * s),
    _chain((Fraction(5, 7), 35), lambda s: Q(7, 4) - Q(1, 6) * s),
    [Q(0), _SQRT3, sqrt_nonneg(Q(1, 3)), _SQRT3 + _SQRT2,
     _SQRT3 * (_SQRT3 + _SQRT2)],
]
_DEPTH2_FIELDS = st.sampled_from(_DEPTH2).map(
    lambda units: _scalars(st.sampled_from(units)))


def _has_eps(c) -> bool:
    """A leaf of c, or of a radicand of its tower, is a RatFunc."""
    tower, rep = field._parts(c)
    return any(field._rhas_eps(r, i) for i, r in enumerate(tower + (rep,)))


def _lanes_value(R, lanes, s):
    """The x and y that a point's form (R, (lanes, s)) stands for, computed
    in the field from the key R alone."""
    if type(R) is tuple:
        R1, (P, Q2) = R
        root1 = sqrt_nonneg(Q(R1))
        root2 = sqrt_nonneg(P + Q2 * root1)
        return [(c[0] + c[1] * root1 + (c[2] + c[3] * root1) * root2) / s
                for c in (lanes[:4], lanes[4:])]
    root = sqrt_nonneg(Q(R)) if R else Q(0)
    xa, xb, ya, yb = lanes
    return (xa + xb * root) / s, (ya + yb * root) / s


def _with_and_without_integer_path(pts) -> tuple[list, list]:
    """Every answer, and the angle witness's kind, decided with the integer
    path and again with it switched off (on the tower)."""
    def answers():
        return _answers(*pts) + [
            getattr(angle_witness(*pts[:3], sem), "kind", None)
            for sem in SEMANTICS]

    decided = answers()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_zpoints", lambda *points, sem=None: None)
        return decided, answers()


class TestIntegerPath:
    @given(angles=_angle_pairs())
    @settings(max_examples=50, deadline=None)
    def test_moving_by_sqrt2_sqrt3_keeps_every_answer(self, angles):
        # a move keeps every difference of points, and a move by
        # (sqrt 2, sqrt 3) gives x and y two radicands (unless a sqrt term
        # cancels), so the moved points are decided on the tower path
        pts = angles[0] + angles[1]
        assert _answers(*pts) == _answers(*_moved(pts, _SQRT2, _SQRT3))

    @given(angles=_angle_pairs(_EPS_FIELDS))
    @settings(max_examples=100, deadline=None)
    def test_tower_gives_every_answer(self, angles):
        # the same points, decided with the integer path switched off; the
        # angle witness's kind too
        pts = angles[0] + angles[1]
        assert geometry._zpoints(*pts) is not None
        decided, on_tower = _with_and_without_integer_path(pts)
        assert decided == on_tower

    @given(angles=_angle_pairs(_SAME_R_FIELDS))
    @settings(max_examples=100, deadline=None)
    def test_homogeneous_forms_give_every_answer(self, angles):
        # each point is decided on its own form (R, (coords, S)), which
        # stands for x = (xA + xB*sqrt(R))/S and y = (yA + yB*sqrt(R))/S
        pts = angles[0] + angles[1]
        assert geometry._zpoints(*pts) is not None
        for p in pts:
            R, ((xa, xb, ya, yb), s) = p._zf
            root = sqrt_nonneg(Q(R)) if R else Q(0)
            assert s > 0
            assert p.x * s == xa + xb * root and p.y * s == ya + yb * root
        decided, on_tower = _with_and_without_integer_path(pts)
        assert decided == on_tower

    @given(angles=_angle_pairs(_DEPTH2_FIELDS))
    @settings(max_examples=100, deadline=None)
    def test_depth_two_forms_give_every_answer(self, angles):
        # points over Q, Q(sqrt r1) and Q(sqrt r1)(sqrt r2) of one chain meet
        # on the key (R1, R2); each point's lanes stand for its coordinates,
        # and the integer path answers as the tower does
        pts = angles[0] + angles[1]
        z = geometry._zpoints(*pts)
        assert z is not None
        for p in pts:
            R, (lanes, s) = p._zf
            assert s > 0 and len(lanes) == (8 if type(R) is tuple else 4)
            assert [p.x, p.y] == list(_lanes_value(R, lanes, s))
        decided, on_tower = _with_and_without_integer_path(pts)
        assert decided == on_tower

    @pytest.mark.parametrize("mode", ["constructible", "nonarchimedean"])
    def test_audit_sends_only_eps_points_to_the_tower(self, mode,
                                                      monkeypatch):
        # every predicate call of a small audit whose points are eps-free,
        # the depth-2 points of lay_off among them, is decided on integers
        zpoints, declined, depths = geometry._zpoints, [], set()

        def recorded(*points, sem=None):
            z = zpoints(*points, sem=sem)
            coords = [c for p in points for c in (p.x, p.y)]
            depths.update(getattr(c, "depth", 0) for c in coords)
            if z is None and not any(map(_has_eps, coords)):
                declined.append(points)
            return z

        monkeypatch.setattr(geometry, "_zpoints", recorded)
        audit_run(mode, 16, 42)
        assert declined == [] and depths == {0, 1, 2}

    @given(angles=_angle_pairs(st.just(_scalars(st.just(Q(0))))))
    @settings(max_examples=100, deadline=None)
    def test_q_lanes_give_every_answer(self, angles):
        # points over Q (R = 0) are decided on lanes 0 and 2 of their forms;
        # the same forms with a nonsquare R take all four lanes (the sqrt
        # lanes 0), and the tower decides them without forms
        pts = angles[0] + angles[1]
        assert geometry._zpoints(*pts)[0] == 0
        decided, on_tower = _with_and_without_integer_path(pts)
        assert decided == on_tower
        zpoints = geometry._zpoints

        def four_lanes(*points, sem=None):
            z = zpoints(*points, sem=sem)
            return z if z is None else (z[0] or 2, z[1])

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_zpoints", four_lanes)
            assert _answers(*pts) + [
                getattr(angle_witness(*pts[:3], sem), "kind", None)
                for sem in SEMANTICS] == decided

    @pytest.mark.parametrize("a, b, c, d, holds", [
        # the same ints (3, 4) over the scales 1 and 2: lengths 5 and 5/2
        (pt(0, 0), pt(3, 4), pt(0, 0), pt(Q(3, 2), 2), False),
        # length 5/2 over the scales 2 and 3*6
        (pt(0, 0), pt(Q(3, 2), 2), pt(Q(1, 3), 0), pt(Q(11, 6), 2), True),
        # length^2 25/2 at depth 1 (sqrt(1/2) is sqrt(2)/2) and at depth 0
        (pt(0, 0), Point(3 * sqrt_nonneg(Q(1, 2)), 4 * sqrt_nonneg(Q(1, 2))),
         pt(Q(1, 3), Q(1, 3)), pt(Q(17, 6), Q(17, 6)), True),
        (pt(0, 0), Point(3 * _SQRT2, 4 * _SQRT2), pt(Q(1, 7), 0),
         Point(Q(1, 7) + 5 * sqrt_nonneg(Q(1, 2)), Q(0)), False),
    ], ids=["same-ints", "scales-2-18", "depth-1-and-0", "depth-1-unequal"])
    def test_congruent_reads_each_scale(self, a, b, c, d, holds):
        # segments whose integer differences need the scales to compare
        assert geometry._zpoints(a, b, c, d) is not None
        assert (sqdist(a, b) == sqdist(c, d)) is holds
        assert congruent(a, b, c, d) is holds
        assert congruent(c, d, a, b) is holds

    def test_declines_past_max_degree(self, monkeypatch):
        # coordinates of eps-degree 3 pass a MAX_DEGREE of 2: the integer
        # path declines, and the tower refuses the degree as before
        a, b = pt(0, 0), Point(eps() ** 3, Q(0))
        assert congruent(a, b, b, a) and distinct(a, b, NODE1)
        monkeypatch.setattr(nafield, "MAX_DEGREE", 2)
        for call in (lambda: congruent(a, b, b, a),
                     lambda: distinct(a, b, NODE1)):
            with pytest.raises(DegreeTooHigh):
                call()


def _pos_angle_eval(a, b, c):
    return predicate_eval("PosAngle", (a, b, c))


# one call per predicate that decides over Z[sqrt R], each true, so that it
# runs every check
_DECIDED = [
    (between, (pt(0, 0), pt(1, 0), pt(3, 0))),
    (nonstrict_between, (pt(0, 0), pt(1, 0), pt(3, 0))),
    (collinear, (pt(0, 0), pt(1, 1), pt(3, 3))),
    (congruent, (pt(0, 0), pt(3, 4), pt(1, 1), pt(6, 1))),
    (distinct, (pt(0, 0), pt(1, 2))),
    (right_angle, (pt(3, 0), pt(0, 0), pt(0, 5))),
    (pos_angle, (pt(1, 0), pt(0, 0), pt(0, 1))),
    (angle_cong, (pt(1, 0), pt(0, 0), pt(1, 1),
                  pt(7, 0), pt(0, 0), pt(3, 3))),
    (on_ray, (pt(0, 0), pt(1, 0), pt(3, 0))),
]


# the predicates (and the angle witness) that read P
_READS_P = (between, distinct, right_angle, pos_angle, angle_witness)


class TestOpBudget:
    """Field ops per predicate (or Pasch construction) call, counted at
    FieldElement._binop and at the base values' arithmetic (see
    `_count_binops`), so redundant arithmetic cannot creep back.  The
    budgets are for the tower path: the rational points are moved by
    (sqrt 2, sqrt 3), which keeps every gap and every early exit, and whose
    two radicands keep each of them off the integer path."""

    @pytest.mark.parametrize("shift, sem", [
        (Q(0), CONSTRUCTIBLE), (sqrt_nonneg(Q(2)), CONSTRUCTIBLE),
        (eps(), CONSTRUCTIBLE), (sqrt_nonneg(1 + eps()), CONSTRUCTIBLE),
        (eps(), NODE1), (sqrt_nonneg(1 + eps()), NODE1),
        (Q(0), NODE0), (sqrt_nonneg(Q(2)), NODE0),
        (_DEPTH2[0][3], CONSTRUCTIBLE), (_DEPTH2[0][3], NODE0),
        (_DEPTH2[1][6], CONSTRUCTIBLE), (_DEPTH2[1][6], NODE0)],
        ids=["rational", "sqrt2", "eps", "sqrt-1-plus-eps", "eps-M1",
             "sqrt-1-plus-eps-M1", "rational-M0", "sqrt2-M0",
             "depth-2", "depth-2-M0", "depth-2-scaled", "depth-2-scaled-M0"])
    @pytest.mark.parametrize("pred, args", _DECIDED,
                             ids=[p.__name__ for p, _ in _DECIDED])
    def test_integer_path_makes_no_field_op(self, pred, args, shift, sem,
                                            monkeypatch):
        # points over Q, or over Q(sqrt 2), Q(eps), Q(eps)(sqrt(1 + eps)),
        # Q(sqrt 2)(sqrt(1 + sqrt 2)) or Q(sqrt(3/2))(sqrt r2) after a move by
        # (shift, shift/2); with an eps at any node but NODE0, or at NODE0
        # without one, P is d != 0 and reads no element
        args = _moved(args, shift, shift / 2)
        calls, read = _count_binops(monkeypatch), _count_positive(monkeypatch)
        assert pred(*args, sem) if pred in _READS_P else pred(*args)
        assert calls == [] and read == []

    @pytest.mark.parametrize("shift", [eps(), sqrt_nonneg(1 + eps())],
                             ids=["eps", "sqrt-1-plus-eps"])
    @pytest.mark.parametrize("pred, args", _DECIDED + [
        (angle_witness, (pt(2, 0), pt(0, 0), pt(3, 3)))],
        ids=[p.__name__ for p, _ in _DECIDED] + ["angle_witness"])
    def test_node0_reads_p_through_positive(self, pred, args, shift,
                                            monkeypatch):
        # the same points at NODE0: a predicate that reads P takes the
        # tower, where `positive` reads it; the others keep the integer path
        args = _moved(args, shift, shift / 2)
        calls, read = _count_binops(monkeypatch), _count_positive(monkeypatch)
        if pred in _READS_P:
            assert pred(*args, NODE0)
            assert read and all(sem == NODE0 for sem in read)
        else:
            assert pred(*args)
            assert calls == [] and read == []

    @pytest.mark.parametrize("pred, args, ops", [
        (between, (pt(0, 0), pt(1, 0), pt(3, 0)), 16),
        (between, (pt(0, 0), pt(1, 1), pt(3, 0)), 7),
        (nonstrict_between, (pt(0, 0), pt(1, 0), pt(3, 0)), 10),
        (nonstrict_between, (pt(0, 0), pt(0, 0), pt(3, 0)), 0),
        (pos_angle, (pt(1, 0), pt(0, 0), pt(0, 1)), 14),
        (pos_angle, (pt(0, 0), pt(0, 0), pt(0, 1)), 5),
        (right_angle, (pt(3, 0), pt(0, 0), pt(0, 5)), 18),
        (angle_cong, (pt(1, 0), pt(0, 0), pt(1, 1),
                      pt(7, 0), pt(0, 0), pt(3, 3)), 32),
        # decided once; the witness reuses a - b, c - b and their lengths
        (_pos_angle_eval, (pt(2, 0), pt(0, 0), pt(3, 3)), 22),
        (_pos_angle_eval, (pt(2, 0), pt(0, 0), pt(0, 3)), 21),
        (_pos_angle_eval, (pt(1, 0), pt(0, 0), pt(2, 0)), 14),
        # one pos_angle per guard angle, with no supplement test beside it
        (inner_pasch, (pt(0, 0), pt(2, 0), pt(4, 0), pt(0, 4), pt(2, 2)), 95),
        (outer_pasch, (pt(0, 0), pt(2, 0), pt(4, 0), pt(0, 4), pt(6, -2)),
         95),
    ], ids=["between", "between-not-collinear", "nonstrict-between",
            "nonstrict-between-repeat", "pos-angle", "pos-angle-degenerate",
            "right-angle", "angle-cong", "eval-pos-angle-apex",
            "eval-pos-angle-right", "eval-pos-angle-flat", "inner-pasch",
            "outer-pasch"])
    def test_binop_count(self, pred, args, ops, monkeypatch):
        args = _moved(args, _SQRT2, _SQRT3)
        calls = _count_binops(monkeypatch)
        pred(*args)
        assert len(calls) == ops

    @pytest.mark.parametrize("args, ops", [
        ((pt(2, 0), pt(0, 0), pt(3, 3)), 15),
        ((pt(2, 0), pt(0, 0), pt(0, 3)), 4),
        ((pt(1, 0), pt(0, 0), pt(2, 0)), 0),
    ], ids=["apex", "right", "flat"])
    @pytest.mark.parametrize("shift", [Q(0), eps()], ids=["rational", "eps"])
    def test_integer_path_witness_count(self, args, ops, shift, monkeypatch):
        # decided over Q[eps][sqrt R]; the tower builds only the witness:
        # a - b, c - b, their lengths and v for an apex, the reflection of a
        # for a right angle, and nothing for a flat angle
        args = _moved(args, shift)
        calls = _count_binops(monkeypatch)
        _pos_angle_eval(*args)
        assert len(calls) == ops

    # a refusal tests the hypotheses in order and stops at the first that
    # fails, so it pays only for the checks up to that one
    @pytest.mark.parametrize("construction, args, hypothesis, ops", [
        (euclid5, (pt(0, 0), pt(1, 0), pt(-2, 0), pt(0, 1), pt(0, -1),
                   pt(1, 1)), "pt=qt", 10),
        (crossbar_point, (pt(1, 0), pt(0, 0), pt(2, 0), pt(1, 1), pt(2, 0),
                          pt(4, 0)), "0<abc<pi", 14),
    ], ids=["euclid5-pt-qt", "crossbar-flat-abc"])
    def test_refusal_binop_count(self, construction, args, hypothesis, ops,
                                 monkeypatch):
        args = _moved(args, _SQRT2, _SQRT3)
        calls = _count_binops(monkeypatch)
        with pytest.raises(ConstructionError) as err:
            construction(*args)
        assert err.value.hypothesis == hypothesis
        assert len(calls) == ops


def _count_positive(monkeypatch) -> list:
    """A list that gains the semantics of each geometry.positive call."""
    read = []
    positive_ = geometry.positive

    def counted(x, sem=CONSTRUCTIBLE):
        read.append(sem)
        return positive_(x, sem)

    monkeypatch.setattr(geometry, "positive", counted)
    return read


# the arithmetic methods of a base value (a Rat or RatFunc leaf)
_LEAF_OPS = {"__add__": operator.add, "__radd__": operator.add,
             "__sub__": operator.sub, "__rsub__": operator.sub,
             "__mul__": operator.mul, "__rmul__": operator.mul,
             "__truediv__": operator.truediv,
             "__rtruediv__": operator.truediv}
# inside these modules a leaf op is a step of a tower op or of another leaf
# op, not a field op of its own
_ARITHMETIC = ("geokernel.field", "geokernel.nafield")


def _count_binops(monkeypatch) -> list:
    """A list that gains one entry per field op: a FieldElement._binop call,
    or a leaf op called from outside `field` and `nafield` that does not
    hand over to a FieldElement operand (returns NotImplemented)."""
    calls = []
    binop = FieldElement._binop

    def counted(self, other, op):
        calls.append(op)
        return binop(self, other, op)

    def leaf_op(fn, op):
        def counted_leaf(a, b):
            out = fn(a, b)
            caller = sys._getframe(1).f_globals.get("__name__")
            if out is not NotImplemented and caller not in _ARITHMETIC:
                calls.append(op)
            return out
        return counted_leaf

    monkeypatch.setattr(FieldElement, "_binop", counted)
    for cls in (Rat, RatFunc):
        for name, op in _LEAF_OPS.items():
            monkeypatch.setattr(cls, name, leaf_op(getattr(cls, name), op))
    return calls
