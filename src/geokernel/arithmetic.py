"""Geometric arithmetic on the x-axis of a fixed perpendicular frame.

Numbers are axis points (y = 0) with 0 = (0,0) and 1 = (1,0).  Addition
is a composition of point reflections; multiplication is the chord
construction through (0,1) on the circle meeting the axis in both factors
(one uniform path for every sign combination, relying on the non-strict
line-circle intersection); the inverse comes from intersecting a line
through the origin with the vertical at 1; square roots from the circle
on the diameter from (-1,0) to the operand.  Each operation re-checks its
result against the pure field operation, exactly.
"""

from __future__ import annotations

from .field import FieldElement, Negative, Q, inv_positive, sqrt_nonneg
from .geometry import (
    CONSTRUCTIBLE, Point, between, distinct, midpoint, pt, reflect_in_point,
    right_angle, sqdist,
)
from .constructions import (
    CircleSpec, _apart, _post, _project, line_circle, line_intersect,
    perpendicular, reflect,
)

ORIGIN = pt(0, 0)
UNIT_X = pt(1, 0)
UNIT_Y = pt(0, 1)
DIAG = pt(1, 1)  # second point of the mirror line y = x


def axis(x) -> Point:
    """Axis point for a number (FieldElement or rational)."""
    return pt(x, 0)


def _as_axis(p: Point) -> Point:
    if not p.y.is_zero():
        raise ValueError("not an axis point")
    return p


def rotate90(p: Point) -> Point:
    """Quarter turn about the origin: reflect in y = x, then in the y-axis."""
    return reflect(_mirror_diag(p), ORIGIN, UNIT_Y)


def _mirror_diag(p: Point) -> Point:
    return reflect(p, ORIGIN, DIAG)


def coordinates(p: Point) -> tuple[Point, Point]:
    """Feet of the perpendiculars from p to the axes; the y-foot carried to
    the x-axis by the diagonal mirror.  The constructed Lambert
    quadrilateral is checked to be a rectangle."""
    footx = _project(p, ORIGIN, UNIT_X)
    footy = _project(p, ORIGIN, UNIT_Y)
    _post(footx.y.is_zero() and footy.x.is_zero(), "coordinates feet on axes")
    corners = (footx, p, footy, ORIGIN)
    if all(distinct(corners[i], corners[(i + 1) % 4])
           for i in range(4)):
        # three right angles by construction; the fourth exactly closes
        _post(right_angle(ORIGIN, footx, p), "coordinates x-foot")
        _post(right_angle(footx, ORIGIN, footy), "coordinates origin")
        _post(right_angle(ORIGIN, footy, p), "coordinates y-foot")
        _post(right_angle(footx, p, footy), "coordinates fourth angle")
    return footx, _mirror_diag(footy)


def point_from_coords(x: Point, y: Point) -> Point:
    """Inverse of coordinates: erect at x, carry y to the y-axis, project."""
    x = _as_axis(x)
    y = _as_axis(y)
    _, tip = perpendicular("erect", x, (ORIGIN, UNIT_X))
    ypt = _mirror_diag(y)  # (0, y)
    if x == ORIGIN:
        p = ypt
    else:
        p = _project(ypt, x, tip)
    fx, fy = coordinates(p)
    _post(fx == x and fy == y, "point_from_coords round trip")
    return p


def geo_add(a: Point, b: Point) -> Point:
    """Reflection of 0 in the midpoint of the two summands (uniform)."""
    a, b = _as_axis(a), _as_axis(b)
    m = midpoint(a, b)
    out = reflect_in_point(ORIGIN, m)
    _post(out.x == a.x + b.x and out.y.is_zero(), "geo_add")
    return out


def geo_mul(a: Point, b: Point) -> Point:
    """Chord construction: the circle through (0,1), a and b meets the
    y-axis again at (0, ab); the diagonal mirror brings it back to the
    axis.  No sign inspection anywhere on the path."""
    a, b = _as_axis(a), _as_axis(b)
    m = midpoint(a, b)
    # center: on the vertical through m and on the bisector of (0,1)..a
    m_up = Point(m.x, m.y + Q(1))
    mid2 = midpoint(UNIT_Y, a)
    d2 = (a.x - UNIT_Y.x, a.y - UNIT_Y.y)
    mid2_perp = Point(mid2.x - d2[1], mid2.y + d2[0])
    center = line_intersect(m, m_up, mid2, mid2_perp)
    circle = CircleSpec(center, center, a)
    _post(sqdist(center, UNIT_Y) == circle.sq_radius(),
          "geo_mul circle through (0,1)")
    p1, p2 = line_circle(circle, UNIT_Y, ORIGIN, strict=False)
    z = 2 * center.y - UNIT_Y.y  # Vieta: the two chord heights sum to 2*cy
    zpt = p1 if p1.y == z else p2
    _post(zpt.y == z and zpt.x.is_zero(), "geo_mul chord point")
    out = _mirror_diag(zpt)
    _post(out.x == a.x * b.x and out.y.is_zero(), "geo_mul")
    return out


def geo_inv(a: Point) -> Point:
    """Euclid-5 style: the line from 0 through (a,1) meets the vertical
    at 1 in (1, 1/a); project and mirror back to the axis."""
    a = _as_axis(a)
    _apart(a, ORIGIN, CONSTRUCTIBLE, None, "a#0")
    _, tip_a = perpendicular("erect", a, (ORIGIN, UNIT_X))
    w = _project(_mirror_diag(pt(1, 0)), a, tip_a)  # (a, 1) on the vertical
    _post(w.x == a.x and w.y == Q(1), "geo_inv point (a, 1)")
    _, tip1 = perpendicular("erect", UNIT_X, (ORIGIN, UNIT_X))
    z = line_intersect(ORIGIN, w, UNIT_X, tip1)
    foot = _project(z, ORIGIN, UNIT_Y)
    out = _mirror_diag(foot)
    _post(out.x * a.x == Q(1) and out.y.is_zero(), "geo_inv")
    return out


def geo_sqrt(a: Point, strict: bool = False) -> Point:
    """Descartes: circle on the diameter from (-1,0) to a meets the y-axis
    at height sqrt(a)."""
    a = _as_axis(a)
    if a.x.sign() < 0:
        raise Negative("geo_sqrt of a negative axis point")
    if strict:
        _apart(a, ORIGIN, CONSTRUCTIBLE, None, "a#0 (strict sqrt)")
    minus1 = pt(-1, 0)
    center = midpoint(minus1, a)
    circle = CircleSpec(center, center, a)
    p1, p2 = line_circle(circle, ORIGIN, UNIT_Y, strict=strict)
    # ordered along 0 -> (0,1): the second point is the non-negative root
    root = p2
    out = _mirror_diag(root)
    _post(out.x * out.x == a.x and out.y.is_zero(), "geo_sqrt")
    return out


# cross-checks against the pure field operations ------------------------------

def check_homomorphism(a: FieldElement, b: FieldElement) -> bool:
    pa, pb = axis(a), axis(b)
    ok = geo_add(pa, pb).x == a + b
    ok = ok and geo_mul(pa, pb).x == a * b
    if a.sign() != 0:
        inv = geo_inv(pa).x
        ref = inv_positive(a) if a.sign() > 0 else -inv_positive(-a)
        ok = ok and inv == ref
    if a.sign() >= 0:
        ok = ok and geo_sqrt(pa, strict=a.sign() > 0).x == sqrt_nonneg(a)
    return ok


def expresses_negative(x: Point) -> bool:
    """The two-sides encoding: B(x, 0, 1) holds exactly when x < 0."""
    return between(_as_axis(x), ORIGIN, UNIT_X)
