"""Guarded ruler-and-compass constructions.

Each primitive realizes the point asserted by one existential axiom:
segment extension, inner/outer Pasch (with positive-angle guards), the
parallel axiom's intersection point, and line-circle / circle-circle
intersections.  Guards are checked before constructing; a violated guard
raises ConstructionError (defined in `geometry`, whose angle witness
refuses with it too) carrying the failing hypothesis, so callers can tell
"guard refused" apart from "construction wrong".  Every output is
re-checked against the axiom's conclusion with predicate_eval semantics —
exactly, no tolerance.

Derived constructions (lay-off, equilateral apex, the Gupta midpoint, the
30/120/150-degree tiling witnesses, perpendiculars, reflection in a line,
angle copying and bisection, the crossbar point) follow the corresponding
textbook proofs step by step.  Where a construction has two candidate
points, it takes the one left of the directed base segment.

The arithmetic is `geometry`'s segment helpers: `meet` (Cramer's rule),
`reach` (a length laid off along a segment), `chord` (a line and a
circle), `offset`, `seg_dot`, `seg_cross`, `seg_sq` and `sqdist`.  On
points over Q they work on the kept integer forms and build each output
from ints, over Q or over the Q(sqrt r) of its one square root, with its
form kept for the postconditions; on points over one Q(sqrt r), or I.20's
depth-2 chain, where the keys and towers meet, a point is built from ints
too.  Points over Q(eps), over two radicand chains or deeper towers, and
a rational step along a segment, take the tower, each segment's
difference computed once.  The guards and postconditions are the same on
both paths.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from .field import FieldElement, sqrt_nonneg
from .geometry import (
    CONSTRUCTIBLE, ConstructionError, Point, Seg, angle_cong, apex_witness,
    between, chord, collinear, congruent, cross, distinct, dot, meet,
    midpoint, nonstrict_between, offset, on_ray, pos_angle, positive, reach,
    reflect_in_point, right_angle, seg_dot, seg_sq, sqdist, vsub,
)


class PostconditionFailure(AssertionError):
    """A construction produced output that failed its exact re-check."""


@dataclass(frozen=True, eq=False)
class CircleSpec:
    """A circle given by its center and a radius segment (never a number)."""
    center: Point
    radius_from: Point
    radius_to: Point

    def sq_radius(self) -> FieldElement:
        return sqdist(self.radius_from, self.radius_to)


# -- trace support (single-threaded; used by the script interpreter) ---------

@dataclass
class TraceEntry:
    op: str
    inputs: list
    outputs: list


_ACTIVE_TRACE: list | None = None


@contextmanager
def tracing(trace: list):
    global _ACTIVE_TRACE
    prev = _ACTIVE_TRACE
    _ACTIVE_TRACE = trace
    try:
        yield trace
    finally:
        _ACTIVE_TRACE = prev


def _record(op: str, inputs, outputs):
    if _ACTIVE_TRACE is not None:
        _ACTIVE_TRACE.append(TraceEntry(op, list(inputs), list(outputs)))


def _post(cond: bool, what: str):
    if not cond:
        raise PostconditionFailure(what)


def _apart(a: Point, b: Point, sem: str, axiom: str | None,
           hypothesis: str) -> None:
    """Refuse unless a # b."""
    if not distinct(a, b, sem):
        raise ConstructionError("NotDistinct", axiom, hypothesis)


def _require(axiom: str | None, checks):
    """Test (thunk, hypothesis) pairs in order; refuse at the first that
    fails, before any later one is computed."""
    for holds, hypothesis in checks:
        if not holds():
            raise ConstructionError("PreconditionViolated", axiom, hypothesis)


# -- exact line intersection (Cramer) ----------------------------------------

def line_intersect(a: Point, b: Point, c: Point, d: Point) -> Point:
    """Intersection of lines ab and cd; lines must not be parallel."""
    x = meet(a, b, c, d)
    if x is None:
        raise PostconditionFailure("parallel lines in line_intersect")
    return x


def _project(p: Point, u: Point, v: Point) -> Point:
    """Foot of the perpendicular from p onto line uv."""
    uv = Seg(u, v)
    return offset(u, uv, seg_dot(Seg(u, p), uv) / sqdist(u, v))


# -- primitives --------------------------------------------------------------

def ext(a: Point, b: Point, c: Point, d: Point,
        sem: str = CONSTRUCTIBLE) -> Point:
    """Extend ab beyond b by the length of cd (cd may be null)."""
    _apart(a, b, sem, "A4-i1", "a#b")
    x = reach(b, a, b, c, d)
    _post(nonstrict_between(a, b, x) and congruent(b, x, c, d), "ext")
    _record("ext", [a, b, c, d], [x])
    return x


def ext_strict(a: Point, b: Point, c: Point, d: Point,
               sem: str = CONSTRUCTIBLE) -> Point:
    """Extension by a positively long cd: strict betweenness out."""
    _apart(a, b, sem, "A4-i2", "a#b")
    _apart(c, d, sem, "A4-i2", "c#d")
    x = ext(a, b, c, d, sem)
    _post(between(a, b, x, sem), "ext_strict")
    return x


def _angle_guard(triples, sem, axiom):
    """Disjunctive 0 < angle < pi guard over (a, vertex, b) triples; a
    positive angle is already less than pi (see geometry.angle_lt_pi)."""
    if not any(pos_angle(x, v, y, sem) for (x, v, y) in triples):
        raise ConstructionError("AngleNotPositive", axiom, "0<angle<pi")


def inner_pasch(a: Point, p: Point, c: Point, b: Point, q: Point,
                sem: str = CONSTRUCTIBLE) -> Point:
    _require("A7-i1", ((lambda: between(a, p, c, sem), "B(a,p,c)"),
                       (lambda: between(b, q, c, sem), "B(b,q,c)")))
    _angle_guard([(a, c, b), (q, p, a)], sem, "A7-i1")
    x = line_intersect(p, b, a, q)
    _post(between(p, x, b, sem) and between(a, x, q, sem), "inner_pasch")
    _record("inner_pasch", [a, p, c, b, q], [x])
    return x


def outer_pasch(a: Point, p: Point, c: Point, b: Point, q: Point,
                sem: str = CONSTRUCTIBLE) -> Point:
    _require("A7-i2", ((lambda: between(a, p, c, sem), "B(a,p,c)"),
                       (lambda: between(b, c, q, sem), "B(b,c,q)")))
    _angle_guard([(b, a, q), (a, b, q)], sem, "A7-i2")
    x = line_intersect(b, p, a, q)
    _post(between(b, p, x, sem) and between(a, x, q, sem), "outer_pasch")
    _record("outer_pasch", [a, p, c, b, q], [x])
    return x


def euclid5(t: Point, p: Point, q: Point, s: Point, r: Point, a: Point,
            sem: str = CONSTRUCTIBLE) -> Point:
    """Parallel-axiom point: congruent witness triangles, transversal ptq/str."""
    _require("Euclid5", (
        (lambda: congruent(p, t, q, t), "pt=qt"),
        (lambda: between(p, t, q, sem), "B(p,t,q)"),
        (lambda: congruent(s, t, r, t), "st=rt"),
        (lambda: between(s, t, r, sem), "B(s,t,r)"),
        (lambda: congruent(p, r, q, s), "pr=qs"),
        (lambda: between(q, a, r, sem), "B(q,a,r)"),
    ))
    e = line_intersect(p, a, s, q)
    _post(between(p, a, e, sem) and between(s, q, e, sem), "euclid5")
    _record("euclid5", [t, p, q, s, r, a], [e])
    return e


def line_circle(circle: CircleSpec, a: Point, b: Point, strict: bool = True,
                sem: str = CONSTRUCTIBLE) -> tuple[Point, Point]:
    """Both intersections of line ab with the circle, ordered along a->b.

    a must be (strictly, or non-strictly) inside the circle; b distinct
    from a fixes the line."""
    _apart(a, b, sem, "LC-strict" if strict else "LC-nonstrict", "a#b")
    ca = Seg(circle.center, a)
    r2, qca = circle.sq_radius(), seg_sq(ca)
    inside = r2 - qca
    if strict:
        if not positive(inside, sem):
            raise ConstructionError("NotInside", "LC-strict", "a inside circle")
    else:
        if inside.sign() < 0:
            raise ConstructionError("NotInside", "LC-nonstrict",
                                    "a non-strictly inside circle")
    x1, x2 = chord(ca, Seg(a, b), qca - r2)
    for x in (x1, x2):
        _post(congruent(circle.center, x, circle.radius_from, circle.radius_to),
              "line_circle on-circle")
    if strict:
        _post(between(x1, a, x2, sem), "line_circle strict separation")
    else:
        _post(nonstrict_between(x1, a, x2), "line_circle nonstrict separation")
    _record("line_circle", [circle.center, a, b], [x1, x2])
    return x1, x2


def circle_circle(c1: CircleSpec, c2: CircleSpec,
                  sem: str = CONSTRUCTIBLE) -> tuple[Point, Point]:
    """Both intersections of two circles with distinct centers, as
    (left, right) relative to the directed center line c1->c2."""
    o1, o2 = c1.center, c2.center
    _apart(o1, o2, sem, "CC", "distinct centers")
    r1sq, r2sq = c1.sq_radius(), c2.sq_radius()
    d2 = sqdist(o1, o2)
    r1r2 = sqrt_nonneg(r1sq * r2sq)
    # non-strict inside and outside witnesses: |r1-r2| <= d <= r1+r2
    if (r1sq + r2sq + 2 * r1r2 - d2).sign() < 0:
        raise ConstructionError("CirclesSeparated", "CC", "d <= r1+r2")
    if (d2 - (r1sq + r2sq - 2 * r1r2)).sign() < 0:
        raise ConstructionError("CirclesSeparated", "CC", "|r1-r2| <= d")
    k = (d2 + r1sq - r2sq) / (2 * d2)
    base = Seg(o1, o2)
    m = offset(o1, base, k)
    w = sqrt_nonneg(r1sq / d2 - k * k)
    left = offset(m, base, w, turn=True)
    right = offset(m, base, -w, turn=True)
    for x in (left, right):
        _post(congruent(o1, x, c1.radius_from, c1.radius_to)
              and congruent(o2, x, c2.radius_from, c2.radius_to),
              "circle_circle on both circles")
    _record("circle_circle", [o1, o2], [left, right])
    return left, right


# -- derived constructions ---------------------------------------------------

def lay_off(a: Point, b: Point, c: Point, d: Point,
            sem: str = CONSTRUCTIBLE) -> Point:
    """The point on Ray(a,b) at distance |cd| from a."""
    _apart(a, b, sem, None, "a#b")
    x = reach(a, a, b, c, d)
    _post(on_ray(a, b, x) and congruent(a, x, c, d), "lay_off")
    _record("lay_off", [a, b, c, d], [x])
    return x


def equilateral(a: Point, b: Point, sem: str = CONSTRUCTIBLE) -> Point:
    """Apex of the equilateral triangle on ab (Euclid I.1 via circle-circle),
    left of directed ab."""
    _apart(a, b, sem, None, "a#b")
    apex = circle_circle(CircleSpec(a, a, b), CircleSpec(b, a, b), sem)[0]
    _post(congruent(a, apex, a, b) and congruent(b, apex, a, b), "equilateral")
    _record("equilateral", [a, b], [apex])
    return apex


def midpoint_gupta(a: Point, b: Point, sem: str = CONSTRUCTIBLE) -> Point:
    """Midpoint by Gupta's construction: equilateral apex, two extensions,
    two guarded inner-Pasch cuts.  The Pasch angle guards are discharged by
    building the 120- and 150-degree tiling witnesses on the segment and
    re-checking their relations, before the guard is evaluated."""
    _apart(a, b, sem, None, "a#b")
    named_angle_tiling("deg120", a, b, sem)
    named_angle_tiling("deg150", a, b, sem)
    c = equilateral(a, b, sem=sem)
    d = ext(c, b, a, b, sem)   # B(c,b,d), bd = ab
    e = ext(c, a, a, b, sem)   # B(c,a,e), ae = ab
    f = inner_pasch(e, a, c, d, b, sem)   # B(a,f,d) and B(e,f,b)
    m = inner_pasch(a, f, d, c, b, sem)   # B(f,m,c) and B(a,m,b)
    _post(between(a, m, b, sem) and congruent(a, m, m, b), "midpoint_gupta")
    _record("midpoint_gupta", [a, b], [m])
    return m


def named_angle_tiling(kind: str, a: Point, b: Point,
                       sem: str = CONSTRUCTIBLE) -> dict:
    """Equilateral-tiling point sets witnessing that 30/120/150-degree
    angles built on segment ab are positive and less than pi.

    Coordinates are computed symbolically; every defining betweenness and
    congruence relation is re-checked exactly before the record is
    returned."""
    _apart(a, b, sem, None, "a#b")
    if kind == "deg120":
        # triangle fac equilateral on a..c(=b); g = reflection of a in the
        # midpoint x of fc; the parallel-axiom point e closes triangle gce
        c = b
        f = equilateral(a, c, sem=sem)
        x = midpoint(f, c)
        g = reflect_in_point(a, x)
        m = midpoint(g, c)
        e = euclid5(x, f, c, a, g, m, sem)  # B(f,m,e) and B(a,c,e)
        _post(between(a, x, g, sem), "deg120 B(a,x,g)")
        _post(between(a, c, e, sem), "deg120 B(a,c,e)")
        _post(between(f, m, e, sem), "deg120 B(f,m,e)")
        _post(congruent(a, c, c, g) and congruent(c, g, c, e)
              and congruent(c, e, g, e), "deg120 congruences")
        _post(pos_angle(a, c, g, sem), "deg120 angle acg")
        return {"a": a, "c": c, "f": f, "x": x, "g": g, "m": m, "e": e}
    if kind == "deg30":
        d = midpoint(a, b)
        c = equilateral(a, d, sem=sem)
        _post(between(a, d, b, sem), "deg30 B(a,d,b)")
        _post(congruent(a, d, c, d) and congruent(c, d, d, b), "deg30 radii")
        _post(right_angle(a, c, b, sem), "deg30 right angle at c")
        _post(pos_angle(a, b, c, sem), "deg30 angle abc")
        return {"a": a, "b": b, "d": d, "c": c}
    if kind == "deg150":
        # the 150-degree angle abc is positive because its supplement on
        # B(a,b,d) is the 30-degree angle cbd; a#c is witnessed by B(a,c,e)
        d = ext(a, b, a, b, sem)
        t30 = named_angle_tiling("deg30", b, d, sem)
        c = t30["c"]
        f = ext(b, d, a, b, sem)
        e = equilateral(d, f, sem=sem)
        _post(between(a, b, d, sem), "deg150 B(a,b,d)")
        _post(between(a, c, e, sem), "deg150 B(a,c,e)")
        _post(pos_angle(a, b, c, sem), "deg150 angle abc")
        _post(pos_angle(c, b, d, sem), "deg150 supplement cbd")
        return {"a": a, "b": b, "d": d, "dmid": t30["d"], "c": c,
                "f": f, "e": e}
    raise ValueError(f"unknown tiling kind {kind!r}")


def perpendicular(mode: str, p: Point, line: tuple[Point, Point],
                  sem: str = CONSTRUCTIBLE) -> tuple[Point, Point]:
    """(foot, tip) of a perpendicular to the line uv related to p.

    erect: p must lie on the line; tip erected at p over a symmetric
    sub-segment of width |uv| each way (equilateral apex, left of uv).
    drop: p must be off the line; foot is its projection, tip is p."""
    u, v = line
    _apart(u, v, sem, None, "line u#v")
    if mode == "drop":
        foot = _project(p, u, v)
        if not distinct(p, foot, sem):
            raise ConstructionError("NotOffLine", None, "p off line")
        tip = p
    elif mode == "erect":
        if not collinear(u, v, p):
            raise ConstructionError("NotOnLine", None, "p on line")
        foot = p
        w1 = Point(p.x - (v.x - u.x), p.y - (v.y - u.y))
        w2 = Point(p.x + (v.x - u.x), p.y + (v.y - u.y))
        tip = equilateral(w1, w2, sem)
    else:
        raise ValueError(f"unknown perpendicular mode {mode!r}")
    anchor = u if distinct(foot, u, sem) else v  # u # v, so foot # anchor
    _post(right_angle(tip, foot, anchor, sem), "perpendicular right angle")
    _post(collinear(u, v, foot), "perpendicular foot on line")
    _record("perpendicular", [p, u, v], [foot, tip])
    return foot, tip


def reflect(p: Point, u: Point, v: Point, sem: str = CONSTRUCTIBLE) -> Point:
    """Reflection of p in the line uv (an exact isometry)."""
    _apart(u, v, sem, None, "line u#v")
    out = reflect_in_point(p, _project(p, u, v))
    _record("reflect", [p], [out])
    return out


def angle_copy(a: Point, b: Point, c: Point, p: Point, s: Point, q: Point,
               sem: str = CONSTRUCTIBLE) -> tuple[Point, Point]:
    """Copy angle abc to vertex p on the line ps, away from q.

    Reduction: drop a perpendicular from a to line bc and transport the
    (signed foot offset, height) pair into the frame of Ray(p,s)."""
    _apart(p, s, sem, None, "p#s")
    _apart(a, b, sem, None, "a#b")
    _apart(c, b, sem, None, "c#b")
    qfoot = _project(q, p, s)
    if not distinct(q, qfoot, sem):
        raise ConstructionError("NotOffLine", None, "q off line ps")
    c_prime = lay_off(p, s, b, c, sem)
    len_bc = sqrt_nonneg(sqdist(b, c))
    alpha = dot(vsub(a, b), vsub(c, b)) / len_bc
    beta = sqrt_nonneg(sqdist(a, b) - alpha * alpha)
    len_ps = sqrt_nonneg(sqdist(p, s))
    ux, uy = (s.x - p.x) / len_ps, (s.y - p.y) / len_ps
    side = cross(vsub(s, p), vsub(q, p)).sign()
    nx, ny = (uy, -ux) if side > 0 else (-uy, ux)
    a_prime = Point(p.x + ux * alpha + nx * beta,
                    p.y + uy * alpha + ny * beta)
    _post(congruent(p, a_prime, b, a)
          and congruent(p, c_prime, b, c)
          and congruent(a_prime, c_prime, a, c), "angle_copy congruent sides")
    _post(angle_cong(a, b, c, a_prime, p, c_prime), "angle_copy angles")
    if beta.sign() > 0:
        _post(cross(vsub(s, p), vsub(a_prime, p)).sign() == -side,
              "angle_copy opposite side from q")
    _record("angle_copy", [a, b, c, p, s, q], [a_prime, c_prime])
    return a_prime, c_prime


def angle_bisect(a: Point, b: Point, c: Point,
                 sem: str = CONSTRUCTIBLE) -> Point:
    """Midpoint of the apex witness's chord: the bisector point."""
    w = apex_witness(a, b, c, sem)  # refuses a non-positive angle
    m = midpoint(w.u, w.v)
    _post(angle_cong(w.u, b, m, m, b, w.v), "angle_bisect congruent halves")
    _post(distinct(b, m, sem), "angle_bisect b#m")
    _record("angle_bisect", [a, b, c], [m])
    return m


def crossbar_point(a: Point, b: Point, c: Point, e: Point, u: Point, v: Point,
                   sem: str = CONSTRUCTIBLE) -> Point:
    """Where Ray(b,e) meets the crossbar uv, by two outer-Pasch cuts."""
    _require("crossbar", (
        (lambda: pos_angle(a, b, c, sem), "0<abc<pi"),
        (lambda: pos_angle(b, u, v, sem), "0<buv<pi"),
        (lambda: between(a, e, c, sem), "B(a,e,c)"),
        (lambda: between(b, a, u, sem), "B(b,a,u)"),
        (lambda: between(b, c, v, sem), "B(b,c,v)"),
    ))
    f = outer_pasch(a, e, c, b, v, sem)   # B(b,e,f) and B(a,f,v)
    w = outer_pasch(v, f, a, b, u, sem)   # B(b,f,w) and B(v,w,u)
    _post(between(u, w, v, sem) and between(b, e, w, sem), "crossbar_point")
    _record("crossbar_point", [a, b, c, e, u, v], [w])
    return w
