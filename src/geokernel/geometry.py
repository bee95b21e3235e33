"""Point predicates over the plane F^2, with witness production.

Positivity is semantics-relative: in Constructible mode P(x) means x > 0.
The NonArchimedean readings are the two nodes of the Kripke model in
`kripke`, and `positive` is the one definition of P at both: the root M0
(NODE0) reads P(x) as "positive and not infinitesimal", the top node M1
(NODE1) reads it classically.

Strict betweenness B demands P of both gap lengths; the non-strict T is
the classical closure and never consults P.  Distinctness (#) of two
points is P of their squared distance, witnessed by a betweenness point;
angle positivity is the cross-product criterion, witnessed by an apex
(isosceles) pair or the right-angle reflection.  By that criterion
0 < abc < pi is just 0 < abc: reflecting a in b keeps |a - b|^2 and
negates the cross product, so the supplement test of `angle_lt_pi`
decides exactly what `pos_angle` does.

Each point keeps its exact integer form, built on first use (`_zform`)
from its coordinates' forms (`field.int_form`): (R, (lanes, S)) with S > 0
the point's own scale, the lcm of the coordinates' scales.  A point over Q
has R = 0 and lanes (xA, 0, yA, 0) for x = xA/S, y = yA/S; a point over
one Q(sqrt r) has its coordinates' R and lanes (xA, xB, yA, yB) for x =
(xA + xB*sqrt(R))/S and y likewise.  Points whose forms share R (or have R
= 0) are decided in homogeneous coordinates (`_zpoints`), with no common
scale per call: p - q is taken as cp*Sq - cq*Sp, a positive multiple of
the difference, so signs, zeros and the equal-cosine test read it
unchanged; `congruent` scales each squared length by the other's squared
scale, and `on_ray` reads T(e, a, x), e = 2a - b, from its gaps b - a and
x - a, with no reflection formed.  When every point of a call lies over Q
(R = 0), a difference is lanes 0 and 2 alone, (X, Y), and dot and cross
products are plain ints.  This is exact: R is no square, as a tower node
is made only for a non-square, so pairs A + B*sqrt(R) compare and take
signs as in `field`.

A point over an eps-free Q(sqrt r1)(sqrt r2) with Rat leaves, as `lay_off`
builds from an `ext` point, has the key R = (R1, R2) of `int_form` and
eight lanes: the four of a point over Q(sqrt R1), then the four of its
sqrt(R2) part.  A point of depth 0 or 1 over the same R1 meets it with
four zero lanes appended (`_zjoin`, `_zpoints`).  Dot and cross products
over (R1, R2) are composed from those over R1 (`_zover2`), and u +
v*sqrt(R2) takes its sign by `field`'s rule one level up, comparing u^2
with v^2*R2 (R2 is no square in Q(sqrt R1)).  Points over Q(eps), or over
one Q(eps)(sqrt r), are scaled per call (`_zeps_points`) to Q[eps][sqrt
R]; two chains and deeper towers go to the tower.  On these pairs P(|d|^2)
is d != 0 at every node but NODE0, and at NODE0 too when no eps occurs (a
nonzero eps-free element has valuation 0).  A predicate that reads P hands
its semantics to `_zpoints`, which turns points with an eps at NODE0 away
to the tower, where `positive` reads P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import lcm
from operator import mul, sub

from . import nafield
from .field import (FieldElement, Q, int_form, render_element,
                    sqrt_nonneg)
from .nafield import ONE, ZERO, _UNIT, Poly, Rat, RatFunc

# semantics tags; CONSTRUCTIBLE also names its mode
CONSTRUCTIBLE = "constructible"
NODE0 = "M0"  # the root node of the Kripke model
NODE1 = "M1"  # the top node of the Kripke model

# mode names -> predicate semantics
NONARCHIMEDEAN = "nonarchimedean"
MODES = {CONSTRUCTIBLE: CONSTRUCTIBLE, NONARCHIMEDEAN: NODE0}


def resolve_mode(mode: str) -> str:
    """The predicate semantics of a named mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return MODES[mode]


class ArityMismatch(Exception):
    pass


class ConstructionError(Exception):
    """A guard refused its input: the one refusal type of the kernel.  At
    NODE0 a refusal marks a case that only Markov's principle decides."""

    def __init__(self, kind: str, axiom_id: str | None = None,
                 hypothesis: str | None = None):
        self.kind = kind
        self.axiom_id = axiom_id
        self.hypothesis = hypothesis
        msg = kind
        if axiom_id or hypothesis:
            msg += f" ({axiom_id or '?'}: {hypothesis or '?'})"
        super().__init__(msg)


class NotPositiveAngle(ConstructionError):
    """An angle witness asked of an angle that is not positive."""


def _lift(v):
    """A coordinate: a field value as it is, a rational as its Rat."""
    return v if isinstance(v, (FieldElement, Rat, RatFunc)) else Q(v)


class Point:
    """A point of F^2: coordinates `x`, `y` that are leaves or
    `FieldElement`s.  Immutable, so its integer form (`_zform`) is built
    once and kept; unhashable, as its coordinates may be."""

    __slots__ = ("x", "y", "_zf")
    x: Rat | RatFunc | FieldElement
    y: Rat | RatFunc | FieldElement

    def __init__(self, x, y):
        _SET_X(self, x)
        _SET_Y(self, y)
        _SET_ZF(self, None)  # not built yet

    def __setattr__(self, name, value):
        raise AttributeError(f"Point is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Point is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        return (isinstance(other, Point)
                and self.x == other.x and self.y == other.y)

    __hash__ = None

    def __repr__(self):
        return f"({render_element(self.x)}, {render_element(self.y)})"


_SET_X, _SET_Y, _SET_ZF = (Point.__dict__[k].__set__ for k in Point.__slots__)


def pt(x, y) -> Point:
    return Point(_lift(x), _lift(y))


# -- vector helpers ----------------------------------------------------------

def vsub(p: Point, q: Point):
    return (p.x - q.x, p.y - q.y)


def dot(u, v) -> FieldElement:
    return u[0] * v[0] + u[1] * v[1]


def cross(u, v) -> FieldElement:
    return u[0] * v[1] - u[1] * v[0]


def sqdist(p: Point, q: Point) -> FieldElement:
    d = vsub(p, q)
    return dot(d, d)


def padd(p: Point, q: Point) -> Point:
    return Point(p.x + q.x, p.y + q.y)


def pscale(p: Point, s) -> Point:
    s = _lift(s)
    return Point(p.x * s, p.y * s)


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def reflect_in_point(p: Point, c: Point) -> Point:
    return Point(2 * c.x - p.x, 2 * c.y - p.y)


def rot90(u):
    """Counterclockwise quarter turn of a vector."""
    return (-u[1], u[0])


# -- positivity --------------------------------------------------------------

def positive(x: FieldElement, sem: str = CONSTRUCTIBLE) -> bool:
    """P(x) under `sem`; at NODE0 x must also not be infinitesimal."""
    if x.sign() <= 0:
        return False
    if sem == NODE0:
        return x.valuation() <= 0
    return True


def in_domain(node: str, x: FieldElement) -> bool:
    """x lies in the domain of `node`: at NODE0 that is F0, the finitely
    bounded elements (zero, or of valuation >= 0)."""
    return node != NODE0 or x.is_zero() or x.valuation() >= 0


# -- the integer path (see the module doc) -----------------------------------

def _zform(p: Point):
    """p's integer form (R, (lanes, S)), see the module doc, which
    `_zpoints` keeps on p; () unless each coordinate is a Rat or has an
    `int_form`, and the two coordinates' chains meet (`_zjoin`)."""
    x, y = p.x, p.y
    if type(x) is Rat is type(y):
        s = lcm(x.d, y.d)
        return 0, ((x.n * (s // x.d), 0, y.n * (s // y.d), 0), s)
    R, parts = 0, []  # (lanes, scale) of each coordinate
    for c in (x, y):
        if type(c) is Rat:
            parts.append(((c.n, 0), c.d))
            continue
        f = int_form(c)
        if f is None:
            return ()
        r, lanes, D = f
        if r != R and (R := _zjoin(R, r)) is None:
            return ()
        parts.append((lanes, D))
    (u, s), (v, t) = parts
    S = lcm(s, t)
    a, b = S // s, S // t
    lanes = u[0] * a, u[1] * a, v[0] * b, v[1] * b
    if type(R) is tuple:  # a coordinate of depth 0 or 1 has no sqrt(R2) part
        u, v = u[2:] or (0, 0), v[2:] or (0, 0)
        lanes += u[0] * a, u[1] * a, v[0] * b, v[1] * b
    return R, (lanes, S)


def _zjoin(R, r):
    """The key of a call whose forms have the keys R != r, r nonzero: r if
    R is 0, the depth-2 one when it extends the other, else None."""
    if not R:
        return r
    if type(r) is tuple:
        R, r = r, R  # R is the deeper key
    return R if type(R) is tuple and R[0] == r else None


def _zpoints(*pts, sem=None):
    """(R, [(coords, S), ...]): the points in homogeneous coordinates over
    the key R (0, R1 or (R1, R2)), read from their kept forms, or None if
    their chains do not meet; what `_zeps_points` gives if a point has no
    form."""
    R, out = 0, []
    for p in pts:
        f = p._zf
        if f is None:
            f = _zform(p)
            _SET_ZF(p, f)
        if not f:
            return _zeps_points(pts, sem)
        r, q = f
        if r and r != R and (R := _zjoin(R, r)) is None:  # two chains
            return None
        out.append(q)
    if type(R) is tuple:  # a point of depth 0 or 1 joins with zero lanes
        out = [q if len(q[0]) == 8 else (q[0] + (0, 0, 0, 0), q[1])
               for q in out]
    return R, out


def _zeps_points(pts, sem):
    """`_zpoints` over Q[eps][sqrt R], scaled per call; None if `sem` is
    NODE0 or the coordinates do not lie over one depth-1 tower.  A leaf q
    of the coordinates, or the radicand r, is its pair of `Poly`s (num,
    den), a Rat as (q, 1).  A = a*S and B = b*P with S = P*r_den and P the
    product of the distinct dens other than 1, so every point's scale is
    the same and is given as 1; R = r_num*r_den.  None once S or a scaled
    coordinate passes nafield.MAX_DEGREE."""
    if sem == NODE0:
        return None
    tower, parts = (), []  # each coordinate's rational part, then sqrt part
    for p in pts:
        for c in (p.x, p.y):
            t = c.tower
            if t is not tower and t and t != tower:
                if tower or len(t) > 1:
                    return None
                tower = t
            parts += c.rep if t else (c, ZERO)
    r = tower[0] if tower else ONE
    leaves = [(Poly.const(q), _UNIT) if type(q) is Rat else (q.num, q.den)
              for q in parts]
    rn, rd = (Poly.const(r), _UNIT) if type(r) is Rat else (r.num, r.den)
    dens = dict.fromkeys(d for _, d in leaves if d != _UNIT)
    fb = {k: reduce(mul, [d for d in dens if d != k], _UNIT)
          for k in (_UNIT, *dens)}  # the other dens: a sqrt part's factor
    fa = {k: f * rd for k, f in fb.items()}  # a rational part's
    coords = [n * (fb if i % 2 else fa)[d] for i, (n, d) in enumerate(leaves)]
    if max(x.degree() for x in (fa[_UNIT], *coords)) > nafield.MAX_DEGREE:
        return None
    it = iter(coords)
    return rn * rd, [(c, 1) for c in zip(it, it, it, it)]


def _zsub(p, q, R):
    """A positive multiple of p - q: cp*Sq - cq*Sp, or cp - cq when the
    scales are equal (over the scale `_zscale(p, q)`).  Over Q (R = 0) it
    is lanes 0 and 2 alone, (X, Y); over (R1, R2) all eight; else all four
    (xA, xB, yA, yB)."""
    (u, s), (v, t) = p, q
    if not R:
        if s == t:
            return u[0] - v[0], u[2] - v[2]
        return u[0] * t - v[0] * s, u[2] * t - v[2] * s
    if type(R) is tuple:
        if s != t:
            u, v = map(mul, u, (t,) * 8), map(mul, v, (s,) * 8)
        return tuple(map(sub, u, v))
    if s == t:
        return u[0] - v[0], u[1] - v[1], u[2] - v[2], u[3] - v[3]
    return (u[0] * t - v[0] * s, u[1] * t - v[1] * s,
            u[2] * t - v[2] * s, u[3] * t - v[3] * s)


def _zscale(p, q):
    """The scale of `_zsub`: p - q = _zsub(p, q, R)/_zscale(p, q)."""
    s, t = p[1], q[1]
    return s if s == t else s * t


# dot, cross and product give pairs (a, b) standing for a + b*sqrt(R), or
# over (R1, R2) quadruples (u0, u1, v0, v1) standing for u + v*sqrt(R2)
# with u = u0 + u1*sqrt(R1), v likewise; over Q, b is 0 and `_zdot` reads
# the two lanes of each difference

def _zdot(u, v, R):
    if not R:
        return u[0] * v[0] + u[1] * v[1], 0
    if type(R) is tuple:
        return _zover2(_zdot, u, v, R)
    return (u[0] * v[0] + u[2] * v[2] + (u[1] * v[1] + u[3] * v[3]) * R,
            u[0] * v[1] + u[1] * v[0] + u[2] * v[3] + u[3] * v[2])


def _zcross(u, v, R):
    if type(R) is tuple:
        return _zover2(_zcross, u, v, R)
    return (u[0] * v[2] - u[2] * v[0] + (u[1] * v[3] - u[3] * v[1]) * R,
            u[0] * v[3] + u[1] * v[2] - u[2] * v[1] - u[3] * v[0])


def _zmul(z, w, R):
    if type(R) is tuple:
        return _zover2(_zmul, z, w, R)
    return (z[0] * w[0] + z[1] * w[1] * R, z[0] * w[1] + z[1] * w[0])


def _zover2(f, u, v, R):
    """The bilinear f over (R1, R2) from f over R1: u = u0 + u1*sqrt(R2)
    and v likewise, each half of its lanes, give f(u, v) = f(u0, v0) +
    R2*f(u1, v1) + (f(u0, v1) + f(u1, v0))*sqrt(R2)."""
    R1, R2 = R
    n = len(u) // 2
    u0, u1, v0, v1 = u[:n], u[n:], v[:n], v[n:]
    a, b = f(u0, v0, R1), _zmul(R2, f(u1, v1, R1), R1)
    c, d = f(u0, v1, R1), f(u1, v0, R1)
    return a[0] + b[0], a[1] + b[1], c[0] + d[0], c[1] + d[1]


def _zsign(z, R) -> int:
    """The sign of z by `field._rsign`'s rule: of a + b*sqrt(R), or over
    (R1, R2) of u + v*sqrt(R2), whose u^2 and v^2*R2 are compared in
    Z[sqrt R1]."""
    if type(R) is tuple:
        R1, R2 = R
        u, v = z[:2], z[2:]
        su, sv = _zsign(u, R1), _zsign(v, R1)
        if su * sv >= 0:
            return su or sv
        uu, vv = _zmul(u, u, R1), _zmul(_zmul(v, v, R1), R2, R1)
        return su if _zsign((uu[0] - vv[0], uu[1] - vv[1]), R1) > 0 else sv
    a, b = z
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > b * b * R else sb


def _zcollinear(d1, d2, R) -> bool:
    """cross(d1, d2) = 0."""
    if not R:
        return d1[0] * d2[1] == d1[1] * d2[0]
    return not any(_zcross(d1, d2, R))


def _zacute(d1, d2, R) -> bool:
    """dot(d1, d2) > 0, so neither is 0."""
    if not R:
        return d1[0] * d2[0] + d1[1] * d2[1] > 0
    return _zsign(_zdot(d1, d2, R), R) > 0


def _znonstrict(d1, d2, R) -> bool:
    """T(u, v, w) from its gaps d1 = v - u and d2 = w - v."""
    return (not any(d1) or not any(d2)  # u = v or v = w
            or _zcollinear(d1, d2, R) and _zacute(d1, d2, R))


# -- core predicates ---------------------------------------------------------

def collinear(u: Point, v: Point, w: Point) -> bool:
    if (z := _zpoints(u, v, w)) is not None:
        R, (u, v, w) = z
        return _zcollinear(_zsub(w, u, R), _zsub(w, v, R), R)
    return cross(vsub(w, u), vsub(w, v)).is_zero()


def between(u: Point, v: Point, w: Point, sem: str = CONSTRUCTIBLE) -> bool:
    """Strict betweenness B(u,v,w): both gaps positively long."""
    if (z := _zpoints(u, v, w, sem=sem)) is not None:
        R, (u, v, w) = z
        d1, d2 = _zsub(v, u, R), _zsub(w, v, R)
        return _zcollinear(d1, d2, R) and _zacute(d1, d2, R)
    d1, d2 = vsub(v, u), vsub(w, v)
    # cross(d1, d2) = cross(w - u, w - v): the collinearity test
    if not cross(d1, d2).is_zero():
        return False
    if not positive(dot(d1, d1), sem) or not positive(dot(d2, d2), sem):
        return False
    return dot(d1, d2).sign() > 0


def nonstrict_between(u: Point, v: Point, w: Point) -> bool:
    """T(u,v,w) = not(u != v and not B and v != w); a classical relation."""
    if (z := _zpoints(u, v, w)) is not None:
        R, (u, v, w) = z
        return _znonstrict(_zsub(v, u, R), _zsub(w, v, R), R)
    if u == v or v == w:
        return True
    d1, d2 = vsub(v, u), vsub(w, v)
    if not cross(d1, d2).is_zero():
        return False
    return dot(d1, d2).sign() > 0


def congruent(a: Point, b: Point, c: Point, d: Point) -> bool:
    if (z := _zpoints(a, b, c, d)) is not None:
        R, (a, b, c, d) = z
        ab, cd = _zsub(a, b, R), _zsub(c, d, R)
        p, q = _zdot(ab, ab, R), _zdot(cd, cd, R)
        s, t = _zscale(a, b), _zscale(c, d)
        if s != t:  # |ab|^2 * s_cd^2 = |cd|^2 * s_ab^2
            s, t = s * s, t * t
            if type(R) is tuple:
                t4, s4 = (t,) * 4, (s,) * 4
                return list(map(mul, p, t4)) == list(map(mul, q, s4))
            p, q = (p[0] * t, p[1] * t), (q[0] * s, q[1] * s)
        return p == q
    return sqdist(a, b) == sqdist(c, d)


def distinct(a: Point, b: Point, sem: str = CONSTRUCTIBLE) -> bool:
    if (z := _zpoints(a, b, sem=sem)) is not None:
        R, (a, b) = z
        return any(_zsub(a, b, R))
    return positive(sqdist(a, b), sem)


def on_ray(a: Point, b: Point, x: Point) -> bool:
    """x lies on Ray(a,b): T(e,a,x) where e reflects b in a."""
    if (z := _zpoints(a, b, x)) is not None:
        R, (a, b, x) = z
        return _znonstrict(_zsub(b, a, R), _zsub(x, a, R), R)  # a - e = b - a
    e = reflect_in_point(b, a)
    return nonstrict_between(e, a, x)


def right_angle(a: Point, b: Point, c: Point, sem: str = CONSTRUCTIBLE) -> bool:
    if (z := _zpoints(a, b, c, sem=sem)) is not None:
        R, (a, b, c) = z
        ba, bc = _zsub(a, b, R), _zsub(c, b, R)
        return (any(ba) and any(bc) and any(_zsub(a, c, R))
                and not any(_zdot(ba, bc, R)))
    ba = vsub(a, b)
    if not positive(dot(ba, ba), sem):  # distinct(a, b)
        return False
    bc = vsub(c, b)
    return (positive(dot(bc, bc), sem) and distinct(a, c, sem)
            and dot(ba, bc).is_zero())


def _angle_vectors(a: Point, b: Point, c: Point, sem: str):
    """(a - b, c - b, |a - b|^2, |c - b|^2) if the angle abc is positive,
    else None."""
    ba = vsub(a, b)
    qa = dot(ba, ba)
    if not positive(qa, sem):  # distinct(a, b)
        return None
    bc = vsub(c, b)
    qc = dot(bc, bc)
    if not positive(qc, sem):  # distinct(c, b)
        return None
    cr = cross(ba, bc)
    if not positive(cr * cr, sem):
        return None
    return ba, bc, qa, qc


def pos_angle(a: Point, b: Point, c: Point, sem: str = CONSTRUCTIBLE) -> bool:
    if (z := _zpoints(a, b, c, sem=sem)) is not None:
        R, (a, b, c) = z
        # P of |ba|^2, |bc|^2 and cross(ba, bc)^2, as `_angle_vectors`
        # asks: a nonzero cross product has nonzero arms
        return not _zcollinear(_zsub(a, b, R), _zsub(c, b, R), R)
    return _angle_vectors(a, b, c, sem) is not None


def angle_lt_pi(a: Point, b: Point, c: Point, sem: str = CONSTRUCTIBLE) -> bool:
    """abc < pi: the supplement (with d the reflection of a in b) is positive.

    The definitional form.  d - b = -(a - b), so the supplement has the
    same arm lengths and the negated cross product: this always equals
    pos_angle(a, b, c, sem)."""
    d = reflect_in_point(a, b)
    return pos_angle(d, b, c, sem)


def angle_cong(a: Point, b: Point, c: Point,
               a2: Point, b2: Point, c2: Point) -> bool:
    """Equal angles at b and b2, by the equal-cosine criterion (exact)."""
    if (z := _zpoints(a, b, c, a2, b2, c2)) is not None:
        R, (a, b, c, a2, b2, c2) = z
        ba, bc = _zsub(a, b, R), _zsub(c, b, R)
        ba2, bc2 = _zsub(a2, b2, R), _zsub(c2, b2, R)
        if not (any(ba) and any(bc) and any(ba2) and any(bc2)):
            return False
        d, e = _zdot(ba, bc, R), _zdot(ba2, bc2, R)
        if _zsign(d, R) != _zsign(e, R):
            return False
        p = _zmul(_zdot(ba2, ba2, R), _zdot(bc2, bc2, R), R)
        q = _zmul(_zdot(ba, ba, R), _zdot(bc, bc, R), R)
        return _zmul(_zmul(d, d, R), p, R) == _zmul(_zmul(e, e, R), q, R)
    ba, bc = vsub(a, b), vsub(c, b)
    ba2, bc2 = vsub(a2, b2), vsub(c2, b2)
    q1, q2 = dot(ba, ba), dot(bc, bc)
    p1, p2 = dot(ba2, ba2), dot(bc2, bc2)
    if q1.is_zero() or q2.is_zero() or p1.is_zero() or p2.is_zero():
        return False
    d = dot(ba, bc)
    e = dot(ba2, bc2)
    if d.sign() != e.sign():
        return False
    return d * d * p1 * p2 == e * e * q1 * q2


# -- witnesses ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DistinctWitness:
    e: Point  # strictly between the two points


@dataclass(frozen=True, eq=False)
class AngleWitness:
    kind: str  # apex | right
    u: Point | None = None
    v: Point | None = None
    d: Point | None = None


def distinct_witness(a: Point, b: Point) -> DistinctWitness:
    return DistinctWitness(e=midpoint(a, b))


def _apex(a: Point, b: Point, bc, qa, qc) -> AngleWitness:
    """u = a, and v laid off on Ray(b,c) at distance |ba| (qa = |ba|^2,
    qc = |bc|^2)."""
    t = sqrt_nonneg(qa / qc)
    return AngleWitness(kind="apex", u=a,
                        v=Point(b.x + bc[0] * t, b.y + bc[1] * t))


def _witness(a: Point, b: Point, c: Point, sem: str,
             right: bool) -> AngleWitness | None:
    """The apex pair of a positive angle abc (the reflection of a in b if
    it is right and `right` allows), or None if abc is not positive.  The
    integer path decides, and the tower computes only the witness point."""
    if (z := _zpoints(a, b, c, sem=sem)) is not None:
        R, (za, zb, zc) = z
        zba, zbc = _zsub(za, zb, R), _zsub(zc, zb, R)
        if _zcollinear(zba, zbc, R):  # not pos_angle(a, b, c, sem)
            return None
        if right and not any(_zdot(zba, zbc, R)):
            return AngleWitness(kind="right", d=reflect_in_point(a, b))
        ba, bc = vsub(a, b), vsub(c, b)
        return _apex(a, b, bc, dot(ba, ba), dot(bc, bc))
    vecs = _angle_vectors(a, b, c, sem)
    if vecs is None:
        return None
    ba, bc, qa, qc = vecs
    if right and dot(ba, bc).is_zero():
        return AngleWitness(kind="right", d=reflect_in_point(a, b))
    return _apex(a, b, bc, qa, qc)


def apex_witness(a: Point, b: Point, c: Point,
                 sem: str = CONSTRUCTIBLE) -> AngleWitness:
    """Equidistant points on the two rays of a positive angle."""
    w = _witness(a, b, c, sem, right=False)
    if w is None:
        raise NotPositiveAngle("AngleNotPositive", None, "0<angle<pi")
    return w


def angle_witness(a: Point, b: Point, c: Point,
                  sem: str = CONSTRUCTIBLE) -> AngleWitness | None:
    """A witness that the angle abc is positive, or None if it is not: the
    reflection of a in b for a right angle, else the apex pair."""
    return _witness(a, b, c, sem, right=True)


def verify_witness(kind: str, args, witness, sem: str = CONSTRUCTIBLE) -> bool:
    """Re-check a witness's defining relations exactly."""
    if kind == "Distinct":
        a, b = args
        return between(a, witness.e, b, sem)
    if kind == "PosAngle":
        a, b, c = args
        if witness.kind == "right":
            d = witness.d
            return (between(a, b, d, sem)
                    and congruent(a, b, b, d)
                    and congruent(a, c, d, c)
                    and distinct(a, b, sem) and distinct(c, b, sem)
                    and distinct(a, c, sem))
        if witness.kind == "apex":
            u, v = witness.u, witness.v
            return (on_ray(b, a, u) and on_ray(b, c, v)
                    and congruent(b, u, b, v)
                    and distinct(u, v, sem) and distinct(b, u, sem))
    return False


# -- dispatch ----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PredicateResult:
    holds: bool
    witness: DistinctWitness | AngleWitness | None = None


def _distinct_witness(a: Point, b: Point, sem: str) -> DistinctWitness | None:
    return distinct_witness(a, b) if distinct(a, b, sem) else None


# kind -> (predicate, arity, reads semantics); a witness kind's predicate
# returns its witness, or None where the relation fails
_KINDS = {
    "E": (congruent, 4, False), "L": (collinear, 3, False),
    "B": (between, 3, True), "T": (nonstrict_between, 3, False),
    "Distinct": (_distinct_witness, 2, True), "Ray": (on_ray, 3, False),
    "RightAngle": (right_angle, 3, True), "PosAngle": (angle_witness, 3, True),
    "AngleLtPi": (angle_lt_pi, 3, True), "AngleCong": (angle_cong, 6, False),
}


def predicate_eval(kind: str, args, sem: str = CONSTRUCTIBLE) -> PredicateResult:
    args = tuple(args)
    if kind not in _KINDS:
        raise ArityMismatch(f"unknown predicate kind {kind!r}")
    fn, arity, reads_sem = _KINDS[kind]
    if len(args) != arity:
        raise ArityMismatch(f"{kind} expects {arity} points, got {len(args)}")
    out = fn(*args, sem) if reads_sem else fn(*args)
    if isinstance(out, bool):
        return PredicateResult(out)
    return PredicateResult(out is not None, out)
