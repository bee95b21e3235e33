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

The segment helpers (`Seg`, `meet`, `reach`, `chord`, `offset`,
`seg_dot`, `seg_cross`, `seg_sq`, `sqdist`) are the constructions'
arithmetic.  They read the kept forms of points that all have one
(`_zkept`: no eps point, and towers that are prefixes of one chain), build
a value with `field.from_int_form` and a point with its form kept
(`_zpoint`).  Over Q, `meet`, `reach` and `chord` compute their one
quotient or radicand from the forms' differences as ints, and build the
point from ints and the root's form.  A rational step along a segment is
left to `Rat` arithmetic, which is the int form at depth 0.  Otherwise a
helper takes the tower, with a segment's difference computed once
(`Seg.vec`) and the operands in the order the tower expressions had, so
that where two towers share a key (sqrt(2) and sqrt(1/2)) the result's
tower is the one they gave.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd, lcm
from operator import mul, sub

from . import nafield
from .field import (FieldElement, Q, from_int_form, int_form,
                    render_element, sqrt_nonneg)
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
    return seg_sq(Seg(q, p))


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


# -- segment helpers: the arithmetic of the constructions --------------------

class Seg:
    """The directed segment u -> v.  The helpers below read u's and v's
    kept forms (`_zkept`); where those do not serve, they take the
    difference v - u on the tower (`vec`), once per segment."""

    __slots__ = ("u", "v", "_vec")

    def __init__(self, u: Point, v: Point, vec=None):
        self.u, self.v, self._vec = u, v, vec

    @property
    def vec(self):
        if self._vec is None:
            self._vec = vsub(self.v, self.u)
        return self._vec


def _seg_pair(f, g, s: Seg, t: Seg) -> FieldElement:
    """f of the two segments' differences from their kept forms (f one of
    `_zdot`, `_zcross`), or g of their tower vectors."""
    if (z := _zkept(s.u, s.v, t.u, t.v)) is not None:
        R, (a, b, c, d), T = z
        return from_int_form(T, f(_zsub(b, a, R), _zsub(d, c, R), R),
                             _zscale(a, b) * _zscale(c, d))
    return g(s.vec, t.vec)


def seg_dot(s: Seg, t: Seg) -> FieldElement:
    """(b - a).(d - c) for s = Seg(a, b) and t = Seg(c, d)."""
    return _seg_pair(_zdot, dot, s, t)


def seg_cross(s: Seg, t: Seg) -> FieldElement:
    """(b - a) x (d - c) for s = Seg(a, b) and t = Seg(c, d)."""
    return _seg_pair(_zcross, cross, s, t)


def seg_sq(s: Seg) -> FieldElement:
    """|v - u|^2 for s = Seg(u, v)."""
    return seg_dot(s, s)


def meet(a: Point, b: Point, c: Point, d: Point) -> Point | None:
    """Where the lines ab and cd meet, a + (b - a)*t for t = (c - a) x (d -
    c)/(b - a) x (d - c) (Cramer's rule); None if they are parallel.  Over
    Q, t is one int quotient of the forms' differences."""
    if (z := _zkept(a, b, c, d)) is not None and not z[0]:
        _, (a, b, c, d), _ = z
        (X, Y), (U, V), (E, F) = (_zsub(b, a, 0), _zsub(d, c, 0),
                                  _zsub(c, a, 0))
        den = X * V - Y * U  # (b - a) x (d - c) times the scales
        if not den:
            return None
        # X/Sab*t = X*(E*V - F*U)/(den*Sac): the scale of b - a cancels
        t = 0, (E * V - F * U, 0), den * _zscale(a, c)
        return _zshift(a, X, Y, 1, t, ())
    ab, cd = Seg(a, b), Seg(c, d)
    den = seg_cross(ab, cd)
    if den.is_zero():
        return None
    return offset(a, ab, seg_cross(Seg(a, c), cd) / den)


def reach(p: Point, a: Point, b: Point, c: Point, d: Point) -> Point:
    """p + (b - a)*t, t = sqrt(|cd|^2/|ab|^2), for a # b: p itself when
    cd is null (`_zreach` over Q)."""
    if (x := _zreach(p, a, b, c, d)) is not None:
        return x
    q = sqdist(c, d)
    if q.is_zero():
        return p
    return offset(p, Seg(a, b), sqrt_nonneg(q / sqdist(a, b)))


def _zreach(p, a, b, c, d) -> Point | None:
    """`reach` over Q, where the radicand is one int quotient of the forms'
    differences and t a Rat or (A + B*sqrt(R))/D; None off Q."""
    if (z := _zkept(p, a, b, c, d)) is None or z[0]:
        return None
    _, (zp, a, b, c, d), _ = z
    (X, Y), (U, V) = _zsub(b, a, 0), _zsub(d, c, 0)
    if not (U or V):
        return p
    s, u = _zscale(a, b), _zscale(c, d)
    t = sqrt_nonneg(Q((U * U + V * V) * s * s, (X * X + Y * Y) * u * u))
    return _zshift(zp, X, Y, s, _zform1(t), t.tower)


def chord(ca: Seg, ab: Seg, qc) -> tuple[Point, Point]:
    """Where the line ab meets the circle about c, ordered along a -> b,
    for ca = Seg(c, a), ab = Seg(a, b) and qc = |ca|^2 - r^2 <= 0: a + (b -
    a)*t for t = (-qb -+ sqrt(disc))/(2*qa), qa = |ab|^2, qb = 2*ca.ab and
    disc = qb^2 - 4*qa*qc.  Over Q, disc is one int quotient of the forms'
    differences, and t is built in Q(sqrt disc) from ints."""
    c, a, b = ca.u, ca.v, ab.v
    if type(qc) is Rat and (z := _zkept(c, a, b)) is not None and not z[0]:
        _, (c, za, b), _ = z
        (X, Y), (U, V) = _zsub(b, za, 0), _zsub(za, c, 0)
        s, u = _zscale(za, b), _zscale(c, za)
        S, W = X * X + Y * Y, U * X + V * Y  # qa = S/s^2, qb = 2*W/(s*u)
        n, d = qc.n, qc.d
        root = sqrt_nonneg(Q(4 * (W * W * d - S * u * u * n),
                             s * s * u * u * d))
        r, (A, B), D = _zform1(root)
        # X/s*t = X*(-2*W*D -+ (A + B*sqrt(R))*s*u)/(2*S*u*D)
        k, m, tD = 2 * W * D, s * u, 2 * S * u * D
        return tuple(_zshift(za, X, Y, 1, (r, (-k - e * A * m, -e * B * m),
                                           tD), root.tower) for e in (1, -1))
    qa, qb = seg_sq(ab), 2 * seg_dot(ca, ab)
    root = sqrt_nonneg(qb * qb - 4 * qa * qc)
    return (offset(a, ab, (-qb - root) / (2 * qa)),
            offset(a, ab, (-qb + root) / (2 * qa)))


def offset(p: Point, s: Seg, t, turn: bool = False) -> Point:
    """p + (v - u)*t for s = Seg(u, v) and a value t, or p + rot90(v -
    u)*t with `turn`.  When p, u, v and t keep forms whose keys and towers
    meet, the point is built from them as ints (`_zoffset`) and keeps its
    own form."""
    f = int_form(t)  # None for a base value, whose ops are its own
    if f is not None and (z := _zkept(p, s.u, s.v)) is not None:
        x = _zoffset(z, f, t.tower, turn)
        if x is not None:
            return x
    w = rot90(s.vec) if turn else s.vec
    return Point(p.x + w[0] * t, p.y + w[1] * t)


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


def _zform1(v):
    """The `int_form` of a value over Q or one Q(sqrt r), a Rat n/d being
    (0, (n, 0), d)."""
    return (0, (v.n, 0), v.d) if type(v) is Rat else int_form(v)


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


def _zkept(*pts):
    """(R, forms, T): `_zpoints` of points that all keep a form, and T the
    deepest tower of their coordinates, which each other coordinate's tower
    begins; None where `_zpoints` gives None, for a point over Q(eps), whose
    form is made per call, and for towers that share a key but not their
    radicands (sqrt(2) and sqrt(1/2) both give R = 2)."""
    z = _zpoints(*pts, sem=NODE0)  # at NODE0, `_zeps_points` makes no form
    if z is None:
        return None
    R, forms = z
    T = ()
    if R:
        for p in pts:
            for c in (p.x, p.y):
                t = c.tower
                if t and t is not T:
                    if len(t) > len(T):
                        t, T = T, t
                    if t != T[:len(t)]:
                        return None
    return R, forms, T


def _zlanes(lanes, n):
    """The x and y of a point's form, or of a difference from `_zsub`, as
    `int_form` lanes of n = 2 or 4 ints (n = 4 over a depth-2 key)."""
    if len(lanes) == 8:
        return ((lanes[0], lanes[1], lanes[4], lanes[5]),
                (lanes[2], lanes[3], lanes[6], lanes[7]))
    if len(lanes) == 2:  # over Q, (X, Y)
        x, y = (lanes[0], 0), (lanes[1], 0)
    else:
        x, y = lanes[:2], lanes[2:]
    return (x, y) if n == 2 else (x + (0, 0), y + (0, 0))


def _zoffset(z, f, tower, turn):
    """`offset` over ints: z is `_zkept` of (p, u, v) and (f, tower) the
    form and tower of t; None if t's key or tower does not meet theirs.
    With D = Sp*Sw*tD, x = (xp*Sw*tD + wx*tl*Sp)/D for w = v - u over the
    scale Sw, and y likewise."""
    R, (p, u, v), T = z
    r, tl, tD = f
    if not R and type(r) is int:  # p, u, v over Q; t over Q or Q(sqrt r)
        X, Y = _zsub(v, u, 0)
        if turn:
            X, Y = -Y, X
        return _zshift(p, X, Y, _zscale(u, v), f, tower)
    k, sp = _zscale(u, v) * tD, p[1]
    if r and r != R and (R := _zjoin(R, r)) is None:
        return None
    if len(tower) > len(T):
        tower, T = T, tower
    if tower and tower != T[:len(tower)]:
        return None
    n = 4 if type(R) is tuple else 2
    wx, wy = _zlanes(_zsub(v, u, z[0]), n)
    if turn:
        wx, wy = tuple(-c for c in wy), wx
    px, py = _zlanes(p[0], n)
    tl = tl + (0, 0) if len(tl) < n else tl
    x = tuple(a * k + b * sp for a, b in zip(px, _zmul(wx, tl, R)))
    y = tuple(a * k + b * sp for a, b in zip(py, _zmul(wy, tl, R)))
    return _zpoint(R, x, y, sp * k, T)


def _zshift(p, X, Y, s, f, tower) -> Point:
    """p + (X, Y)/s*t for p's form over Q and t's form f over Q or one
    Q(sqrt r) (over `tower`): the build of `meet`, `_zreach`, `chord`, and
    of `_zoffset` over Q."""
    ((xp, _, yp, _), sp), (_, (A, B), D) = p, f
    D *= s
    if D % sp:
        A, B, k, D = A * sp, B * sp, D, D * sp
    else:  # p's scale divides the other's, as when p is an end of the segment
        k = D // sp
    return _zpoint(f[0], (xp * k + X * A, X * B), (yp * k + Y * A, Y * B),
                   D, tower)


def _zpoint(R, x, y, D, T) -> Point:
    """The point (x/D, y/D), D != 0, for x and y `int_form` lanes over the
    tower T of key R, keeping its form: that of `_zform`, over the key of
    its deepest coordinate, in lowest terms."""
    if type(R) is tuple and not (any(x[2:]) or any(y[2:])):
        R, T, x, y = R[0], T[:1], x[:2], y[:2]  # no sqrt(R2) part
    if type(R) is not tuple and not (x[1] or y[1]):  # over Q: two Rats
        q = Point(Q(x[0], D), Q(y[0], D))
        _SET_ZF(q, _zform(q))
        return q
    g = gcd(*x, *y, D)
    if D < 0:
        g = -g
    if g != 1:
        x, y, D = tuple(c // g for c in x), tuple(c // g for c in y), D // g
    q = Point(from_int_form(T, x, D), from_int_form(T, y, D))
    _SET_ZF(q, (R, ((*x[:2], *y[:2], *x[2:], *y[2:]), D)))
    return q


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
    if not R:
        return u[0] * v[1] - u[1] * v[0], 0
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


def _apex(a: Point, b: Point, c: Point, vecs=None) -> AngleWitness:
    """u = a, and v laid off on Ray(b,c) at distance |ba| (`_zreach` over
    Q), from the tower's (a - b, c - b, |a - b|^2, |c - b|^2) if given."""
    if vecs is None:
        if (v := _zreach(b, b, c, a, b)) is not None:
            return AngleWitness(kind="apex", u=a, v=v)
        bc = Seg(b, c)
        qa, qc = sqdist(a, b), seg_sq(bc)
    else:
        _, vec, qa, qc = vecs
        bc = Seg(b, c, vec)
    return AngleWitness(kind="apex", u=a,
                        v=offset(b, bc, sqrt_nonneg(qa / qc)))


def _witness(a: Point, b: Point, c: Point, sem: str,
             right: bool) -> AngleWitness | None:
    """The apex pair of a positive angle abc (the reflection of a in b if
    it is right and `right` allows), or None if abc is not positive.  The
    integer path decides, and only the witness point is computed."""
    if (z := _zpoints(a, b, c, sem=sem)) is not None:
        R, (za, zb, zc) = z
        zba, zbc = _zsub(za, zb, R), _zsub(zc, zb, R)
        if _zcollinear(zba, zbc, R):  # not pos_angle(a, b, c, sem)
            return None
        if right and not any(_zdot(zba, zbc, R)):
            return AngleWitness(kind="right", d=reflect_in_point(a, b))
        return _apex(a, b, c)
    vecs = _angle_vectors(a, b, c, sem)
    if vecs is None:
        return None
    if right and dot(vecs[0], vecs[1]).is_zero():
        return AngleWitness(kind="right", d=reflect_in_point(a, b))
    return _apex(a, b, c, vecs)


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
