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

Points over Q(eps), or over one Q(eps)(sqrt r), are decided over
Z[eps][sqrt R] (`_zpoints`; over ints when no eps occurs), others in the
tower: coordinates become pairs A + B*sqrt(R) over one scale S = m * (the
distinct canonical denominators, as integer polynomials) * r_d, with r =
r_n/r_d and R = r_n*r_d.  This is exact:
- S is positive (so signs and zeros are kept): a canonical denominator's
  lowest coefficient is 1, and r_d's is positive;
- pair equality is field equality, and signs follow `field`'s rule: R =
  r*r_d^2 is no square, as a tower node is made only for a non-square.
On these pairs P(|d|^2) is d != 0 at every node but NODE0, and at NODE0 too
when no eps occurs (a nonzero element of Q(sqrt r) has valuation 0).  A
predicate that reads P hands its semantics to `_zpoints`, which turns points
with an eps at NODE0 away to the tower, where `positive` reads P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import lcm
from operator import mul, sub

from . import nafield
from .field import FieldElement, Q, render_element, sqrt_nonneg
from .nafield import ONE, ZERO, Rat, RatFunc

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


@dataclass(frozen=True, eq=False)
class Point:
    x: FieldElement
    y: FieldElement

    def __eq__(self, other):
        return (isinstance(other, Point)
                and self.x == other.x and self.y == other.y)

    def __repr__(self):
        return f"({render_element(self.x)}, {render_element(self.y)})"


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

class _ZPoly:
    """An integer polynomial in eps (ints, low degree first, no trailing
    zero), ordered with eps a positive infinitesimal: its sign is that of
    its lowest nonzero coefficient.  Compares with 0 or another _ZPoly."""

    __slots__ = ("c",)

    def __init__(self, c: list):
        while c and not c[-1]:
            c.pop()
        self.c = c

    def __add__(a, b):
        x, y = a.c, b.c
        if len(x) < len(y):
            x, y = y, x
        return _ZPoly([p + q for p, q in zip(x, y)] + x[len(y):])

    def __sub__(a, b):
        x, y = a.c, b.c
        return _ZPoly([p - q for p, q in zip(x, y)] + x[len(y):]
                      + [-q for q in y[len(x):]])

    def __mul__(a, b):
        x, y = a.c, b.c
        if len(x) < len(y):
            x, y = y, x
        if len(y) < 2:  # zero or a constant
            return _ZPoly([p * y[0] for p in x] if y else [])
        out = [0] * (len(x) + len(y) - 1)
        for i, p in enumerate(x):
            if p:
                for j, q in enumerate(y):
                    out[i + j] += p * q
        return _ZPoly(out)

    def __bool__(a) -> bool:
        return bool(a.c)

    def __eq__(a, b) -> bool:
        return a.c == b.c

    def sign(a) -> int:
        return next((1 if p > 0 else -1 for p in a.c if p), 0)

    def __gt__(a, b) -> bool:
        return (a - b if b else a).sign() > 0

    def __lt__(a, b) -> bool:
        return (a - b if b else a).sign() < 0


def _zpoints(*pts, sem=None):
    """(R, points (xA, xB, yA, yB)), or None unless each coordinate is a
    leaf or, over one depth-1 tower, a + b*sqrt(r) with leaves a, b, r, and
    None for an eps if `sem` is NODE0.  With Rat leaves alone, A = a*s*r.d,
    B = b*s and R = r.n*r.d (0 with no tower) are ints, s the lcm of all d;
    else `_zeps_points`."""
    for p in pts:
        if type(p.x) is not Rat or type(p.y) is not Rat:
            break
    else:  # Rat leaves alone: R = 0, every B = 0, and one lcm
        s = lcm(*[p.x.d for p in pts], *[p.y.d for p in pts])
        return 0, [(p.x.n * (s // p.x.d), 0, p.y.n * (s // p.y.d), 0)
                   for p in pts]
    tower, parts = (), []  # each coordinate's rational part, then sqrt part
    for p in pts:
        for c in (p.x, p.y):
            t = c.tower
            if t is not tower and t and t != tower:
                if tower or len(t) > 1:
                    return None
                tower = t
            parts += c.rep if t else (c, ZERO)
    dens = [q.d for q in parts if type(q) is Rat]
    r = tower[0] if tower else ONE
    if len(dens) < len(parts) or type(r) is not Rat:
        return None if sem == NODE0 else _zeps_points(parts, r)
    s = lcm(*dens)
    S, R = s * r.d, r.n * r.d if tower else 0
    it = iter(parts)
    return R, [(xa.n * (S // xa.d), xb.n * (s // xb.d),
                ya.n * (S // ya.d), yb.n * (s // yb.d))
               for xa, xb, ya, yb in zip(it, it, it, it)]


def _zeps_points(parts, r):
    """`_zpoints` over Z[eps]: parts and r are Rat or RatFunc leaves.  A leaf
    is n/(c*D), n an integer polynomial, c > 0 an int and D the integer
    form of its canonical denominator (1 if none); S = m*P*r_d with m the
    lcm of the c's and P the product of the distinct D's.  None once S or a
    scaled coordinate passes nafield.MAX_DEGREE."""
    dens, fracs = {}, []  # the distinct D's, keyed by their coefficients
    for q in parts:
        rat = type(q) is Rat
        c, n = (q.d, [q.n]) if rat else (q.num.m, q.num.z)
        key = None
        if not rat and len(q.den.z) > 1:
            m, key = q.den.m, q.den.z
            dens[key] = _ZPoly(list(key))
            n = [x * m for x in n]
        fracs.append((n, c, key))
    if type(r) is Rat:
        rn, rd = _ZPoly([r.n]), _ZPoly([r.d])
    else:  # r = (num/a)/(den/b)
        a, b = r.num.m, r.den.m
        rn = _ZPoly([x * b for x in r.num.z])
        rd = _ZPoly([x * a for x in r.den.z])
    fb = {k: reduce(mul, [d for j, d in dens.items() if j != k], _ZPoly([1]))
          for k in (None, *dens)}  # the other D's: a sqrt part's factor
    fa = {k: f * rd for k, f in fb.items()}  # a rational part's; S/m
    m = lcm(*(c for _, c, _ in fracs))
    coords = [_ZPoly([k * (m // c) for k in n]) * (fb if i % 2 else fa)[key]
              for i, (n, c, key) in enumerate(fracs)]
    if max(len(x.c) for x in (fa[None], *coords)) - 1 > nafield.MAX_DEGREE:
        return None
    it = iter(coords)
    return rn * rd, list(zip(it, it, it, it))


def _zpos_angle(ba, bc, R) -> bool:
    """P of |ba|^2, |bc|^2 and cross(ba, bc)^2, as `_angle_vectors` asks."""
    return any(ba) and any(bc) and any(_zcross(ba, bc, R))


def _zsub(p, q):
    return tuple(map(sub, p, q))


def _zdot(u, v, R):
    return (u[0] * v[0] + u[2] * v[2] + (u[1] * v[1] + u[3] * v[3]) * R,
            u[0] * v[1] + u[1] * v[0] + u[2] * v[3] + u[3] * v[2])


def _zcross(u, v, R):
    return (u[0] * v[2] - u[2] * v[0] + (u[1] * v[3] - u[3] * v[1]) * R,
            u[0] * v[3] + u[1] * v[2] - u[2] * v[1] - u[3] * v[0])


def _zmul(z, w, R):
    return (z[0] * w[0] + z[1] * w[1] * R, z[0] * w[1] + z[1] * w[0])


def _zsign(a, b, R) -> int:  # the sign of a + b*sqrt(R), as field._rsign
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > b * b * R else sb


def _znonstrict(u, v, w, R) -> bool:
    if u == v or v == w:
        return True
    d1, d2 = _zsub(v, u), _zsub(w, v)
    return not any(_zcross(d1, d2, R)) and _zsign(*_zdot(d1, d2, R), R) > 0


# -- core predicates ---------------------------------------------------------

def collinear(u: Point, v: Point, w: Point) -> bool:
    if (z := _zpoints(u, v, w)) is not None:
        R, (u, v, w) = z
        return not any(_zcross(_zsub(w, u), _zsub(w, v), R))
    return cross(vsub(w, u), vsub(w, v)).is_zero()


def between(u: Point, v: Point, w: Point, sem: str = CONSTRUCTIBLE) -> bool:
    """Strict betweenness B(u,v,w): both gaps positively long."""
    if (z := _zpoints(u, v, w, sem=sem)) is not None:
        R, (u, v, w) = z
        d1, d2 = _zsub(v, u), _zsub(w, v)
        return (not any(_zcross(d1, d2, R)) and any(d1) and any(d2)
                and _zsign(*_zdot(d1, d2, R), R) > 0)
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
        return _znonstrict(u, v, w, R)
    if u == v or v == w:
        return True
    d1, d2 = vsub(v, u), vsub(w, v)
    if not cross(d1, d2).is_zero():
        return False
    return dot(d1, d2).sign() > 0


def congruent(a: Point, b: Point, c: Point, d: Point) -> bool:
    if (z := _zpoints(a, b, c, d)) is not None:
        R, (a, b, c, d) = z
        ab, cd = _zsub(a, b), _zsub(c, d)
        return _zdot(ab, ab, R) == _zdot(cd, cd, R)
    return sqdist(a, b) == sqdist(c, d)


def distinct(a: Point, b: Point, sem: str = CONSTRUCTIBLE) -> bool:
    if (z := _zpoints(a, b, sem=sem)) is not None:
        _, (a, b) = z
        return a != b
    return positive(sqdist(a, b), sem)


def on_ray(a: Point, b: Point, x: Point) -> bool:
    """x lies on Ray(a,b): T(e,a,x) where e reflects b in a."""
    if (z := _zpoints(a, b, x)) is not None:
        R, (a, b, x) = z
        return _znonstrict(_zsub(a, _zsub(b, a)), a, x, R)
    e = reflect_in_point(b, a)
    return nonstrict_between(e, a, x)


def right_angle(a: Point, b: Point, c: Point, sem: str = CONSTRUCTIBLE) -> bool:
    if (z := _zpoints(a, b, c, sem=sem)) is not None:
        R, (a, b, c) = z
        ba, bc = _zsub(a, b), _zsub(c, b)
        return any(ba) and any(bc) and a != c and not any(_zdot(ba, bc, R))
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
        return _zpos_angle(_zsub(a, b), _zsub(c, b), R)
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
        ba, bc = _zsub(a, b), _zsub(c, b)
        ba2, bc2 = _zsub(a2, b2), _zsub(c2, b2)
        if not (any(ba) and any(bc) and any(ba2) and any(bc2)):
            return False
        d, e = _zdot(ba, bc, R), _zdot(ba2, bc2, R)
        if _zsign(*d, R) != _zsign(*e, R):
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
        zba, zbc = _zsub(za, zb), _zsub(zc, zb)
        if not _zpos_angle(zba, zbc, R):
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
