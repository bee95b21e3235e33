"""Exactly-checked axiom and theorem audit over the plane F².

Each label is one `Spec` row in `AXIOMS` or `THEOREMS`: a generator whose
configurations satisfy the hypotheses exactly *by construction*, an
optional hypothesis re-checked first, a zero-tolerance check, and whether
the label must refuse an infinitesimal gap.  A construction label's
conclusion is its construction's `_post`, decided once: the label holds
once the construction returns, and a wrong output fails with the detail
`postcondition: <what>` (`tests/test_replay.py` re-decides those
conclusions independently, in sympy).  Every 8th axiom instance has a gap
of 1/2³², infinitesimal in NonArchimedean mode, where the `refuses` labels
must refuse rather than decide (deciding is Markov's principle); the a = b
probes of the extension axioms refuse in both modes.  A verdict that
disagrees with `expect_refusal` is an `unexpected-refusal` or a
`missed-refusal`, and counts as a failure.  Only the axiom labels call
`_Gen.schedule`, which draws the gap: the theorem labels draw none, so in
NonArchimedean mode they run eps-free instances, and their summaries equal
the constructible ones.

`_Gen` draws from the stream of `random.Random(seed)`, seeded through its
C base class `_random.Random` (the init_by_array seeding an int seed
reaches there too).  A draw from n values takes getrandbits of n's bit
length until the result is below n, as `randint` does: in `draw`, and
inline in `q` and `t01`, which reduce their numbers once to a `Rat`.  The
point builders compute a coordinate over Q as one fraction (`_lin`), and
`LowerDim`'s points over Q(√3) are built from ints (`from_int_form`).
"""

from __future__ import annotations

import _random
import json
import time
import zlib
from typing import Callable, NamedTuple

from .arithmetic import axis, expresses_negative
from .field import Q, eps, from_int_form
from .nafield import ONE, ZERO, Rat, _ratio
from .geometry import (
    CONSTRUCTIBLE, NODE0, Point, angle_cong, between, congruent,
    distinct, distinct_witness, midpoint, nonstrict_between, on_ray,
    pos_angle, reflect_in_point, resolve_mode, right_angle, rot90,
    verify_witness, vsub, cross, apex_witness,
)
from .constructions import (
    CircleSpec, ConstructionError, PostconditionFailure, _require,
    angle_bisect, circle_circle, crossbar_point, ext, ext_strict, euclid5,
    inner_pasch, lay_off, line_circle, line_intersect, outer_pasch,
)

TINY = Q(1, 2 ** 32)  # degenerate-adjacent but exactly positive gap


def _instance_seed(seed: int, label: str, index: int) -> int:
    # counter-based: reproducible independently of execution order,
    # and independent of interpreter hash randomization
    return zlib.crc32(f"{seed}:{label}:{index}".encode())


def _lin(x, *uv):
    """x + u1*v1 + u2*v2 + ... for uv = (u1, v1, u2, v2, ...), where a u
    may be a pair (p, q) that stands for p - q.  Over Q that is one int
    numerator over one int denominator, reduced once (`_ratio`); an eps or
    a tower element among the operands takes field arithmetic instead."""
    if type(x) is Rat:
        n, den = x.n, x.d
        for i in range(0, len(uv), 2):
            u, v = uv[i], uv[i + 1]
            if type(u) is tuple:
                p, q = u
                if type(p) is not Rat or type(q) is not Rat:
                    break
                if p.d == q.d:
                    un, ud = p.n - q.n, p.d
                else:
                    un, ud = p.n * q.d - q.n * p.d, p.d * q.d
            elif type(u) is Rat:
                un, ud = u.n, u.d
            else:
                break
            if type(v) is not Rat:
                break
            un, ud = un * v.n, ud * v.d
            if ud == den:
                n += un
            else:
                n, den = n * ud + un * den, den * ud
        else:
            return _ratio(n, den)
    for i in range(0, len(uv), 2):
        u = uv[i]
        x = x + (u[0] - u[1] if type(u) is tuple else u) * uv[i + 1]
    return x


class _Gen:
    """Random exact-rational geometry; in NonArchimedean mode some axiom
    gaps are eps.  Every number is drawn as a base value, a `Rat` (see
    the module doc)."""

    def __init__(self, seed: int, mode: str = CONSTRUCTIBLE):
        self.bits = _random.Random(seed).getrandbits
        self.seed, self.mode = seed, mode
        self.sem = resolve_mode(mode)  # an unknown mode fails here
        self.degenerate = self.na_inf = self.probe = False

    def schedule(self) -> None:
        """Axiom gaps: 1/2³² on every 8th seed, infinitesimal in
        NonArchimedean mode; otherwise an interior parameter."""
        self.degenerate = self.seed % 8 == 7
        self.na_inf = self.degenerate and self.sem == NODE0
        self.gap = (eps() if self.na_inf
                    else TINY if self.degenerate else self.t01())

    def draw(self, lo: int, hi: int) -> int:
        """`random.Random.randint(lo, hi)` on the same stream, without its
        two wrapper frames: with n values in the range, getrandbits of n's
        bit length until the result is below n."""
        n = hi - lo + 1
        k = n.bit_length()
        r = self.bits(k)
        while r >= n:
            r = self.bits(k)
        return lo + r

    def q(self, lo: int = -2 ** 16, hi: int = 2 ** 16) -> Rat:
        """n/d for n drawn from lo..hi, then d from 1..2¹⁰, reduced once."""
        bits, n = self.bits, hi - lo + 1
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        d = bits(11)
        while d >= 2 ** 10:
            d = bits(11)
        return _ratio(lo + r, d + 1)

    def qnz(self) -> Rat:
        while True:
            v = self.q()
            if v.n:
                return v

    def qpos(self) -> Rat:
        v = self.qnz()
        return v if v.n > 0 else -v

    def t01(self, degenerate: bool = False) -> Rat:
        """Interior parameter in (0,1), n/2¹⁰ for n from 1..2¹⁰ - 1;
        optionally pinned next to 0 or 1."""
        if degenerate:
            return TINY if self.draw(0, 1) else 1 - TINY
        bits = self.bits
        r = bits(10)
        while r >= 2 ** 10 - 1:
            r = bits(10)
        return _ratio(r + 1, 2 ** 10)

    def point(self) -> Point:
        return Point(self.q(), self.q())

    def direction(self) -> tuple:
        """A vector with a nonzero x part, hence nonzero."""
        return self.qnz(), self.q()

    def along(self, a: Point, d, t) -> Point:
        """The point a + t·d."""
        return Point(_lin(a.x, d[0], t), _lin(a.y, d[1], t))

    def away(self, a: Point) -> Point:
        """A point distinct from a."""
        dx, dy = self.direction()
        return Point(a.x + dx, a.y + dy)  # one op each: no chain to reduce

    def combine(self, a: Point, b: Point, t) -> Point:
        """The point a + t·(b - a)."""
        return Point(_lin(a.x, (b.x, a.x), t), _lin(a.y, (b.y, a.y), t))

    def off_line_point(self, a: Point, b: Point) -> Point:
        """A point exactly off line ab, built from a nonzero height: a +
        s·(b - a) + h·n, with n the quarter turn of b - a."""
        s, h = self.q(-8, 8), self.qnz()
        return Point(_lin(a.x, (b.x, a.x), s, (a.y, b.y), h),
                     _lin(a.y, (b.y, a.y), s, (b.x, a.x), h))

    def triangle(self) -> tuple[Point, Point, Point]:
        a = self.point()
        b = self.away(a)
        return a, b, self.off_line_point(a, b)

    def right_triangle(self) -> tuple[Point, Point, Point]:
        """a, b, c with an exact right angle at b."""
        b = self.point()
        u = self.direction()
        a = Point(b.x + u[0], b.y + u[1])
        return a, b, self.along(b, rot90(u), self.qnz())

    def unit_dir(self) -> tuple[Rat, Rat]:
        """Exact rational unit vector from a Pythagorean parameterization."""
        m = self.draw(2, 40)
        n = self.draw(1, m - 1)
        h = m * m + n * n
        c, s = Q(m * m - n * n, h), Q(2 * m * n, h)
        if self.draw(0, 1):
            c = -c
        if self.draw(0, 1):
            s = -s
        return c, s

    def isometry(self):
        """Exact rigid motion (rotation + optional flip + translation)."""
        c, sy, s, cy, tx, ty = self._motion()

        def phi(p: Point) -> Point:
            return Point(_lin(tx, c, p.x, sy, p.y), _lin(ty, s, p.x, cy, p.y))

        return phi

    def _motion(self) -> tuple:
        """`isometry`'s draws, as the coefficients (c, sy, s, cy, tx, ty) of
        p -> (c·x + sy·y + tx, s·x + cy·y + ty)."""
        c, s = self.unit_dir()
        flip = self.draw(0, 1)
        tx, ty = self.q(), self.q()
        sy, cy = (s, -c) if flip else (-s, c)  # y' = -y under a flip
        return c, sy, s, cy, tx, ty


class Spec(NamedTuple):
    """One audit label: its generator, hypothesis, check and refusal.  A
    construction label's check is `_built`: its conclusion is the
    construction's `_post`, decided once (and re-decided independently by
    `tests/test_replay.py`), so it has no `detail`."""
    generate: Callable[[_Gen], dict]
    check: Callable[[dict, str], bool]  # (instance, semantics) -> holds
    detail: str | None = None  # reported when the check returns False
    hypothesis: tuple[str, Callable[[dict, str], bool]] | None = None
    refuses: bool = False  # must refuse when the gap is infinitesimal


def _built(construct: Callable[[dict, str], object]):
    """A construction label's check: `construct(i, sem)` runs the
    construction, whose `_post` raises `PostconditionFailure` on a wrong
    output, so the label holds once it returns."""
    def check(i: dict, sem: str) -> bool:
        construct(i, sem)
        return True
    return check


def _pts(i: dict, names: str) -> list:
    """The instance's points `names`, one letter each, in order."""
    return [i[n] for n in names]


# -- axiom generators and checks ----------------------------------------------

def _gen_ext(g: _Gen, null_ok: bool) -> dict:
    a = g.point()
    if g.seed % 32 == 17:  # guard-violation probe: a = b
        g.probe = True
        return dict(a=a, b=a, c=g.point(), d=g.point())
    b = g.away(a)
    c = g.point()
    if null_ok and g.seed % 8 == 3:
        d = c  # null extension segment, allowed non-strictly
    else:
        d = g.along(c, g.direction(), g.gap if g.degenerate else 1)
    return dict(a=a, b=b, c=c, d=d)


def _gen_chain(g: _Gen, names: str) -> dict:
    """a, then `names` at parameters gap, gap + 1, ... along one line."""
    a, d = g.point(), g.direction()
    t = g.gap if g.degenerate else g.t01()
    return {"a": a, **{n: g.along(a, d, t + k) for k, n in enumerate(names)}}


def _gen_a17(g: _Gen) -> dict:
    a, d = g.point(), g.direction()
    b = g.along(a, d, g.t01())
    return dict(a=a, b=b, c=b, d=g.along(a, d, 2))


def _a17_hypothesis(i: dict, sem: str) -> bool:
    a, b, c, d = i["a"], i["b"], i["c"], i["d"]
    return (between(a, b, d, sem) and between(a, c, d, sem)
            and not between(a, b, c, sem) and not between(a, c, b, sem))


def _gen_a5(g: _Gen) -> dict:
    a, c, d = g.triangle()
    b = g.combine(a, c, g.t01(g.degenerate))  # T(a,b,c) with a # b
    phi = g.isometry()
    return dict(a=a, b=b, c=c, d=d, A=phi(a), B=phi(b), C=phi(c), D=phi(d))


def _a5_hypothesis(i: dict, sem: str) -> bool:
    a, b, c, d, A, B, C, D = (i[n] for n in "abcdABCD")
    return (distinct(a, b, sem)
            and nonstrict_between(a, b, c) and nonstrict_between(A, B, C)
            and congruent(a, b, A, B) and congruent(b, c, B, C)
            and congruent(a, d, A, D) and congruent(b, d, B, D))


def _gen_pasch(g: _Gen, q_beyond: bool) -> dict:
    a, b, c = g.triangle()
    tp = g.gap if g.na_inf else g.t01(g.degenerate)
    tq = 1 + g.t01() if q_beyond else g.t01()
    return dict(a=a, c=c, b=b, p=g.combine(a, c, tp), q=g.combine(b, c, tq))


def _gen_lc(g: _Gen, strict: bool) -> dict:
    center = g.point()
    ux, uy = g.unit_dir()
    r = g.qpos()
    u, v = g.along(center, (ux, uy), r), g.along(center, (ux, uy), -r)
    # radius segment pq congruent to the radius, placed elsewhere
    wx, wy = g.unit_dir()
    p = g.point()
    q = g.along(p, (wx, wy), r)
    if not strict and g.seed % 8 == 3:
        t = 1  # a = v, exactly on the circle
    elif g.na_inf:
        t = g.gap  # infinitesimally inside from u: the strict guard refuses
    else:
        t = g.t01(g.degenerate)
    return dict(center=center, u=u, v=v, p=p, q=q, a=g.combine(u, v, t),
                b=g.off_line_point(center, u))


def _lc_args(i: dict) -> tuple:
    """line_circle's circle (center, radius pq) and line ab."""
    return CircleSpec(i["center"], i["p"], i["q"]), i["a"], i["b"]


def _gen_cc(g: _Gen) -> dict:
    o1 = g.point()
    o2 = g.away(o1)
    e = (g.combine(o1, o2, g.t01()) if g.degenerate  # tangent-like
         else g.off_line_point(o1, o2))
    return dict(o1=o1, o2=o2, e=e)


def _gen_euclid5(g: _Gen) -> dict:
    # symmetric transversal: p,q opposite through t; s,r opposite
    # through t; then pr = qs automatically (q-s is a translate of r-p)
    t = g.point()
    v1 = g.direction()
    v2 = g.direction()
    while cross(v1, v2).is_zero():
        v2 = g.direction()
    p = Point(t.x + v1[0], t.y + v1[1])
    q = Point(t.x - v1[0], t.y - v1[1])
    r = Point(t.x + v2[0], t.y + v2[1])
    s = Point(t.x - v2[0], t.y - v2[1])
    ta = g.gap if g.na_inf else g.t01(g.degenerate)
    return dict(t=t, p=p, q=q, s=s, r=r, a=g.combine(q, r, ta))


_ROOT3 = (Q(3),)  # the tower Q(√3) of LowerDim's points


def _gen_lower_dim(g: _Gen) -> dict:
    """An equilateral triangle, three side midpoints and its centre, each
    (x, y·√3)·scale moved by an isometry: its rational part by `_lin`, its
    √3 part a `Rat`, and the coordinate built from their ints."""
    c, sy, s, cy, tx, ty = g._motion()
    scale = g.qpos()
    half, quarter = Q(1, 2), Q(1, 4)

    def fixed(x, y=None):
        x = x * scale
        px, py = _lin(tx, c, x), _lin(ty, s, x)
        if y is None:
            return Point(px, py)
        y = y * scale
        return Point(_plus_root3(px, sy * y), _plus_root3(py, cy * y))

    return dict(
        alpha=fixed(ZERO),
        beta=fixed(ONE),
        gamma=fixed(half, half),
        c1=fixed(half),
        c2=fixed(quarter, quarter),
        c3=fixed(Q(3, 4), quarter),
        c4=fixed(half, Q(1, 6)))


def _plus_root3(a: Rat, b: Rat):
    """a + b·√3 over `_ROOT3`, from ints."""
    return from_int_form(_ROOT3, a.d * b.d, (a.n * b.d, b.n * a.d))[0]


def _lower_dim_holds(i: dict, sem: str) -> bool:
    al, be, ga = i["alpha"], i["beta"], i["gamma"]
    c1, c2, c3, c4 = i["c1"], i["c2"], i["c3"], i["c4"]
    return (congruent(al, be, be, ga) and congruent(al, be, al, ga)
            and distinct(al, be, sem)
            and between(al, c1, be, sem) and congruent(al, c1, c1, be)
            and between(al, c2, ga, sem) and congruent(al, c2, c2, ga)
            and between(be, c3, ga, sem) and congruent(be, c3, c3, ga)
            and between(be, c4, c2, sem) and between(ga, c4, c1, sem))


AXIOMS: dict[str, Spec] = {
    "A4-i1": Spec(lambda g: _gen_ext(g, null_ok=True), _built(
        lambda i, sem: ext(*_pts(i, "abcd"), sem))),
    "A4-i2": Spec(lambda g: _gen_ext(g, null_ok=False), _built(
        lambda i, sem: ext_strict(*_pts(i, "abcd"), sem)), refuses=True),
    "A5-i": Spec(_gen_a5,
                 lambda i, sem: congruent(i["c"], i["d"], i["C"], i["D"]),
                 "five-segment failed",
                 hypothesis=("hypotheses", _a5_hypothesis)),
    "A6-i": Spec(lambda g: dict(a=g.point(), b=g.point()),
                 lambda i, sem: not between(i["a"], i["b"], i["a"], sem),
                 "B(a,b,a) held"),
    "A14-i": Spec(lambda g: _gen_chain(g, "bc"),
                  lambda i, sem: between(i["c"], i["b"], i["a"], sem),
                  "symmetry failed",
                  hypothesis=("B(a,b,c)", lambda i, sem: between(
                      i["a"], i["b"], i["c"], sem)),
                  refuses=True),
    "A15-i": Spec(lambda g: _gen_chain(g, "bcd"),
                  lambda i, sem: between(i["a"], i["b"], i["c"], sem),
                  "inner transitivity failed",
                  hypothesis=("betweenness", lambda i, sem: (
                      between(i["a"], i["b"], i["d"], sem)
                      and between(i["b"], i["c"], i["d"], sem))),
                  refuses=True),
    "A17-i": Spec(_gen_a17, lambda i, sem: i["b"] == i["c"],
                  "connectivity failed",
                  hypothesis=("hypotheses", _a17_hypothesis)),
    "A7-i1": Spec(lambda g: _gen_pasch(g, q_beyond=False), _built(
        lambda i, sem: inner_pasch(*_pts(i, "apcbq"), sem)), refuses=True),
    "A7-i2": Spec(lambda g: _gen_pasch(g, q_beyond=True), _built(
        lambda i, sem: outer_pasch(*_pts(i, "apcbq"), sem)), refuses=True),
    "LC-strict": Spec(lambda g: _gen_lc(g, strict=True), _built(
        lambda i, sem: line_circle(*_lc_args(i), True, sem)), refuses=True),
    "LC-nonstrict": Spec(lambda g: _gen_lc(g, strict=False), _built(
        lambda i, sem: line_circle(*_lc_args(i), False, sem))),
    "CC": Spec(_gen_cc, _built(lambda i, sem: circle_circle(
        CircleSpec(i["o1"], i["o1"], i["e"]),
        CircleSpec(i["o2"], i["o2"], i["e"]), sem))),
    "Euclid5": Spec(_gen_euclid5, _built(
        lambda i, sem: euclid5(*_pts(i, "tpqsra"), sem)), refuses=True),
    "LowerDim": Spec(_gen_lower_dim, _lower_dim_holds,
                     "equilateral constants configuration failed"),
}


# -- theorem generators and checks --------------------------------------------

def _gen_triangle(g: _Gen) -> dict:
    return dict(zip("abc", g.triangle()))


def _gen_right_triangle(g: _Gen) -> dict:
    return dict(zip("abc", g.right_triangle()))


def _witnessed_distinct(p: Point, q: Point, sem: str) -> bool:
    return (distinct(p, q, sem) and verify_witness(
        "Distinct", (p, q), distinct_witness(p, q), sem))


def _gen_outer_transitivity(g: _Gen) -> dict:
    a, d = g.point(), g.direction()
    t1, t2 = g.t01(), 1 + g.t01()
    return dict(a=a, b=g.along(a, d, t1), c=g.along(a, d, t2),
                d=g.along(a, d, t2 + 1))


def _gen_distinct_congruence(g: _Gen) -> dict:
    a = g.point()
    b = g.away(a)
    phi = g.isometry()
    return dict(a=a, b=b, c=phi(a), d=phi(b))


def _gen_crossbar(g: _Gen) -> dict:
    a, b, c = g.triangle()
    return dict(a=a, b=b, c=c, e=g.combine(a, c, g.t01()),
                u=g.combine(b, a, 1 + g.qpos()),
                v=g.combine(b, c, 1 + g.qpos()))


def _crossbar_holds(i: dict, sem: str) -> bool:
    # crossbar_point's _post decides B(u,w,v) and B(b,e,w)
    b, e = i["b"], i["e"]
    w = crossbar_point(i["a"], b, i["c"], e, i["u"], i["v"], sem)
    return on_ray(b, e, w)


def _exterior_angle_holds(i: dict, sem: str) -> bool:
    a, b, c = i["a"], i["b"], i["c"]
    d = ext(b, c, c, _mk_off(c, i["text"]), sem)
    f = reflect_in_point(b, midpoint(a, c))
    # median-doubling: angle bac reappears as acf, interior to acd
    cong = angle_cong(b, a, c, f, c, a)
    s1 = cross(vsub(a, c), vsub(f, c)).sign()
    s2 = cross(vsub(f, c), vsub(d, c)).sign()
    return cong and s1 != 0 and s1 == s2


def _leg_lt_hypotenuse_holds(i: dict, sem: str) -> bool:
    a, b, c = i["a"], i["b"], i["c"]
    x = lay_off(a, c, b, a, sem)
    y = lay_off(c, a, b, c, sem)
    return between(a, x, c, sem) and between(c, y, a, sem)


def _triangle_inequality_holds(i: dict, sem: str) -> bool:
    a, b, c = i["a"], i["b"], i["c"]
    d = ext(a, b, b, c, sem)   # |ad| = |ab| + |bc| along Ray(a,b)
    return between(a, c, lay_off(a, c, a, d, sem), sem)


def _gen_all_right_angles(g: _Gen) -> dict:
    a, b, c = g.right_triangle()
    a2, b2, c2 = _Gen(g.seed + 10 ** 9, g.mode).right_triangle()
    return dict(a=a, b=b, c=c, a2=a2, b2=b2, c2=c2)


def _gen_saccheri(g: _Gen) -> dict:
    u = g.point()
    d = g.direction()
    v = Point(u.x + d[0], u.y + d[1])
    n = rot90(d)
    h = g.qnz()
    return dict(u=u, v=v, a=g.along(u, n, h), d=g.along(v, n, h))


def _saccheri_holds(i: dict, sem: str) -> bool:
    u, v, a, d = i["u"], i["v"], i["a"], i["d"]
    summit = angle_cong(u, a, d, v, d, a)
    mb, ms = midpoint(u, v), midpoint(a, d)
    return (summit and right_angle(ms, mb, u, sem)
            and right_angle(mb, ms, a, sem))


def _gen_parallelogram(g: _Gen) -> dict:
    a, b, c = g.triangle()
    return dict(a=a, b=b, c=c, d=Point(_lin(a.x, (c.x, b.x), ONE),
                                       _lin(a.y, (c.y, b.y), ONE)))


def _diagonals_bisect(i: dict, sem: str) -> bool:
    a, b, c, d = i["a"], i["b"], i["c"], i["d"]
    m = line_intersect(a, c, b, d)
    return (m == midpoint(a, c) and m == midpoint(b, d)
            and between(a, m, c, sem) and between(b, m, d, sem))


def _gen_lambert(g: _Gen) -> dict:
    o = g.point()
    u = g.direction()
    al, be = g.qnz(), g.qnz()
    fx, fy = g.along(o, u, al), g.along(o, rot90(u), be)
    p = Point(_lin(fx.x, (fy.x, o.x), ONE), _lin(fx.y, (fy.y, o.y), ONE))
    return dict(o=o, fx=fx, fy=fy, p=p)


def _angle_bisection_holds(i: dict, sem: str) -> bool:
    a, b, c = i["a"], i["b"], i["c"]
    m = angle_bisect(a, b, c, sem)  # its _post decides b#m
    return angle_cong(a, b, m, m, b, c)


def _two_sides_holds(i: dict, sem: str) -> bool:
    return expresses_negative(axis(i["x"])) == (i["x"] < 0)


_RIGHT_AT_B = ("right angle at b",
               lambda i, sem: right_angle(i["a"], i["b"], i["c"], sem))

THEOREMS: dict[str, Spec] = {
    "vertical-angles": Spec(
        _gen_triangle,
        lambda i, sem: angle_cong(
            i["a"], i["b"], i["c"], reflect_in_point(i["a"], i["b"]),
            i["b"], reflect_in_point(i["c"], i["b"])),
        "vertical angles not congruent"),
    "outer-transitivity": Spec(
        _gen_outer_transitivity,
        lambda i, sem: (between(i["a"], i["b"], i["d"], sem)
                        and between(i["a"], i["c"], i["d"], sem)),
        "outer transitivity failed",
        hypothesis=("betweenness", lambda i, sem: (
            between(i["a"], i["b"], i["c"], sem)
            and between(i["b"], i["c"], i["d"], sem)))),
    "distinct-congruence": Spec(
        _gen_distinct_congruence,
        lambda i, sem: _witnessed_distinct(i["c"], i["d"], sem),
        "transported distinctness failed",
        hypothesis=("a#b and ab=cd", lambda i, sem: (
            distinct(i["a"], i["b"], sem)
            and congruent(i["a"], i["b"], i["c"], i["d"])))),
    "crossbar": Spec(_gen_crossbar, _crossbar_holds,
                     "crossbar conclusion failed"),
    "exterior-angle": Spec(lambda g: {**_gen_triangle(g), "text": g.qpos()},
                           _exterior_angle_holds,
                           "exterior-angle comparison failed"),
    "leg-lt-hypotenuse": Spec(_gen_right_triangle, _leg_lt_hypotenuse_holds,
                              "a leg reached the hypotenuse",
                              hypothesis=_RIGHT_AT_B),
    "triangle-inequality": Spec(_gen_triangle, _triangle_inequality_holds,
                                "triangle inequality failed"),
    "all-right-angles-congruent": Spec(
        _gen_all_right_angles,
        lambda i, sem: angle_cong(i["a"], i["b"], i["c"],
                                  i["a2"], i["b2"], i["c2"]),
        "right angles not congruent"),
    "saccheri-helper": Spec(
        _gen_saccheri, _saccheri_holds, "Saccheri helper failed",
        hypothesis=("Saccheri sides", lambda i, sem: (
            right_angle(i["a"], i["u"], i["v"], sem)
            and right_angle(i["d"], i["v"], i["u"], sem)
            and congruent(i["u"], i["a"], i["v"], i["d"])))),
    "parallelogram-sides": Spec(
        _gen_parallelogram,
        lambda i, sem: (congruent(i["a"], i["b"], i["d"], i["c"])
                        and congruent(i["b"], i["c"], i["a"], i["d"])),
        "opposite sides not congruent"),
    "parallelogram-diagonals": Spec(_gen_parallelogram, _diagonals_bisect,
                                    "diagonals do not bisect each other"),
    "lambert-rectangle": Spec(
        _gen_lambert,
        lambda i, sem: right_angle(i["fx"], i["p"], i["fy"], sem),
        "fourth angle not right",
        hypothesis=("three right angles", lambda i, sem: (
            right_angle(i["fx"], i["o"], i["fy"], sem)
            and right_angle(i["o"], i["fx"], i["p"], sem)
            and right_angle(i["o"], i["fy"], i["p"], sem)))),
    "positive-hypotenuse": Spec(
        _gen_right_triangle,
        lambda i, sem: _witnessed_distinct(i["a"], i["c"], sem),
        "hypotenuse not positively long", hypothesis=_RIGHT_AT_B),
    "positive-implies-apex": Spec(
        _gen_triangle,
        lambda i, sem: verify_witness(
            "PosAngle", (i["a"], i["b"], i["c"]),
            apex_witness(i["a"], i["b"], i["c"], sem), sem),
        "apex witness failed its re-check",
        hypothesis=("0<abc", lambda i, sem: pos_angle(
            i["a"], i["b"], i["c"], sem))),
    "angle-bisection": Spec(_gen_triangle, _angle_bisection_holds,
                            "bisector halves not congruent"),
    "two-sides-expressibility": Spec(lambda g: dict(x=g.qnz()),
                                     _two_sides_holds,
                                     "B(x,0,1) disagrees with the sign of x"),
}

AXIOM_IDS = list(AXIOMS)
THEOREM_NAMES = list(THEOREMS)


# -- generation and checking --------------------------------------------------

def _spec(table: dict, label: str, kind: str) -> Spec:
    if label not in table:
        raise ValueError(f"unknown {kind} {label!r}")
    return table[label]


def _instance(spec: Spec, g: _Gen, **label) -> dict:
    inst = {**label, "seed": g.seed, "mode": g.mode, **spec.generate(g)}
    inst["expect_refusal"] = g.probe or (g.na_inf and spec.refuses)
    return inst


def gen_instance(axiom_id: str, seed: int,
                 mode: str = CONSTRUCTIBLE) -> dict:
    """A configuration whose hypotheses hold exactly by construction.

    Every 8th seed is degenerate-adjacent (1/2³² gaps; infinitesimal gaps
    in NonArchimedean mode, where the `refuses` labels must refuse); a
    sparser schedule produces outright guard-violation probes for the
    guarded extension axioms."""
    spec = _spec(AXIOMS, axiom_id, "axiom id")
    g = _Gen(seed, mode)
    g.schedule()
    return _instance(spec, g, axiom_id=axiom_id)


def gen_theorem_instance(name: str, seed: int,
                         mode: str = CONSTRUCTIBLE) -> dict:
    return _instance(_spec(THEOREMS, name, "theorem name"),
                     _Gen(seed, mode), name=name)


def _verdict(ok: bool, detail: str | None = None) -> dict:
    return {"verdict": "pass" if ok else "fail",
            **({"detail": detail} if detail and not ok else {})}


def _refused(err: Exception) -> dict:
    return {"verdict": "guard-refused", "detail": str(err)}


def _check(spec: Spec, inst: dict, mode: str | None, tag: str | None) -> dict:
    """Re-check the hypothesis, run the check, and hold the verdict to the
    instance's refusal expectation, all in the instance's own mode."""
    if mode is not None and mode != inst["mode"]:
        raise ValueError(f"instance generated in mode {inst['mode']!r}, "
                         f"checked in mode {mode!r}")
    sem = resolve_mode(inst["mode"])
    try:
        if spec.hypothesis is not None:
            text, holds = spec.hypothesis
            _require(tag, [(lambda: holds(inst, sem), text)])
        res = _verdict(spec.check(inst, sem), spec.detail)
    except ConstructionError as err:
        res = _refused(err)
    except PostconditionFailure as err:
        res = {"verdict": "fail", "detail": f"postcondition: {err}"}
    if res["verdict"] == "guard-refused" and not inst["expect_refusal"]:
        return {**res, "verdict": "unexpected-refusal"}
    if inst["expect_refusal"] and res["verdict"] == "pass":
        return {"verdict": "missed-refusal",
                "detail": "a guard decided a case it must refuse"}
    return res


def check_axiom(axiom_id: str, inst: dict, mode: str | None = None) -> dict:
    """Run the axiom's construction and re-check its conclusion, exactly."""
    return _check(_spec(AXIOMS, axiom_id, "axiom id"), inst, mode, axiom_id)


def check_theorem(name: str, inst: dict, mode: str | None = None) -> dict:
    return _check(_spec(THEOREMS, name, "theorem name"), inst, mode, None)


def _mk_off(p: Point, length) -> Point:
    """A helper point at a rational offset, fixing an extension length."""
    return Point(p.x + length, p.y)


# -- the harness --------------------------------------------------------------

# report counter per verdict; every other verdict counts as a failure
_TALLY = {"pass": "passes", "guard-refused": "guard_refusals"}


def audit_run(mode: str = CONSTRUCTIBLE, per_axiom: int = 100,
              seed: int = 0, include_theorems: bool = True) -> dict:
    resolve_mode(mode)  # reject an unknown mode before any work
    if per_axiom < 0:
        raise ValueError(f"per_axiom must be >= 0, got {per_axiom}")
    t0 = time.perf_counter()
    entries = []
    summary: dict[str, dict] = {}
    suites = [(AXIOMS, gen_instance, check_axiom)]
    if include_theorems:
        suites.append((THEOREMS, gen_theorem_instance, check_theorem))
    for specs, generate, check in suites:
        for label in specs:
            counts = {"count": per_axiom, "passes": 0, "failures": 0,
                      "guard_refusals": 0}
            for idx in range(per_axiom):
                iseed = _instance_seed(seed, label, idx)
                try:
                    res = check(label, generate(label, iseed, mode))
                except Exception as err:  # a kernel fault fails one entry
                    res = {"verdict": "error",
                           "detail": f"{type(err).__name__}: {err}"}
                v = res["verdict"]
                counts[_TALLY.get(v, "failures")] += 1
                if v != "pass":
                    entries.append({"axiom_id": label, "instance_index": idx,
                                    "seed": iseed, **res})
            summary[label] = counts
    return {"mode": mode, "seed": seed, "per_axiom": per_axiom,
            "summary": summary, "entries": entries,
            "failures": sum(c["failures"] for c in summary.values()),
            "runtime": time.perf_counter() - t0}


def report_to_json(report: dict) -> str:
    """Deterministic serialization: the wall-clock runtime is omitted so
    identical seeds produce byte-identical reports."""
    body = {k: v for k, v in report.items() if k != "runtime"}
    return json.dumps(body, indent=2, sort_keys=True)
