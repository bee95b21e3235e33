"""Exactly-checked axiom and theorem audit over the plane F².

For every axiom identifier, `gen_instance` builds a random configuration
whose hypotheses hold exactly *by construction* (interior parameters,
exact isometry copies, symmetric transversals), and `check_axiom` runs
the asserted construction and re-checks the conclusion with zero
tolerance.  A scheduled fraction of instances are degenerate-adjacent
(gaps of 1/2³²); in NonArchimedean mode those gaps become infinitesimal
and the guards must refuse — refusals are counted separately from
failures.  A separate suite re-checks named theorems on constructed
instances the same way.
"""

from __future__ import annotations

import json
import random
import time
import zlib
from fractions import Fraction

from .field import NA, FieldElement, Q, eps, sqrt_nonneg
from .geometry import (
    CONSTRUCTIBLE, NODE0, Point, angle_cong, between, congruent, distinct,
    distinct_witness, midpoint, nonstrict_between, on_ray, pos_angle,
    reflect_in_point, right_angle, rot90, verify_witness, vsub, cross,
    apex_witness, NotPositiveAngle,
)
from .constructions import (
    CircleSpec, ConstructionError, PostconditionFailure, angle_bisect,
    circle_circle, crossbar_point, ext, ext_strict, euclid5, inner_pasch,
    lay_off, line_circle, line_intersect, outer_pasch,
)

CONSTRUCTIBLE_MODE = "constructible"
NONARCH_MODE = "nonarchimedean"

AXIOM_IDS = [
    "A4-i1", "A4-i2", "A5-i", "A6-i", "A14-i", "A15-i", "A17-i",
    "A7-i1", "A7-i2", "LC-strict", "LC-nonstrict", "CC", "Euclid5",
    "LowerDim",
]

THEOREM_NAMES = [
    "vertical-angles", "outer-transitivity", "distinct-congruence",
    "crossbar", "exterior-angle", "leg-lt-hypotenuse",
    "triangle-inequality", "all-right-angles-congruent", "saccheri-helper",
    "parallelogram-sides", "parallelogram-diagonals", "lambert-rectangle",
    "positive-hypotenuse", "positive-implies-apex", "angle-bisection",
    "two-sides-expressibility",
]

TINY = Fraction(1, 2 ** 32)  # degenerate-adjacent but exactly positive gap


def _instance_seed(seed: int, label: str, index: int) -> int:
    # counter-based: reproducible independently of execution order,
    # and independent of interpreter hash randomization
    return zlib.crc32(f"{seed}:{label}:{index}".encode())


def _lift(mode: str):
    return NA if mode == NONARCH_MODE else Q


def _sem(mode: str) -> str:
    return NODE0 if mode == NONARCH_MODE else CONSTRUCTIBLE


class _Gen:
    """Random exact-rational geometry, lifted into the requested field."""

    def __init__(self, seed: int, mode: str = CONSTRUCTIBLE_MODE):
        self.rng = random.Random(seed)
        self.mode = mode
        self.lift = _lift(mode)

    def q(self, lo: int = -2 ** 16, hi: int = 2 ** 16) -> Fraction:
        return Fraction(self.rng.randint(lo, hi),
                        self.rng.randint(1, 2 ** 10))

    def qnz(self) -> Fraction:
        while True:
            v = self.q()
            if v != 0:
                return v

    def qpos(self) -> Fraction:
        return abs(self.qnz())

    def t01(self, degenerate: bool = False) -> Fraction:
        """Interior parameter in (0,1); optionally pinned next to 0 or 1."""
        if degenerate:
            return TINY if self.rng.randrange(2) else 1 - TINY
        return Fraction(self.rng.randint(1, 2 ** 10 - 1), 2 ** 10)

    def point(self) -> Point:
        return self.pt(self.q(), self.q())

    def pt(self, x, y) -> Point:
        return Point(self._fe(x), self._fe(y))

    def _fe(self, v):
        if isinstance(v, FieldElement):
            return v
        return self.lift(Fraction(v))

    def combine(self, a: Point, b: Point, t) -> Point:
        t = self._fe(t)
        return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)

    def off_line_point(self, a: Point, b: Point) -> Point:
        """A point exactly off line ab, built from a nonzero height."""
        s, h = self.q(-8, 8), self.qnz()
        d = vsub(b, a)
        n = rot90(d)
        s, h = self._fe(s), self._fe(h)
        return Point(a.x + d[0] * s + n[0] * h, a.y + d[1] * s + n[1] * h)

    def triangle(self) -> tuple[Point, Point, Point]:
        a = self.point()
        b = Point(a.x + self._fe(self.qnz()), a.y + self._fe(self.q()))
        return a, b, self.off_line_point(a, b)

    def unit_dir(self) -> tuple[Fraction, Fraction]:
        """Exact rational unit vector from a Pythagorean parameterization."""
        m = self.rng.randint(2, 40)
        n = self.rng.randint(1, m - 1)
        h = Fraction(m * m + n * n)
        c, s = Fraction(m * m - n * n) / h, Fraction(2 * m * n) / h
        if self.rng.randrange(2):
            c = -c
        if self.rng.randrange(2):
            s = -s
        return c, s

    def isometry(self):
        """Exact rigid motion (rotation + optional flip + translation)."""
        c, s = self.unit_dir()
        flip = self.rng.randrange(2)
        tx, ty = self.q(), self.q()
        c, s, tx, ty = (self._fe(v) for v in (c, s, tx, ty))

        def phi(p: Point) -> Point:
            x, y = p.x, p.y
            if flip:
                y = -y
            return Point(c * x - s * y + tx, s * x + c * y + ty)

        return phi


# -- axiom instances ----------------------------------------------------------

def gen_instance(axiom_id: str, seed: int,
                 mode: str = CONSTRUCTIBLE_MODE) -> dict:
    """A configuration whose hypotheses hold exactly by construction.

    Every 8th seed is degenerate-adjacent (1/2³² gaps; infinitesimal gaps
    in NonArchimedean mode, where the guard must refuse); a sparser
    schedule produces outright guard-violation probes for the guarded
    extension axioms."""
    g = _Gen(seed, mode)
    degenerate = (seed % 8 == 7)
    na_inf = degenerate and mode == NONARCH_MODE
    gap = eps() if na_inf else (g._fe(TINY) if degenerate
                                else g._fe(g.t01()))
    inst: dict = {"axiom_id": axiom_id, "seed": seed,
                  "expect_refusal": na_inf}

    if axiom_id == "A6-i":
        inst["a"], inst["b"] = g.point(), g.point()
        inst["expect_refusal"] = False
        return inst

    if axiom_id in ("A14-i", "A15-i", "A17-i"):
        a = g.point()
        d = Point(g._fe(g.qnz()), g._fe(g.q()))

        def along(t):
            t = g._fe(t)
            return Point(a.x + d.x * t, a.y + d.y * t)

        if axiom_id == "A14-i":
            t1 = gap if (degenerate or na_inf) else g._fe(g.t01())
            inst.update(a=a, b=along(t1), c=along(t1 + 1))
        elif axiom_id == "A15-i":
            # a < b < c < d along the line; B(a,b,d) and B(b,c,d) exact
            t1 = gap if (degenerate or na_inf) else g._fe(g.t01())
            inst.update(a=a, b=along(t1), c=along(t1 + 1), d=along(t1 + 2))
        else:
            b = along(g._fe(g.t01()))
            inst.update(a=a, b=b, c=b, d=along(2))
            inst["expect_refusal"] = False
        return inst

    if axiom_id in ("A4-i1", "A4-i2"):
        a = g.point()
        if seed % 32 == 17:  # guard-violation probe: a = b
            inst.update(a=a, b=a, c=g.point(), d=g.point(),
                        expect_refusal=True)
            return inst
        b = Point(a.x + g._fe(g.qnz()), a.y + g._fe(g.q()))
        c = g.point()
        if axiom_id == "A4-i1" and seed % 8 == 3:
            d = c  # null extension segment, allowed non-strictly
        else:
            dd = Point(g._fe(g.qnz()), g._fe(g.q()))
            scale = gap if (degenerate or na_inf) else g._fe(1)
            d = Point(c.x + dd.x * scale, c.y + dd.y * scale)
            if na_inf:
                inst["expect_refusal"] = axiom_id == "A4-i2"
        inst.update(a=a, b=b, c=c, d=d)
        return inst

    if axiom_id == "A5-i":
        a, c0, dpt = g.triangle()
        t = g.t01(degenerate)
        b = g.combine(a, c0, t)  # T(a,b,c0) with a # b
        phi = g.isometry()
        inst.update(a=a, b=b, c=c0, d=dpt,
                    A=phi(a), B=phi(b), C=phi(c0), D=phi(dpt))
        if na_inf:
            inst["expect_refusal"] = False  # hypotheses classical here
        return inst

    if axiom_id == "A7-i1":
        a, b, c = g.triangle()
        tp = gap if na_inf else g._fe(g.t01(degenerate))
        tq = g._fe(g.t01())
        inst.update(a=a, c=c, b=b,
                    p=g.combine(a, c, tp), q=g.combine(b, c, tq))
        return inst

    if axiom_id == "A7-i2":
        a, b, c = g.triangle()
        tp = gap if na_inf else g._fe(g.t01(degenerate))
        inst.update(a=a, c=c, b=b, p=g.combine(a, c, tp),
                    q=g.combine(b, c, g._fe(1 + g.t01())))
        return inst

    if axiom_id in ("LC-strict", "LC-nonstrict"):
        center = g.point()
        ux, uy = g.unit_dir()
        r = g.qpos()
        u = Point(center.x + g._fe(r * ux), center.y + g._fe(r * uy))
        v = Point(center.x - g._fe(r * ux), center.y - g._fe(r * uy))
        # radius segment pq congruent to the radius, placed elsewhere
        wx, wy = g.unit_dir()
        p = g.point()
        q = Point(p.x + g._fe(r * wx), p.y + g._fe(r * wy))
        if axiom_id == "LC-nonstrict" and seed % 8 == 3:
            t = g._fe(Fraction(seed % 2))  # exactly on the circle
            inst["expect_refusal"] = False
        elif na_inf:
            t = eps()  # infinitesimally inside from u: strict guard refuses
        else:
            t = g._fe(g.t01(degenerate))
        a = g.combine(u, v, t)
        b = g.off_line_point(center, u)
        inst.update(center=center, u=u, v=v, p=p, q=q, a=a, b=b)
        if axiom_id == "LC-nonstrict":
            inst["expect_refusal"] = False
        return inst

    if axiom_id == "CC":
        o1 = g.point()
        o2 = Point(o1.x + g._fe(g.qnz()), o1.y + g._fe(g.q()))
        e = g.off_line_point(o1, o2) if not degenerate else g.combine(
            o1, o2, g._fe(g.t01()))  # meeting point on the center line: tangent-like
        inst.update(o1=o1, o2=o2, e=e)
        inst["expect_refusal"] = False
        return inst

    if axiom_id == "Euclid5":
        # symmetric transversal: p,q opposite through t; s,r opposite
        # through t; then pr = qs automatically (q-s is a translate of r-p)
        tt = g.point()
        v1 = Point(g._fe(g.qnz()), g._fe(g.q()))
        while True:
            v2 = Point(g._fe(g.qnz()), g._fe(g.q()))
            if not cross((v1.x, v1.y), (v2.x, v2.y)).is_zero():
                break
        p = Point(tt.x + v1.x, tt.y + v1.y)
        q = Point(tt.x - v1.x, tt.y - v1.y)
        r = Point(tt.x + v2.x, tt.y + v2.y)
        s = Point(tt.x - v2.x, tt.y - v2.y)
        ta = gap if na_inf else g._fe(g.t01(degenerate))
        a = g.combine(q, r, ta)
        inst.update(t=tt, p=p, q=q, s=s, r=r, a=a)
        if na_inf:
            inst["expect_refusal"] = True  # B(q,a,r) gap infinitesimal
        return inst

    if axiom_id == "LowerDim":
        phi = g.isometry()
        scale = g._fe(g.qpos())
        root3 = sqrt_nonneg(g._fe(3))
        half = g._fe(Fraction(1, 2))

        def fixed(x, y):
            return phi(Point(x * scale, y * scale))

        alpha = fixed(g._fe(0), g._fe(0))
        beta = fixed(g._fe(1), g._fe(0))
        gamma = fixed(half, root3 * half)
        c1 = fixed(half, g._fe(0))
        c2 = fixed(g._fe(Fraction(1, 4)), root3 * g._fe(Fraction(1, 4)))
        c3 = fixed(g._fe(Fraction(3, 4)), root3 * g._fe(Fraction(1, 4)))
        c4 = fixed(half, root3 * g._fe(Fraction(1, 6)))
        inst.update(alpha=alpha, beta=beta, gamma=gamma,
                    c1=c1, c2=c2, c3=c3, c4=c4)
        inst["expect_refusal"] = False
        return inst

    raise ValueError(f"unknown axiom id {axiom_id!r}")


def _verdict(ok: bool, detail: str | None = None) -> dict:
    return {"verdict": "pass" if ok else "fail",
            **({"detail": detail} if detail and not ok else {})}


def _refused(err: Exception) -> dict:
    return {"verdict": "guard-refused", "detail": str(err)}


def check_axiom(axiom_id: str, inst: dict,
                mode: str = CONSTRUCTIBLE_MODE) -> dict:
    """Run the axiom's construction and re-check its conclusion, exactly."""
    sem = _sem(mode)
    i = inst
    try:
        if axiom_id == "A6-i":
            return _verdict(not between(i["a"], i["b"], i["a"], sem),
                            "B(a,b,a) held")
        if axiom_id == "A14-i":
            if not between(i["a"], i["b"], i["c"], sem):
                return _refused(ConstructionError(
                    "PreconditionViolated", axiom_id, "B(a,b,c)"))
            return _verdict(between(i["c"], i["b"], i["a"], sem),
                            "symmetry failed")
        if axiom_id == "A15-i":
            if not (between(i["a"], i["b"], i["d"], sem)
                    and between(i["b"], i["c"], i["d"], sem)):
                return _refused(ConstructionError(
                    "PreconditionViolated", axiom_id, "betweenness"))
            return _verdict(between(i["a"], i["b"], i["c"], sem),
                            "inner transitivity failed")
        if axiom_id == "A17-i":
            a, b, c, d = i["a"], i["b"], i["c"], i["d"]
            hyp = (between(a, b, d, sem) and between(a, c, d, sem)
                   and not between(a, b, c, sem)
                   and not between(a, c, b, sem))
            if not hyp:
                return _refused(ConstructionError(
                    "PreconditionViolated", axiom_id, "hypotheses"))
            return _verdict(b == c, "connectivity failed")
        if axiom_id == "A4-i1":
            e = ext(i["a"], i["b"], i["c"], i["d"], sem)
            return _verdict(nonstrict_between(i["a"], i["b"], e)
                            and congruent(i["b"], e, i["c"], i["d"]),
                            "extension conclusion failed")
        if axiom_id == "A4-i2":
            e = ext_strict(i["a"], i["b"], i["c"], i["d"], sem)
            return _verdict(between(i["a"], i["b"], e, sem)
                            and congruent(i["b"], e, i["c"], i["d"]),
                            "strict extension conclusion failed")
        if axiom_id == "A5-i":
            names = ("a", "b", "c", "d", "A", "B", "C", "D")
            a, b, c, d, A, B, C, D = (i[n] for n in names)
            hyp = (distinct(a, b, sem)
                   and nonstrict_between(a, b, c)
                   and nonstrict_between(A, B, C)
                   and congruent(a, b, A, B) and congruent(b, c, B, C)
                   and congruent(a, d, A, D) and congruent(b, d, B, D))
            if not hyp:
                return _refused(ConstructionError(
                    "PreconditionViolated", axiom_id, "hypotheses"))
            return _verdict(congruent(c, d, C, D), "five-segment failed")
        if axiom_id == "A7-i1":
            x = inner_pasch(i["a"], i["p"], i["c"], i["b"], i["q"], sem)
            return _verdict(between(i["p"], x, i["b"], sem)
                            and between(i["a"], x, i["q"], sem),
                            "inner Pasch conclusion failed")
        if axiom_id == "A7-i2":
            x = outer_pasch(i["a"], i["p"], i["c"], i["b"], i["q"], sem)
            return _verdict(between(i["b"], i["p"], x, sem)
                            and between(i["a"], x, i["q"], sem),
                            "outer Pasch conclusion failed")
        if axiom_id in ("LC-strict", "LC-nonstrict"):
            strict = axiom_id == "LC-strict"
            circle = CircleSpec(i["center"], i["p"], i["q"])
            x, y = line_circle(circle, i["a"], i["b"], strict=strict, sem=sem)
            on = (congruent(i["center"], x, i["p"], i["q"])
                  and congruent(i["center"], y, i["p"], i["q"]))
            sep = (between(x, i["a"], y, sem) if strict
                   else nonstrict_between(x, i["a"], y))
            return _verdict(on and sep, "line-circle conclusion failed")
        if axiom_id == "CC":
            c1 = CircleSpec(i["o1"], i["o1"], i["e"])
            c2 = CircleSpec(i["o2"], i["o2"], i["e"])
            pts = circle_circle(c1, c2, sem=sem)
            ok = all(congruent(i["o1"], x, i["o1"], i["e"])
                     and congruent(i["o2"], x, i["o2"], i["e"])
                     for x in pts)
            return _verdict(ok, "circle-circle conclusion failed")
        if axiom_id == "Euclid5":
            e = euclid5(i["t"], i["p"], i["q"], i["s"], i["r"], i["a"], sem)
            return _verdict(between(i["p"], i["a"], e, sem)
                            and between(i["s"], i["q"], e, sem),
                            "parallel-axiom conclusion failed")
        if axiom_id == "LowerDim":
            al, be, ga = i["alpha"], i["beta"], i["gamma"]
            c1, c2, c3, c4 = i["c1"], i["c2"], i["c3"], i["c4"]
            ok = (congruent(al, be, be, ga) and congruent(al, be, al, ga)
                  and distinct(al, be, sem)
                  and between(al, c1, be, sem) and congruent(al, c1, c1, be)
                  and between(al, c2, ga, sem) and congruent(al, c2, c2, ga)
                  and between(be, c3, ga, sem) and congruent(be, c3, c3, ga)
                  and between(be, c4, c2, sem) and between(ga, c4, c1, sem))
            return _verdict(ok, "equilateral constants configuration failed")
    except ConstructionError as err:
        return _refused(err)
    except PostconditionFailure as err:
        return {"verdict": "fail", "detail": f"postcondition: {err}"}
    raise ValueError(f"unknown axiom id {axiom_id!r}")


# -- theorem instances --------------------------------------------------------

def gen_theorem_instance(name: str, seed: int,
                         mode: str = CONSTRUCTIBLE_MODE) -> dict:
    g = _Gen(seed, mode)
    inst: dict = {"name": name, "seed": seed}

    if name in ("vertical-angles", "positive-implies-apex",
                "angle-bisection", "exterior-angle", "triangle-inequality",
                "crossbar"):
        a, b, c = g.triangle()
        inst.update(a=a, b=b, c=c)
        if name == "crossbar":
            inst["te"] = g.t01()
            inst["ext1"] = g.qpos()
            inst["ext2"] = g.qpos()
        if name == "exterior-angle":
            inst["text"] = g.qpos()
        return inst

    if name == "outer-transitivity":
        a = g.point()
        d = Point(g._fe(g.qnz()), g._fe(g.q()))
        t1, t2 = g._fe(g.t01()), g._fe(1 + g.t01())
        b = Point(a.x + d.x * t1, a.y + d.y * t1)
        c = Point(a.x + d.x * t2, a.y + d.y * t2)
        dd = Point(a.x + d.x * (t2 + 1), a.y + d.y * (t2 + 1))
        inst.update(a=a, b=b, c=c, d=dd)
        return inst

    if name == "distinct-congruence":
        a = g.point()
        b = Point(a.x + g._fe(g.qnz()), a.y + g._fe(g.q()))
        phi = g.isometry()
        inst.update(a=a, b=b, c=phi(a), d=phi(b))
        return inst

    if name in ("leg-lt-hypotenuse", "positive-hypotenuse",
                "all-right-angles-congruent"):
        b = g.point()
        u = (g._fe(g.qnz()), g._fe(g.q()))
        n = rot90(u)
        s = g._fe(g.qnz())
        a = Point(b.x + u[0], b.y + u[1])
        c = Point(b.x + n[0] * s, b.y + n[1] * s)
        inst.update(a=a, b=b, c=c)
        if name == "all-right-angles-congruent":
            g2 = _Gen(seed + 10 ** 9, mode)
            b2 = g2.point()
            u2 = (g2._fe(g2.qnz()), g2._fe(g2.q()))
            n2 = rot90(u2)
            s2 = g2._fe(g2.qnz())
            inst.update(a2=Point(b2.x + u2[0], b2.y + u2[1]), b2=b2,
                        c2=Point(b2.x + n2[0] * s2, b2.y + n2[1] * s2))
        return inst

    if name == "saccheri-helper":
        u = g.point()
        d = (g._fe(g.qnz()), g._fe(g.q()))
        v = Point(u.x + d[0], u.y + d[1])
        n = rot90(d)
        h = g._fe(g.qnz())
        a = Point(u.x + n[0] * h, u.y + n[1] * h)
        dd = Point(v.x + n[0] * h, v.y + n[1] * h)
        inst.update(u=u, v=v, a=a, d=dd)
        return inst

    if name in ("parallelogram-sides", "parallelogram-diagonals"):
        a, b, c = g.triangle()
        d = Point(a.x + c.x - b.x, a.y + c.y - b.y)
        inst.update(a=a, b=b, c=c, d=d)
        return inst

    if name == "lambert-rectangle":
        o = g.point()
        u = (g._fe(g.qnz()), g._fe(g.q()))
        n = rot90(u)
        al, be = g._fe(g.qnz()), g._fe(g.qnz())
        fx = Point(o.x + u[0] * al, o.y + u[1] * al)
        fy = Point(o.x + n[0] * be, o.y + n[1] * be)
        p = Point(fx.x + fy.x - o.x, fx.y + fy.y - o.y)
        inst.update(o=o, fx=fx, fy=fy, p=p)
        return inst

    if name == "two-sides-expressibility":
        inst["x"] = g.qnz()
        return inst

    raise ValueError(f"unknown theorem name {name!r}")


def check_theorem(name: str, inst: dict,
                  mode: str = CONSTRUCTIBLE_MODE) -> dict:
    sem = _sem(mode)
    i = inst
    try:
        if name == "vertical-angles":
            a, b, c = i["a"], i["b"], i["c"]
            a2 = reflect_in_point(a, b)
            c2 = reflect_in_point(c, b)
            return _verdict(angle_cong(a, b, c, a2, b, c2),
                            "vertical angles not congruent")
        if name == "outer-transitivity":
            a, b, c, d = i["a"], i["b"], i["c"], i["d"]
            hyp = between(a, b, c, sem) and between(b, c, d, sem)
            if not hyp:
                return _refused(ConstructionError(
                    "PreconditionViolated", None, "betweenness"))
            return _verdict(between(a, b, d, sem) and between(a, c, d, sem),
                            "outer transitivity failed")
        if name == "distinct-congruence":
            a, b, c, d = i["a"], i["b"], i["c"], i["d"]
            if not (distinct(a, b, sem) and congruent(a, b, c, d)):
                return _refused(ConstructionError(
                    "PreconditionViolated", None, "a#b and ab=cd"))
            w = distinct_witness(c, d)
            return _verdict(distinct(c, d, sem)
                            and verify_witness("Distinct", (c, d), w, sem),
                            "transported distinctness failed")
        if name == "crossbar":
            a, b, c = i["a"], i["b"], i["c"]
            lift = _lift(mode)
            e = Point(a.x + (c.x - a.x) * lift(i["te"]),
                      a.y + (c.y - a.y) * lift(i["te"]))
            t1, t2 = lift(1 + i["ext1"]), lift(1 + i["ext2"])
            u = Point(b.x + (a.x - b.x) * t1, b.y + (a.y - b.y) * t1)
            v = Point(b.x + (c.x - b.x) * t2, b.y + (c.y - b.y) * t2)
            w = crossbar_point(a, b, c, e, u, v, sem)
            return _verdict(between(u, w, v, sem) and between(b, e, w, sem)
                            and on_ray(b, e, w),
                            "crossbar conclusion failed")
        if name == "exterior-angle":
            a, b, c = i["a"], i["b"], i["c"]
            d = ext(b, c, c, _mk_off(c, i["text"]), sem)
            e = midpoint(a, c)
            f = reflect_in_point(b, e)
            # median-doubling: angle bac reappears as acf, interior to acd
            cong = angle_cong(b, a, c, f, c, a)
            s1 = cross(vsub(a, c), vsub(f, c)).sign()
            s2 = cross(vsub(f, c), vsub(d, c)).sign()
            interior = s1 != 0 and s1 == s2
            return _verdict(cong and interior,
                            "exterior-angle comparison failed")
        if name == "leg-lt-hypotenuse":
            a, b, c = i["a"], i["b"], i["c"]
            if not right_angle(a, b, c, sem):
                return _refused(ConstructionError(
                    "PreconditionViolated", None, "right angle at b"))
            x = lay_off(a, c, b, a, sem)
            y = lay_off(c, a, b, c, sem)
            return _verdict(between(a, x, c, sem) and between(c, y, a, sem),
                            "a leg reached the hypotenuse")
        if name == "triangle-inequality":
            a, b, c = i["a"], i["b"], i["c"]
            d = ext(a, b, b, c, sem)   # |ad| = |ab| + |bc| along Ray(a,b)
            y = lay_off(a, c, a, d, sem)
            return _verdict(between(a, c, y, sem),
                            "triangle inequality failed")
        if name == "all-right-angles-congruent":
            ok = angle_cong(i["a"], i["b"], i["c"],
                            i["a2"], i["b2"], i["c2"])
            return _verdict(ok, "right angles not congruent")
        if name == "saccheri-helper":
            u, v, a, d = i["u"], i["v"], i["a"], i["d"]
            hyp = (right_angle(a, u, v, sem) and right_angle(d, v, u, sem)
                   and congruent(u, a, v, d))
            if not hyp:
                return _refused(ConstructionError(
                    "PreconditionViolated", None, "Saccheri sides"))
            summit = angle_cong(u, a, d, v, d, a)
            mb, ms = midpoint(u, v), midpoint(a, d)
            midline = (right_angle(ms, mb, u, sem)
                       and right_angle(mb, ms, a, sem))
            return _verdict(summit and midline, "Saccheri helper failed")
        if name == "parallelogram-sides":
            a, b, c, d = i["a"], i["b"], i["c"], i["d"]
            return _verdict(congruent(a, b, d, c) and congruent(b, c, a, d),
                            "opposite sides not congruent")
        if name == "parallelogram-diagonals":
            a, b, c, d = i["a"], i["b"], i["c"], i["d"]
            m = line_intersect(a, c, b, d)
            ok = (m == midpoint(a, c) and m == midpoint(b, d)
                  and between(a, m, c, sem) and between(b, m, d, sem))
            return _verdict(ok, "diagonals do not bisect each other")
        if name == "lambert-rectangle":
            o, fx, fy, p = i["o"], i["fx"], i["fy"], i["p"]
            hyp = (right_angle(fx, o, fy, sem) and right_angle(o, fx, p, sem)
                   and right_angle(o, fy, p, sem))
            if not hyp:
                return _refused(ConstructionError(
                    "PreconditionViolated", None, "three right angles"))
            return _verdict(right_angle(fx, p, fy, sem),
                            "fourth angle not right")
        if name == "positive-hypotenuse":
            a, b, c = i["a"], i["b"], i["c"]
            if not right_angle(a, b, c, sem):
                return _refused(ConstructionError(
                    "PreconditionViolated", None, "right angle at b"))
            w = distinct_witness(a, c)
            return _verdict(distinct(a, c, sem)
                            and verify_witness("Distinct", (a, c), w, sem),
                            "hypotenuse not positively long")
        if name == "positive-implies-apex":
            a, b, c = i["a"], i["b"], i["c"]
            if not pos_angle(a, b, c, sem):
                return _refused(ConstructionError(
                    "PreconditionViolated", None, "0<abc"))
            w = apex_witness(a, b, c, sem)
            return _verdict(verify_witness("PosAngle", (a, b, c), w, sem),
                            "apex witness failed its re-check")
        if name == "angle-bisection":
            a, b, c = i["a"], i["b"], i["c"]
            m = angle_bisect(a, b, c, sem)
            return _verdict(angle_cong(a, b, m, m, b, c)
                            and distinct(b, m, sem),
                            "bisector halves not congruent")
        if name == "two-sides-expressibility":
            from .arithmetic import axis, expresses_negative
            x = i["x"]
            p = axis(Q(x))
            neg = expresses_negative(p)
            return _verdict(neg == (x < 0),
                            "B(x,0,1) disagrees with the sign of x")
    except (ConstructionError, NotPositiveAngle) as err:
        return _refused(err)
    except PostconditionFailure as err:
        return {"verdict": "fail", "detail": f"postcondition: {err}"}
    raise ValueError(f"unknown theorem name {name!r}")


def _mk_off(p: Point, length) -> Point:
    """A helper point at a rational offset, fixing an extension length."""
    off = length if isinstance(length, FieldElement) else Q(Fraction(length))
    return Point(p.x + off, p.y)


# -- the harness --------------------------------------------------------------

def audit_run(mode: str = CONSTRUCTIBLE_MODE, per_axiom: int = 100,
              seed: int = 0, include_theorems: bool = True) -> dict:
    t0 = time.perf_counter()
    entries = []
    summary: dict[str, dict] = {}
    labels = list(AXIOM_IDS)
    if include_theorems:
        labels += THEOREM_NAMES
    for label in labels:
        is_axiom = label in AXIOM_IDS
        counts = {"count": 0, "passes": 0, "failures": 0,
                  "guard_refusals": 0}
        for idx in range(per_axiom):
            iseed = _instance_seed(seed, label, idx)
            if is_axiom:
                inst = gen_instance(label, iseed, mode)
                res = check_axiom(label, inst, mode)
            else:
                inst = gen_theorem_instance(label, iseed, mode)
                res = check_theorem(label, inst, mode)
            counts["count"] += 1
            v = res["verdict"]
            if v == "pass":
                counts["passes"] += 1
            elif v == "guard-refused":
                counts["guard_refusals"] += 1
            else:
                counts["failures"] += 1
            entry = {"axiom_id": label, "instance_index": idx,
                     "verdict": v, "seed": iseed}
            if "detail" in res:
                entry["detail"] = res["detail"]
            if v == "fail":
                entries.append(entry)
            elif v == "guard-refused":
                entries.append(entry)
        summary[label] = counts
    runtime = time.perf_counter() - t0
    total_fail = sum(c["failures"] for c in summary.values())
    return {"mode": mode, "seed": seed, "per_axiom": per_axiom,
            "summary": summary, "entries": entries,
            "failures": total_fail, "runtime": runtime}


def report_to_json(report: dict) -> str:
    """Deterministic serialization: the wall-clock runtime is omitted so
    identical seeds produce byte-identical reports."""
    body = {k: v for k, v in report.items() if k != "runtime"}
    return json.dumps(body, indent=2, sort_keys=True)
