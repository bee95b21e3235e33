"""The audit harness itself: generators honor hypotheses, checks pass,
reports are deterministic."""

import hashlib
import itertools
import json
import random

import pytest

from geokernel import audit
from geokernel.audit import (
    AXIOMS, AXIOM_IDS, THEOREM_NAMES, TINY, _Gen, audit_run, check_axiom,
    check_theorem, gen_instance, gen_theorem_instance, report_to_json,
)
from geokernel import constructions
from geokernel.constructions import CircleSpec, circle_circle, line_circle
from geokernel.field import (
    FieldElement, Q, eps, render_element, sqrt_nonneg,
)
from geokernel.geometry import (
    NONARCHIMEDEAN, NODE0, Point, between, distinct, nonstrict_between,
    rot90, vsub,
)
from geokernel.nafield import Rat, RatFunc


class TestGenerators:
    def test_pasch_hypotheses_hold(self):
        for seed in range(25):
            i = gen_instance("A7-i1", seed)
            if i["expect_refusal"]:
                continue
            assert between(i["a"], i["p"], i["c"])
            assert between(i["b"], i["q"], i["c"])

    def test_degenerate_schedule_still_exact(self):
        # seed 7 mod 8: tiny but exactly positive gaps must still pass
        i = gen_instance("A7-i1", 7)
        assert check_axiom("A7-i1", i)["verdict"] == "pass"

    def test_refusal_probe(self):
        i = gen_instance("A4-i2", 17)  # scheduled a = b probe
        assert i["expect_refusal"]
        assert check_axiom("A4-i2", i)["verdict"] == "guard-refused"

    def test_instance_carries_its_mode(self):
        # an instance is checked in the mode it was generated in
        i = gen_instance("LC-strict", 7, NONARCHIMEDEAN)
        assert i["mode"] == NONARCHIMEDEAN and i["expect_refusal"]
        assert check_axiom("LC-strict", i)["verdict"] == "guard-refused"
        assert check_axiom("LC-strict", i, NONARCHIMEDEAN) == \
            check_axiom("LC-strict", i)
        with pytest.raises(ValueError, match="mode"):
            check_axiom("LC-strict", i, "constructible")
        t = gen_theorem_instance("angle-bisection", 3)
        with pytest.raises(ValueError, match="mode"):
            check_theorem("angle-bisection", t, NONARCHIMEDEAN)

    @pytest.mark.parametrize("generate, label, mode", [
        (gen_instance, "LC-strict", "nonarch"),
        (gen_theorem_instance, "crossbar", "bogus"),
    ])
    def test_unknown_mode_rejected_at_generation(self, generate, label,
                                                 mode):
        with pytest.raises(ValueError, match=f"unknown mode '{mode}'"):
            generate(label, 7, mode)

    def test_euclid5_symmetry_automatic(self):
        from geokernel.geometry import congruent
        i = gen_instance("Euclid5", 4)
        assert congruent(i["p"], i["r"], i["q"], i["s"])

    def test_golden_generated_values(self):
        # the report digests pin verdicts only; this pins every generated
        # number, so a changed coordinate with the same verdict shows too
        labels = ([(gen_instance, a) for a in AXIOM_IDS]
                  + [(gen_theorem_instance, t) for t in THEOREM_NAMES])
        h = hashlib.sha256()
        for mode, (gen, label), seed in itertools.product(
                ("constructible", "nonarchimedean"), labels, range(8)):
            inst = gen(label, seed, mode)
            assert inst["mode"] == mode
            for k in sorted(inst.keys() - {"mode"}):
                h.update(f"{k}={_rendered(inst[k])}\n".encode())
        assert h.hexdigest() == ("771097ba4bdf9c7af8e37d6a1405c7a2"
                                 "f588761a301a2a1f22499e756de0e8c8")

    def test_golden_nonarch_constructed_points(self):
        # the digests above pin inputs and verdicts; this pins the
        # eps-coordinates that the circle constructions build at node 0
        h = hashlib.sha256()
        for seed in range(16):
            i = gen_instance("LC-nonstrict", seed, NONARCHIMEDEAN)
            pts = line_circle(CircleSpec(i["center"], i["p"], i["q"]),
                              i["a"], i["b"], strict=False, sem=NODE0)
            i = gen_instance("CC", seed, NONARCHIMEDEAN)
            pts += circle_circle(CircleSpec(i["o1"], i["o1"], i["e"]),
                                 CircleSpec(i["o2"], i["o2"], i["e"]),
                                 sem=NODE0)
            for x in pts:
                h.update(f"{seed}:{_rendered(x)}\n".encode())
        assert h.hexdigest() == ("2d56c2400f39afcdccd2d5d9e72ba6e0"
                                 "96e8cb7ced43eeeb3b31961c1661f6bc")


def _rendered(v) -> str:
    """A generated value as text, numbers rendered exactly."""
    if isinstance(v, Point):
        return f"{render_element(v.x)},{render_element(v.y)}"
    if isinstance(v, (FieldElement, Rat, RatFunc)):
        return render_element(v)
    return repr(v)  # seed, label, expect_refusal


# seeds 0-999, and those the audit seeds _Gen with: crc32 values
# (`_instance_seed`), up to 2³² - 1, and `all-right-angles-congruent`'s
# second stream at seed + 10⁹, which can pass 2³² and so is a two-word key
_CRC_SEEDS = sorted({audit._instance_seed(s, label, i) for s in (0, 7, 42)
                     for label in ("A4-i1", "LowerDim", "crossbar")
                     for i in range(40)} | {2 ** 32 - 1})
_SEEDS = [*range(1000), *_CRC_SEEDS, *(s + 10 ** 9 for s in _CRC_SEEDS),
          2 ** 32]


class TestDraws:
    def test_draw_is_randint_on_every_range(self):
        # the ranges _Gen draws from, with 1..m-1 for every m in 2..40, and
        # 0..1 as randrange(2) too: each draw must equal the standard
        # library's on the same stream, or every generated value after it
        # changes
        ranges = [(-2 ** 16, 2 ** 16), (1, 2 ** 10), (1, 2 ** 10 - 1),
                  (2, 40), (0, 1)] + [(1, m - 1) for m in range(2, 41)]
        for seed in _SEEDS:
            g, rng = _Gen(seed), random.Random(seed)
            for lo, hi in ranges:
                assert g.draw(lo, hi) == rng.randint(lo, hi)
            m = rng.randint(2, 40)
            assert g.draw(2, 40) == m
            assert g.draw(1, m - 1) == rng.randint(1, m - 1)
            assert g.draw(0, 1) == rng.randrange(2)
            assert g.bits(32) == rng.getrandbits(32)  # still in step

    def test_inline_draws_are_randint(self):
        # q, qnz, qpos and t01 draw inline by `draw`'s rule: each equals
        # its randint expression on the same stream
        def q(lo=-2 ** 16, hi=2 ** 16):
            return Q(rng.randint(lo, hi), rng.randint(1, 2 ** 10))

        def qnz():
            while True:
                v = q()
                if v != 0:
                    return v

        for seed in _SEEDS:
            g, rng = _Gen(seed), random.Random(seed)
            assert g.q() == q()
            assert g.q(-8, 8) == q(-8, 8)
            assert g.qnz() == qnz()
            v = qnz()
            assert g.qpos() == (v if v > 0 else -v)
            assert g.t01() == Q(rng.randint(1, 2 ** 10 - 1), 2 ** 10)
            assert g.t01(True) == (TINY if rng.randint(0, 1) else 1 - TINY)
            assert g.bits(32) == rng.getrandbits(32)  # still in step


class TestBuilders:
    def test_builders_equal_field_arithmetic(self):
        # along, away, combine, off_line_point and isometry build each
        # coordinate over Q as one fraction reduced once: every value (and
        # its kind) equals that of the chain of field operations it
        # replaces, with an eps or a tower coordinate among the operands
        # too, and the two generators draw the same random numbers
        root3 = sqrt_nonneg(Q(3))
        for seed in range(1000):
            g, ref = _Gen(seed), _Gen(seed)
            a, b, d = g.point(), g.point(), g.direction()
            assert (a, b, d) == (ref.point(), ref.point(), ref.direction())
            t = (eps(), g.t01(), 1 + ref.t01(), TINY)[seed % 4]
            if seed % 3 == 0:  # a tower coordinate
                a = Point(a.x, a.y * root3)
            got = [g.along(a, d, t), g.away(a), g.combine(a, b, t),
                   g.combine(b, a, t), g.off_line_point(a, b),
                   g.off_line_point(b, a)]
            phi = g.isometry()
            got += [phi(a), phi(b)]
            dx, dy = ref.direction()
            want = [Point(a.x + d[0] * t, a.y + d[1] * t),
                    Point(a.x + dx, a.y + dy), _combine(a, b, t),
                    _combine(b, a, t), _off_line(ref, a, b),
                    _off_line(ref, b, a)]
            phi = _isometry(ref)
            want += [phi(a), phi(b)]
            assert [_kinds(p) for p in got] == [_kinds(p) for p in want]
            assert g.bits(32) == ref.bits(32)  # still in step

    @pytest.mark.parametrize("mode", ["constructible", "nonarchimedean"])
    @pytest.mark.parametrize("build, chain", [
        (lambda g: audit._gen_lc(g, strict=True), lambda g: _lc(g, True)),
        (lambda g: audit._gen_lc(g, strict=False), lambda g: _lc(g, False)),
        (audit._gen_euclid5, lambda g: _euclid5(g)),
        (audit._gen_parallelogram, lambda g: _parallelogram(g)),
        (audit._gen_lambert, lambda g: _lambert(g)),
        (audit._gen_saccheri, lambda g: _saccheri(g)),
        (lambda g: dict(zip("abc", g.right_triangle())),
         lambda g: dict(zip("abc", _right_triangle(g)))),
        (audit._gen_lower_dim, lambda g: _lower_dim(g)),
    ], ids=["lc-strict", "lc-nonstrict", "euclid5", "parallelogram",
            "lambert", "saccheri", "right-triangle", "lower-dim"])
    def test_generators_equal_field_arithmetic(self, build, chain, mode):
        # the generators that build points as offsets of points give, over
        # one reduction per coordinate, the values and leaf kinds of their
        # chains of field operations, and draw the same random numbers;
        # LowerDim's points over Q(sqrt 3) too, built from ints
        for seed in range(200):
            g, ref = _Gen(seed, mode), _Gen(seed, mode)
            g.schedule()
            ref.schedule()
            got, want = build(g), chain(ref)
            assert list(got) == list(want)
            assert ([_kinds(p) for p in got.values()]
                    == [_kinds(p) for p in want.values()])
            assert g.bits(32) == ref.bits(32)  # still in step


# the generators as chains of field operations, each step reduced apart

def _plus(p, u, t=1):
    return Point(p.x + u[0] * t, p.y + u[1] * t)


def _lc(g, strict):
    center = g.point()
    ux, uy = g.unit_dir()
    r = g.qpos()
    u, v = _plus(center, (ux, uy), r), _plus(center, (ux, uy), -r)
    wx, wy = g.unit_dir()
    p = g.point()
    q = _plus(p, (wx, wy), r)
    if not strict and g.seed % 8 == 3:
        t = 1
    elif g.na_inf:
        t = g.gap
    else:
        t = g.t01(g.degenerate)
    return dict(center=center, u=u, v=v, p=p, q=q, a=_combine(u, v, t),
                b=_off_line(g, center, u))


def _euclid5(g):
    t, v1, v2 = g.point(), g.direction(), g.direction()
    while (v1[0] * v2[1] - v1[1] * v2[0]).is_zero():
        v2 = g.direction()
    p, q = _plus(t, v1), _plus(t, v1, -1)
    r, s = _plus(t, v2), _plus(t, v2, -1)
    ta = g.gap if g.na_inf else g.t01(g.degenerate)
    return dict(t=t, p=p, q=q, s=s, r=r, a=_combine(q, r, ta))


def _triangle(g):
    a = g.point()
    b = _plus(a, g.direction())
    return a, b, _off_line(g, a, b)


def _parallelogram(g):
    a, b, c = _triangle(g)
    return dict(a=a, b=b, c=c, d=Point(a.x + c.x - b.x, a.y + c.y - b.y))


def _lambert(g):
    o, u = g.point(), g.direction()
    al, be = g.qnz(), g.qnz()
    fx, fy = _plus(o, u, al), _plus(o, rot90(u), be)
    return dict(o=o, fx=fx, fy=fy,
                p=Point(fx.x + fy.x - o.x, fx.y + fy.y - o.y))


def _saccheri(g):
    u, d = g.point(), g.direction()
    v = _plus(u, d)
    h = g.qnz()
    return dict(u=u, v=v, a=_plus(u, rot90(d), h), d=_plus(v, rot90(d), h))


def _right_triangle(g):
    b, u = g.point(), g.direction()
    return _plus(b, u), b, _plus(b, rot90(u), g.qnz())


def _lower_dim(g):
    phi = _isometry(g)
    scale = g.qpos()
    root3 = sqrt_nonneg(Q(3))
    half, quarter = Q(1, 2), Q(1, 4)

    def fixed(x, y):
        return phi(Point(x * scale, y * scale))

    return dict(alpha=fixed(0, 0), beta=fixed(1, 0),
                gamma=fixed(half, root3 * half), c1=fixed(half, 0),
                c2=fixed(quarter, root3 * quarter),
                c3=fixed(Q(3, 4), root3 * quarter),
                c4=fixed(half, root3 * Q(1, 6)))


def _combine(a, b, t):
    return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)


def _off_line(g, a, b):
    s, h = g.q(-8, 8), g.qnz()
    d = vsub(b, a)
    n = rot90(d)
    return Point(a.x + d[0] * s + n[0] * h, a.y + d[1] * s + n[1] * h)


def _isometry(g):
    c, s = g.unit_dir()
    flip = g.draw(0, 1)
    tx, ty = g.q(), g.q()

    def phi(p):
        x, y = p.x, p.y
        if flip:
            y = -y
        return Point(c * x - s * y + tx, s * x + c * y + ty)

    return phi


def _kinds(p: Point) -> list:
    """A point's coordinates, rendered, with the kinds of their leaves."""
    out = []
    for c in (p.x, p.y):
        leaves = c.rep if isinstance(c, FieldElement) else (c,)
        out += [render_element(c), *(type(v) for v in leaves)]
    return out


class TestChecks:
    def test_every_axiom_passes_small_run(self):
        for axiom in AXIOM_IDS:
            for idx in range(8):
                res = check_axiom(axiom, gen_instance(axiom, idx * 31 + 1))
                assert res["verdict"] in ("pass", "guard-refused"), (
                    axiom, idx, res)

    def test_every_theorem_passes_small_run(self):
        for name in THEOREM_NAMES:
            for idx in range(8):
                inst = gen_theorem_instance(name, idx * 17 + 3)
                res = check_theorem(name, inst)
                assert res["verdict"] == "pass", (name, idx, res)
                assert inst["expect_refusal"] is False


class TestHarness:
    def test_zero_count_is_empty(self):
        rep = audit_run(per_axiom=0, seed=1)
        assert rep["failures"] == 0 and rep["entries"] == []

    def test_deterministic_byte_for_byte(self):
        a = report_to_json(audit_run(per_axiom=4, seed=11))
        b = report_to_json(audit_run(per_axiom=4, seed=11))
        assert a == b
        assert "runtime" not in json.loads(a)

    @pytest.mark.parametrize("mode, per_axiom, seed, digest", [
        ("constructible", 8, 0, "95d15a88540bc0d580af52ae94e67ad0"
                                "d9973155c7118c0225ba4944e6f6f09f"),
        ("constructible", 8, 7, "ecd3ea8ffb3465714ebc1dd400c1ed90"
                                "41aff94d1dbee342745be679a3798454"),
        ("constructible", 8, 42, "fcd803671ff5c0be288b252d02234c7f"
                                 "ec7f1110296611133d4679c511cede00"),
        ("nonarchimedean", 2, 0, "c5f436cf727e69b990b2a49105e48f2d"
                                 "9236f9c0d3e5f8a2d1cd63f889eef982"),
        ("nonarchimedean", 2, 7, "f173846694e15e17bc087eba10ec1b49"
                                 "44bbfeb1f1597a01ddb8aa68c33fe200"),
        ("nonarchimedean", 2, 42, "35a49247da8189b99426c9128675afbd"
                                  "06f34782f03b15b9dfbe0bb45bbacc05"),
    ])
    def test_golden_report_digest(self, mode, per_axiom, seed, digest):
        # fixed-seed reports are pinned byte for byte: refactors of the
        # generators and checks must not change a single verdict or seed
        body = report_to_json(audit_run(mode, per_axiom, seed)).encode()
        assert hashlib.sha256(body).hexdigest() == digest

    def test_constructible_run_no_refusals_outside_probes(self):
        rep = audit_run(per_axiom=16, seed=2)
        assert rep["failures"] == 0
        # the only constructible-mode refusals are the scheduled
        # guard-violation probes of the extension axioms
        for e in rep["entries"]:
            if e["verdict"] == "guard-refused":
                assert e["axiom_id"] in ("A4-i1", "A4-i2")

    def test_nonarch_run_refuses_on_infinitesimal_gaps(self):
        rep = audit_run(mode="nonarchimedean", per_axiom=16, seed=7)
        assert rep["failures"] == 0
        refusals = sum(c["guard_refusals"] for c in rep["summary"].values())
        assert refusals > 0

    def test_kernel_error_is_a_failing_entry(self, monkeypatch):
        # with the A4-i1 a#b guard off, ext divides by zero on the a = b
        # probe at seed 0: that instance becomes an error entry, and the
        # run goes on through every other label
        apart = constructions._apart

        def unguarded(a, b, sem, axiom, hypothesis):
            if (axiom, hypothesis) != ("A4-i1", "a#b"):
                apart(a, b, sem, axiom, hypothesis)

        monkeypatch.setattr(constructions, "_apart", unguarded)
        rep = audit_run("nonarchimedean", per_axiom=1, seed=0,
                        include_theorems=False)
        assert [e for e in rep["entries"] if e["verdict"] == "error"] == [
            {"axiom_id": "A4-i1", "instance_index": 0, "seed": 4161049329,
             "verdict": "error",
             "detail": "ZeroDivisionError: field division by zero"}]
        assert rep["failures"] == rep["summary"]["A4-i1"]["failures"] == 1
        assert list(rep["summary"]) == list(AXIOM_IDS)

    @pytest.mark.parametrize("label, refuses, verdict", [
        ("Euclid5", False, "unexpected-refusal"),
        ("A5-i", True, "missed-refusal"),
    ])
    def test_refusal_expectation_enforced(self, monkeypatch, label, refuses,
                                          verdict):
        # at seed 6, instance 1 of both labels has an infinitesimal gap:
        # Euclid5 refuses it and A5-i decides it; flipping the spec's
        # expectation must turn that verdict into a counted failure
        monkeypatch.setitem(AXIOMS, label,
                            AXIOMS[label]._replace(refuses=refuses))
        rep = audit_run("nonarchimedean", per_axiom=2, seed=6,
                        include_theorems=False)
        assert rep["failures"] == rep["summary"][label]["failures"] == 1
        got = [e["verdict"] for e in rep["entries"] if e["axiom_id"] == label]
        assert got == [verdict]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="nonarch"):
            audit_run(mode="nonarch", per_axiom=1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="per_axiom must be >= 0"):
            audit_run(per_axiom=-3)
