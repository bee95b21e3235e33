"""Rational functions in the infinitesimal eps: exact base-field layer."""

import enum
import itertools
import operator
import subprocess
import sys
from fractions import Fraction
from math import gcd
from numbers import Rational
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from geokernel import nafield
from geokernel.audit import gen_instance
from geokernel.constructions import CircleSpec, line_circle
from geokernel.dsl import parse_element, parse_script, run_script
from geokernel.field import FieldError, Q, sqrt_nonneg
from geokernel.geometry import NONARCHIMEDEAN, NODE0
from geokernel.kripke import check_ef_axioms
from geokernel.nafield import (
    EPS, DegreeTooHigh, Poly, Rat, RatFunc, frac_sqrt, poly_gcd, poly_sqrt,
)


class TestPoly:
    def test_divmod_exact(self):
        # (x^2 - 1) = (x - 1)(x + 1)
        p = Poly([Fraction(-1), Fraction(0), Fraction(1)])
        d = Poly([Fraction(-1), Fraction(1)])
        q, r = p.divmod(d)
        assert r.is_zero()
        assert (q * d - p).is_zero()

    def test_sqrt_of_square(self):
        p = Poly([Fraction(2), Fraction(3), Fraction(1)])
        sq = p * p
        root = poly_sqrt(sq)
        assert root is not None
        assert (root * root - sq).is_zero()

    def test_sqrt_of_nonsquare(self):
        assert poly_sqrt(Poly([Fraction(0), Fraction(1)])) is None

    def test_coefficients_are_rats(self):
        p = Poly((3, Fraction(1, 2), Rat(-2, 3), 0))
        assert p.c == (3, Fraction(1, 2), Fraction(-2, 3))
        assert all(type(q) is Rat for q in p.c)
        for q in ((p * p).c + p.scale(Rat(5)).c + p.divmod(Poly((1, 1)))[0].c
                  + poly_sqrt(p * p).c + RatFunc.const(Fraction(7, 2)).num.c):
            assert type(q) is Rat


class TestFracSqrt:
    def test_perfect(self):
        assert frac_sqrt(Fraction(9, 4)) == Fraction(3, 2)

    def test_imperfect(self):
        assert frac_sqrt(Fraction(2)) is None
        assert frac_sqrt(Fraction(1, 3)) is None


class TestRatFunc:
    def test_eps_is_positive_infinitesimal(self):
        assert EPS.sign() > 0
        assert EPS.valuation() == 1
        # smaller than every positive rational
        for k in (1, 10 ** 6):
            assert (RatFunc.const(Fraction(1, k)) - EPS).sign() > 0

    def test_valuation_arithmetic(self):
        x = EPS * EPS
        assert x.valuation() == 2
        inv = RatFunc.const(1) / EPS
        assert inv.valuation() == -1
        assert (x * inv).valuation() == 1

    def test_shadow(self):
        x = RatFunc.const(Fraction(3, 7)) + EPS * 5
        assert x.shadow() == Fraction(3, 7)
        assert (RatFunc.const(1) / EPS).shadow() is None

    def test_sqrt_exact(self):
        sq = EPS * EPS * 4
        r = sq.sqrt_exact()
        assert r is not None and r * r == sq
        assert EPS.sqrt_exact() is None

    small = st.fractions(min_value=-100, max_value=100)

    @given(a=small, b=small, c=small)
    @settings(max_examples=100, deadline=None)
    def test_field_laws(self, a, b, c):
        xa = RatFunc.const(a) + EPS * b
        xb = RatFunc.const(b) - EPS * c
        xc = RatFunc.const(c) + EPS * a
        assert (xa + xb) * xc == xa * xc + xb * xc
        assert xa + xb == xb + xa
        if not xb.is_zero():
            assert (xa / xb) * xb == xa

    @given(a=small, b=small)
    @settings(max_examples=100, deadline=None)
    def test_order_respects_addition(self, a, b):
        xa = RatFunc.const(a) + EPS * b
        if xa.sign() > 0:
            assert (xa + EPS).sign() > 0

    def test_unsupported_operand_raises_type_error(self):
        with pytest.raises(TypeError):
            "x" / EPS
        with pytest.raises(TypeError):
            EPS / "x"


def _polys(max_degree):
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    return st.lists(coeff, max_size=max_degree + 1).map(Poly)


def _nonzero(p):
    return not p.is_zero()


class TestCanonicalFormOracle:
    """RatFunc's canonical form against sympy's exact cancellation."""

    @given(num=_polys(2),
           den=st.one_of(_polys(0), _polys(2)).filter(_nonzero),
           shared=st.one_of(st.just(Poly((1,))), _polys(4).filter(_nonzero)))
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy_cancel(self, num, den, shared):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("eps")

        def to_sympy(p):
            return sum(sympy.Rational(q.numerator, q.denominator) * x ** i
                       for i, q in enumerate(p.c))

        def from_sympy(e):
            cs = sympy.Poly(e, x).all_coeffs()[::-1]
            return Poly(Fraction(int(c.p), int(c.q)) for c in cs)

        # degree <= 6 each, with a common factor of degree <= 4 (or none)
        num, den = num * shared, den * shared
        n, d = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
        want_num, want_den = from_sympy(n), from_sympy(d)
        lc = want_den.lowcoeff()
        want_num, want_den = want_num.scale(1 / lc), want_den.scale(1 / lc)

        r = RatFunc(num, den)
        assert (r.num, r.den) == (want_num, want_den)
        neg = -r
        assert (neg.num, neg.den) == (-want_num, want_den)
        assert neg == RatFunc(-r.num, r.den)


def _to_sympy(p, x):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly([sympy.Rational(q.numerator, q.denominator)
                       for q in reversed(p.c)] or [0], x, domain=sympy.QQ)


# degree up to 10 with a shared factor of degree up to 8, and integer
# coefficients past 2^220 once denominators are cleared: wider than the
# gcd inputs of the infinitesimal LC-nonstrict instances (degree 6, 2^204)
_BIG = st.fractions(min_value=-2 ** 72, max_value=2 ** 72,
                    max_denominator=2 ** 24)


def _big_polys(max_degree):
    return st.lists(_BIG, min_size=1, max_size=max_degree + 1).map(Poly)


class TestGcdOracle:
    """poly_gcd against sympy's gcd over Q."""

    @given(u=_big_polys(2), v=_big_polys(2),
           shared=st.one_of(st.just(Poly((1,))), _big_polys(8)))
    @settings(max_examples=100, deadline=None)
    def test_matches_sympy_gcd(self, u, v, shared):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("eps")
        a, b = u * shared, v * shared
        g = poly_gcd(a, b)
        assert all(type(q) is Rat for q in g.c)
        want = _to_sympy(a, x).gcd(_to_sympy(b, x))  # monic, or zero
        assert _to_sympy(g, x) == want

    def test_corners(self):
        x2 = Poly((0, 0, 1))
        assert poly_gcd(Poly(), Poly()) == Poly()
        assert poly_gcd(Poly(), Poly((4, 2))) == Poly((2, 1))
        assert poly_gcd(Poly((Fraction(1, 3),)), x2) == Poly((1,))
        assert poly_gcd(x2, Poly((0, 5))) == Poly((0, 1))


_RATFUNCS = st.builds(
    RatFunc, _polys(3),
    st.one_of(st.just(Poly((1,))), _polys(0), _polys(3)).filter(_nonzero))


class TestHenriciOracle:
    """Henrici sums and products against the plain quotient forms, whose
    one gcd of the whole numerator and denominator gives the same canonical
    form."""

    @given(x=_RATFUNCS, y=_RATFUNCS)
    @settings(max_examples=200, deadline=None)
    def test_matches_plain_forms(self, x, y):
        p, q, r, s = x.num, x.den, y.num, y.den
        want = {operator.add: RatFunc(p * s + r * q, q * s),
                operator.sub: RatFunc(p * s - r * q, q * s),
                operator.mul: RatFunc(p * r, q * s)}
        if not y.is_zero():
            want[operator.truediv] = RatFunc(p * s, q * r)
        for op, w in want.items():
            got = op(x, y)
            assert type(got) is RatFunc
            assert (got.num, got.den) == (w.num, w.den)
        if y.is_zero():
            with pytest.raises(ZeroDivisionError):
                x / y

    def test_zero_and_unit_operands(self):
        zero, x = RatFunc(Poly()), RatFunc(Poly((1, 1)), Poly((1, 0, 2)))
        assert x + zero == x and zero + x == x and zero + zero == 0
        assert (x - x).num == Poly() and (x - x).den == Poly((1,))
        assert (x * zero).den == Poly((1,)) and (zero / x).is_zero()
        assert x * RatFunc(Poly((1, 0, 2))) == RatFunc(Poly((1, 1)))


class TestGcdBudget:
    """poly_gcd calls per RatFunc operation, counted at the module
    function, so the Henrici split cannot quietly turn back into one gcd
    per result."""

    X = RatFunc(Poly((1, 2, 3)), Poly((1, -1)))
    Y = RatFunc(Poly((2, 0, 1)), Poly((1, 1, 5)))
    POLY = RatFunc(Poly((3, 1, 4)))

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        gcd = nafield.poly_gcd

        def counted(a, b):
            calls.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(nafield, "poly_gcd", counted)
        return calls

    def test_unit_denominator_sum_takes_no_gcd(self, calls):
        for a, b in ((self.X, self.POLY), (self.POLY, self.Y),
                     (self.POLY, self.POLY), (self.X, EPS)):
            a + b
            a - b
        assert calls == []

    def test_product_takes_at_most_two(self, calls):
        for a, b in itertools.product((self.X, self.Y, self.POLY, EPS),
                                      repeat=2):
            calls.clear()
            a * b
            assert len(calls) <= 2
            calls.clear()
            a / b
            assert len(calls) <= 2

    def test_line_circle_count(self, calls):
        # seed 7 is an infinitesimal-gap instance: its gcd inputs reach
        # eps-degree 6.  The construction's own arithmetic takes these 10
        # (12 while the base-field divisor 2*qa of t1 and t2 was lifted
        # into the tower and inverted there); its congruent/nonstrict_between
        # postconditions, on points over Q(eps)(sqrt r), decide over
        # Q[eps][sqrt R] and take none (they took 116 more in the tower)
        i = gen_instance("LC-nonstrict", 7, NONARCHIMEDEAN)
        line_circle(CircleSpec(i["center"], i["p"], i["q"]), i["a"], i["b"],
                    strict=False, sem=NODE0)
        assert len(calls) == 10


class TestRatBudget:
    """Rats built, counted at nafield._rat: a zero test or an int
    comparison answers from n and d and builds no Rat to ask its question."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        rat = nafield._rat

        def counted(n, d):
            built.append((n, d))
            return rat(n, d)

        monkeypatch.setattr(nafield, "_rat", counted)
        return built

    def test_zero_tests_build_nothing(self, built):
        x, y = Rat(3, 4), Rat(5)
        coeffs = (Rat(1), Rat(0), Rat(0))  # Rats already: Rat(q) is q
        p = Poly((0, 0, 2))
        built.clear()
        assert not x == 0 and x != 0 and y == 5 and not y != 5
        q = Poly(coeffs)
        assert q.z == (1,) and q.m == 1
        assert p.lowdeg() == 2
        assert built == []
        assert q.c == coeffs[:1]  # the Rat view builds its Rats

    def test_compares_and_prints_build_nothing(self, built):
        p = Poly((Rat(-1, 2), 0, 0, 1, Rat(3, 4)))
        f, g = RatFunc.const(Rat(3)), RatFunc(Poly((3,)), Poly((1, 1)))
        q, r, v = Rat(3, 4), Rat(-5, 2), EPS.valuation()
        built.clear()
        assert str(p) == "-1/2+eps^3+3/4*eps^4"
        assert f == 3 and not f == q and f != -3 and not g == 3
        assert not r >= 0 and r <= 0 and not v <= 0 and v >= 0
        assert built == []

    def test_kripke_count(self, built):
        # 3073 while an int operand of Rat.__eq__ and each zero test of a
        # Poly coefficient built a Rat from the int; 1404 while forcing
        # recomputed a term or a subformula it had already decided for the
        # sample's environment; 959 while a Poly kept Rat coefficients and
        # forcing re-checked the environment's domain on each call; 299
        # while RatFunc == q built RatFunc.const(q), a Poly printed through
        # its Rat view, Rat < int built a Rat of the int, and an FEq was
        # decided at each node; 150 while RatFunc.valuation built its
        # order as a new Rat on each call (36 of them), and a depth-1
        # element over Q kept Rat leaves, so that its arithmetic built a
        # Rat per leaf and per step (9)
        check_ef_axioms(20, 111)
        assert len(built) == 105


def test_kernel_imports_without_fractions():
    # Rat is the one rational type: no kernel module loads fractions
    src = Path(nafield.__file__).resolve().parent.parent
    code = ("import importlib, pkgutil, sys, geokernel\n"
            "for m in pkgutil.iter_modules(geokernel.__path__):\n"
            "    importlib.import_module('geokernel.' + m.name)\n"
            "print('fractions' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestDivmodOracle:
    """Poly.divmod against sympy's division over Q."""

    @given(a=_polys(6), b=_polys(3).filter(_nonzero))
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy_div(self, a, b):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("eps")
        q, r = a.divmod(b)
        assert (q * b + r) == a
        assert r.degree() < b.degree()
        want_q, want_r = sympy.div(_to_sympy(a, x), _to_sympy(b, x))
        assert (_to_sympy(q, x), _to_sympy(r, x)) == (want_q, want_r)


def _check_form(p):
    """p keeps Poly's form: ints z over m > 0 in lowest terms, no trailing
    zero, and its Rat view builds it back, hash and all."""
    assert type(p) is Poly and type(p.z) is tuple and type(p.m) is int
    assert all(type(x) is int for x in p.z)
    assert p.m > 0 and gcd(p.m, *p.z) == 1
    assert not p.z or p.z[-1]
    assert Poly(p.c) == p and hash(Poly(p.c)) == hash(p)


_POLY_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "neg": lambda a, b: -a,
    "scale": lambda a, b: a.scale(b.lowcoeff() if b.z else Rat(0)),
    "quot": lambda a, b: a.divmod(b)[0] if b.z else a,
    "rem": lambda a, b: a.divmod(b)[1] if b.z else a,
    "gcd": poly_gcd,
}
_RATFUNC_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]
_SCALARS = st.fractions(min_value=-9, max_value=9, max_denominator=9)


class TestIntegerForm:
    """Every Poly that an operation returns keeps the integer form, and a
    RatFunc equal to a rational hashes like the equal Fraction."""

    @given(p=_polys(3), steps=st.lists(
        st.tuples(st.sampled_from(sorted(_POLY_OPS)), _polys(3)),
        max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_poly_ops_keep_the_form(self, p, steps):
        _check_form(p)
        for name, other in steps:
            p = _POLY_OPS[name](p, other)
            _check_form(p)
        _check_form(poly_sqrt(p * p))

    @given(x=_RATFUNCS, steps=st.lists(st.tuples(
        st.sampled_from(_RATFUNC_OPS), _RATFUNCS | _SCALARS), max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_ratfunc_ops_keep_the_form(self, x, steps):
        for op, y in steps:
            if op is operator.truediv and not y:
                continue
            x = op(x, y)
            _check_form(x.num)
            _check_form(x.den)
            if x.num.degree() < 1 and x.den.degree() == 0:  # a rational
                q = Fraction(x.num.c[0]) if x.num.z else Fraction(0)
                assert x == q and hash(x) == hash(q)


class TestConst:
    @given(q=st.sampled_from([0, -1, 1, 2 ** 200 + 1, -(3 ** 150)])
           .map(Rat) | st.fractions().map(Rat)
           | st.builds(Fraction, st.integers(-2 ** 300, 2 ** 300),
                       st.integers(1, 2 ** 200)).map(Rat))
    @settings(max_examples=200, deadline=None)
    def test_const_of_a_rat_is_its_form(self, q):
        # Poly.const builds n/d directly; the list constructor agrees
        p, ref = Poly.const(q), Poly((q,))
        assert (p.z, p.m) == (ref.z, ref.m)
        assert p == ref and hash(p) == hash(ref)
        assert (p is nafield._NIL) is (q == 0)


class TestIntegerFormOracle:
    """Poly's operations on the integer form against sympy over QQ."""

    @given(a=_polys(4) | _big_polys(3), b=_polys(3) | _big_polys(3),
           q=_SCALARS)
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, a, b, q):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("eps")
        sa, sb = _to_sympy(a, x), _to_sympy(b, x)
        assert _to_sympy(a + b, x) == sa + sb
        assert _to_sympy(a - b, x) == sa - sb
        assert _to_sympy(a * b, x) == sa * sb
        assert _to_sympy(-a, x) == -sa
        assert _to_sympy(a.scale(Rat(q)), x) == sa * sympy.Rational(
            q.numerator, q.denominator)
        if not b.is_zero():
            got = tuple(_to_sympy(p, x) for p in a.divmod(b))
            assert got == sympy.div(sa, sb)
        assert _to_sympy(poly_gcd(a, b), x) == sa.gcd(sb)  # monic, or zero
        printed = sympy.sympify(str(a).replace("^", "**"), locals={"eps": x})
        assert sympy.Poly(printed, x, domain=sympy.QQ) == sa


_ARITH = [operator.add, operator.sub, operator.mul, operator.truediv]
_ORDER = [operator.lt, operator.le, operator.gt, operator.ge, operator.eq,
          operator.ne]
_FRACTIONS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                          max_denominator=10 ** 4)
_INTS = st.integers(min_value=-10 ** 6, max_value=10 ** 6)


class _Level(enum.IntEnum):
    DOWN = -1
    NONE = 0
    ONE = 1
    TWO = 2


def _same(got, want):
    """got is the Rat that the Fraction want is: equal, and alike in every
    observable form."""
    assert type(got) is Rat
    assert (got.n, got.d) == (want.numerator, want.denominator)
    assert got == want and want == got
    assert str(got) == str(want)
    assert hash(got) == hash(want)


class TestRatAgainstFraction:
    """Rat is differential-tested against fractions.Fraction."""

    @given(x=_FRACTIONS, y=_FRACTIONS | _INTS, op=st.sampled_from(_ARITH))
    @settings(max_examples=300, deadline=None)
    def test_arithmetic(self, x, y, op):
        rx, ry = Rat(x), Rat(y)
        # Rat with Rat, and with a Fraction or an int on either side
        for a, b, fa, fb in ((rx, ry, x, y), (rx, y, x, y), (y, rx, y, x)):
            if op is operator.truediv and fb == 0:
                with pytest.raises(ZeroDivisionError):
                    op(a, b)
                continue
            _same(op(a, b), op(Fraction(fa), fb))

    @given(x=_FRACTIONS)
    @settings(max_examples=200, deadline=None)
    def test_unary_and_forms(self, x):
        rx = Rat(x)
        _same(rx, x)
        _same(-rx, -x)
        assert bool(rx) == bool(x)
        assert repr(rx) == f"Rat({x.numerator}, {x.denominator})"
        assert float(rx) == float(x)
        assert int(rx) == int(x)
        assert Fraction(rx) == x

    @given(x=_FRACTIONS, y=_FRACTIONS | _INTS, op=st.sampled_from(_ORDER))
    @settings(max_examples=300, deadline=None)
    def test_order_and_equality(self, x, y, op):
        rx, want = Rat(x), op(x, y)
        assert op(rx, Rat(y)) is want
        assert op(rx, y) is want
        assert op(y, rx) is op(y, x)

    @given(x=_FRACTIONS | _INTS, n=st.integers(min_value=-3, max_value=3))
    @settings(max_examples=300, deadline=None)
    def test_eq_and_hash_against_ints(self, x, n):
        # a plain int takes the no-Rat path of ==; bool and an int
        # subclass the general one, and all must agree with Fraction
        x = Fraction(x)
        for b in (n, n * 10 ** 20, bool(n % 2), _Level(n % 4 - 1)):
            for fx in (x, Fraction(b)):
                r = Rat(fx)
                assert (r == b) is (fx == b) and (b == r) is (b == fx)
                assert (r != b) is (fx != b) and (b != r) is (b != fx)
                assert hash(r) == hash(fx)
                if r == b:
                    assert hash(r) == hash(b)

    @given(n=_INTS | st.booleans() | st.sampled_from(list(_Level)))
    @settings(max_examples=100, deadline=None)
    def test_as_rat_of_an_int(self, n):
        q = nafield.as_rat(n)
        assert type(q) is Rat and type(q.n) is int and q.d == 1
        assert q == Rat(Fraction(n)) and q.n == n

    def test_integers_and_zero(self):
        _same(Rat(6, -4), Fraction(6, -4))
        _same(Rat(0, 7), Fraction(0))
        _same(Rat(3) + 1, Fraction(4))
        assert Rat(3) == 3 and hash(Rat(-1)) == hash(-1) == hash(Fraction(-1))
        for zero in (0, Rat(0), Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                Rat(1, 2) / zero
        with pytest.raises(ZeroDivisionError):
            1 / Rat(0)
        with pytest.raises(ZeroDivisionError):
            Rat(1, 0)
        with pytest.raises(TypeError):
            Rat("1/2")
        with pytest.raises(TypeError):
            Rat(1) < "x"

    @given(q=st.fractions(min_value=-9, max_value=9, max_denominator=9),
           num=_polys(2),
           den=st.one_of(_polys(0), _polys(2)).filter(_nonzero),
           op=st.sampled_from(_ARITH))
    @settings(max_examples=200, deadline=None)
    def test_mixed_with_ratfunc(self, q, num, den, op):
        # a rational operand takes the no-gcd path; the RatFunc operand
        # the full normalization, which must give the same canonical form
        rf, cq = RatFunc(num, den), RatFunc.const(q)
        for a, b, ga, gb, fa, fb in ((rf, Rat(q), rf, cq, rf, q),
                                     (Rat(q), rf, cq, rf, q, rf)):
            if op is operator.truediv and not gb:
                with pytest.raises(ZeroDivisionError):
                    op(a, b)
                continue
            got, want = op(a, b), op(ga, gb)
            assert type(got) is RatFunc
            assert (got.num, got.den) == (want.num, want.den)
            assert got == op(fa, fb)  # a Fraction operand, the same way


def _str_through_rats(p):
    """Poly.__str__ as it was written over the Rat view `c`: the reference
    for the form that prints from z and m."""
    if not p.z:
        return "0"
    parts = []
    for i, q in enumerate(p.c):
        if not q:
            continue
        if i == 0:
            parts.append(str(q))
        elif i == 1:
            parts.append(f"{q}*eps" if q != 1 else "eps")
        else:
            parts.append(f"{q}*eps^{i}" if q != 1 else f"eps^{i}")
    return "+".join(parts).replace("+-", "-")


# +-1 coefficients, zero gaps, and a denominator far past a machine word
_UNITS_AND_GAPS = st.lists(st.sampled_from(
    [0, 0, 1, -1, Fraction(1, 2), Fraction(-3, 2), Fraction(7, 10 ** 30)]),
    max_size=8).map(Poly)
_RATIONALS = st.sampled_from([0, 1, -1]) | _SCALARS | _FRACTIONS


class TestFastPathOracles:
    """Comparisons and printing that read the canonical forms, against the
    paths that build the values they compare or print."""

    @given(x=_RATFUNCS, q=_RATIONALS)
    @settings(max_examples=300, deadline=None)
    def test_ratfunc_eq_rational(self, x, q):
        cq = RatFunc.const(q)
        forms = [Rat(q), Fraction(q)] + ([int(q)] if q.denominator == 1
                                          else [])
        for f in (x, cq, -cq, cq + EPS, cq / (1 + EPS), RatFunc.const(0)):
            want = f == RatFunc.const(q)
            for b in forms:
                assert (f == b) is want and (b == f) is want, (f, b)
                assert (f != b) is not want and (b != f) is not want

    @given(p=_polys(6) | _big_polys(4) | _UNITS_AND_GAPS)
    @settings(max_examples=300, deadline=None)
    def test_poly_str(self, p):
        assert str(p) == repr(p) == _str_through_rats(p)
        assert str(RatFunc(p)) == _str_through_rats(p)

    @given(x=_FRACTIONS | _INTS, n=st.integers(min_value=-3, max_value=3)
           | st.sampled_from([-10 ** 20, 10 ** 20]))
    @settings(max_examples=300, deadline=None)
    def test_order_against_ints(self, x, n):
        x = Fraction(x)
        for b in (n, -abs(n), 0, bool(n % 2)):
            for fx in (x, Fraction(b), Fraction(b) + Fraction(1, 3)):
                r = Rat(fx)
                for op in (operator.lt, operator.le, operator.gt,
                           operator.ge):
                    assert op(r, b) is op(fx, b), (op, fx, b)
                    assert op(b, r) is op(b, fx), (op, b, fx)

    def test_order_against_a_float_is_refused(self):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            for a, b in ((Rat(1), 1.5), (1.5, Rat(3, 2)), (Rat(0), 0.0)):
                with pytest.raises(TypeError):
                    op(a, b)

    def test_kernel_kinds_skip_the_abc(self, monkeypatch):
        x, q, f = sqrt_nonneg(Q(2)) + 1, Rat(3, 4), RatFunc.const(Rat(2))
        asked = []

        def counted(obj, cls):
            if cls is Rational:
                asked.append(type(obj))
            return isinstance(obj, cls)

        monkeypatch.setattr(nafield, "isinstance", counted, raising=False)
        assert nafield.as_rat(EPS) is None and nafield.as_rat(x) is None
        assert q * x == x * q and q + x == x + q and not q == x
        assert f * x == x * f and f + x == x + f and not f == x
        assert asked == []
        assert nafield.as_rat(Fraction(1, 2)) == Rat(1, 2) and asked

    @given(p=_polys(6) | _big_polys(4) | _UNITS_AND_GAPS,
           q=_polys(6) | _UNITS_AND_GAPS)
    @settings(max_examples=300, deadline=None)
    def test_poly_order(self, p, q):
        # eps a positive infinitesimal: the lowest nonzero coefficient's sign
        low = next((x for x in p.c if x), 0)
        assert p.sign() == (low > 0) - (low < 0) == RatFunc(p).sign()
        assert bool(p) is (not p.is_zero())
        gap = (p - q).sign()
        assert (p < q) is (q > p) is (gap < 0)
        assert (p > q) is (q < p) is (gap > 0)
        assert (p < 0) is (0 > p) is (p.sign() < 0)
        assert (p > 0) is (0 < p) is (p.sign() > 0)

    def test_poly_orders_against_0_alone(self):
        for b in (1, -1, True, 0.0, Fraction(0), Rat(0)):
            with pytest.raises(TypeError):
                Poly((1,)) < b
            with pytest.raises(TypeError):
                b < Poly((1,))

    def test_a_late_registration_is_seen(self):
        # the ABC is asked afresh each time: nothing caches a verdict per
        # type that a later register would leave stale
        class Late:
            numerator, denominator = 3, 4

        assert nafield.as_rat(Late()) is None
        Rational.register(Late)
        assert nafield.as_rat(Late()) == Rat(3, 4)


class TestLeafInterface:
    """A Rat answers the leaf queries of `field` as the equal RatFunc."""

    @given(x=_FRACTIONS)
    @settings(max_examples=200, deadline=None)
    def test_rat_answers_as_ratfunc(self, x):
        for q in (x, x * x):  # a square has an exact root
            r, rf = Rat(q), RatFunc.const(q)
            assert r.sign() == rf.sign()
            assert r.shadow() == rf.shadow()
            assert r.sqrt_exact() == rf.sqrt_exact()
            if not q:
                for leaf in (r, rf):
                    with pytest.raises(ValueError, match="^zero has no "
                                                         "valuation$"):
                        leaf.valuation()
                continue
            assert type(r.valuation()) is type(rf.valuation()) is Rat
            assert r.valuation() == rf.valuation() == 0

    @pytest.mark.parametrize("op", [operator.eq, operator.ne])
    @pytest.mark.parametrize("value", [Rat(1, 2), Q(1, 2) + sqrt_nonneg(Q(2)),
                                       RatFunc.const(Rat(1, 2))],
                             ids=["Rat", "FieldElement", "RatFunc"])
    def test_float_is_refused_as_by_lt(self, value, op):
        with pytest.raises(TypeError):
            value < 0.75
        for a, b in ((value, 0.5), (0.5, value)):
            with pytest.raises(TypeError, match="float"):
                op(a, b)


class TestPower:
    """`**` squares only while bits of the exponent remain, so a power up
    to the degree cap is never refused for a square it does not need."""

    @pytest.mark.parametrize("n", [128, 150, 192])
    def test_degree_up_to_the_cap(self, n):
        x = (1 + EPS) ** n
        assert x.num.degree() == n and x.den == Poly((1,))

    def test_past_the_cap_raises(self):
        with pytest.raises(DegreeTooHigh):
            (1 + EPS) ** 193

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 128, 150, 192, 193,
                                   2 ** 40 + 5])
    def test_product_budget(self, n):
        # bit_length(n) - 1 squarings and popcount(n) products into the
        # result, counted on a value that only counts
        products = []

        class Counted:
            tower = ()  # a kernel kind: `ONE * x` falls to its __rmul__

            def __mul__(self, other):
                products.append(other)
                return self

            __rmul__ = __mul__

        nafield._power(Counted(), n)
        assert len(products) == max(n.bit_length() - 1, 0) + bin(n).count("1")


class TestDegreeCap:
    FOUND = "(sqrt(eps*eps*(1 + sqrt(sqrt(eps)/(eps+1))*eps)) - eps)^16"

    def test_cap_raises_a_field_error(self, monkeypatch):
        monkeypatch.setattr(nafield, "MAX_DEGREE", 8)
        assert RatFunc.eps_power(8).num.degree() == 8
        with pytest.raises(DegreeTooHigh):
            RatFunc.eps_power(9)
        with pytest.raises(DegreeTooHigh):
            RatFunc.eps_power(4) * RatFunc.eps_power(5)
        with pytest.raises(FieldError):
            parse_element(self.FOUND, mode="nonarchimedean")

    def test_script_records_the_cap(self, monkeypatch):
        monkeypatch.setattr(nafield, "MAX_DEGREE", 8)
        env = run_script(parse_script(f"point a {self.FOUND} 0;"),
                         mode="nonarchimedean")
        assert [e["error"] for e in env.errors] == ["DegreeTooHigh"]
