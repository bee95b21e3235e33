"""Quadratic-extension tower arithmetic: exact signs, roots, valuations."""

import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geokernel import field
from geokernel.dsl import MAX_EXPONENT, ScriptSyntaxError, parse_element
from geokernel.field import (
    DomainViolation, FieldElement, Negative, NotPositive, Q, TowerTooDeep,
    approx, compare, eps, inv_positive, render_element, sqrt_nonneg,
)
from geokernel.nafield import Poly, Rat, RatFunc


class TestConstructible:
    def test_rational_arithmetic(self):
        a, b = Q(3, 4), Q(-2, 5)
        assert a + b == Q(7, 20)
        assert a * b == Q(-3, 10)
        assert (a / b) * b == a

    def test_sqrt_creates_tower(self):
        r2 = sqrt_nonneg(Q(2))
        assert r2 * r2 == Q(2)
        assert r2.sign() > 0
        assert compare(r2, Q(1)) == "greater"
        assert compare(r2, Q(2)) == "less"

    def test_sqrt_denests(self):
        # sqrt(9/4) stays rational, sqrt(8) lands in the sqrt(2) tower
        assert sqrt_nonneg(Q(9, 4)) == Q(3, 2)
        r2 = sqrt_nonneg(Q(2))
        r8 = sqrt_nonneg(Q(8))
        assert r8 == 2 * r2

    def test_golden_ratio_identity(self):
        r5 = sqrt_nonneg(Q(5))
        phi = (Q(1) + r5) / 2
        assert phi * phi == phi + Q(1)

    def test_nested_radical(self):
        # sqrt(3 + 2*sqrt(2)) = 1 + sqrt(2)
        r2 = sqrt_nonneg(Q(2))
        nested = sqrt_nonneg(Q(3) + 2 * r2)
        assert nested == Q(1) + r2

    def test_cross_tower_comparison(self):
        assert compare(sqrt_nonneg(Q(2)) + sqrt_nonneg(Q(3)),
                       sqrt_nonneg(Q(10))) == "less"
        assert compare(sqrt_nonneg(Q(2)) * sqrt_nonneg(Q(3)),
                       sqrt_nonneg(Q(6))) == "equal"

    def test_merged_radical_keeps_its_sign(self):
        # sqrt(8 - 8/3*sqrt 5) = 2/3*(sqrt 5 - 1)*sqrt 3 > 0: merged into a
        # tower with sqrt 3, it is the nonnegative root found there
        r3, r5 = sqrt_nonneg(Q(3)), sqrt_nonneg(Q(5))
        y = sqrt_nonneg(8 - Q(8, 3) * r5)
        assert r3 * y == y * r3 == 2 * r5 - 2
        assert (r3 * (r5 - 1) * y).sign() > 0

    def test_inv_positive_guard(self):
        assert inv_positive(Q(4)) == Q(1, 4)
        with pytest.raises(NotPositive):
            inv_positive(Q(0))
        with pytest.raises(NotPositive):
            inv_positive(Q(-1))

    def test_sqrt_negative_guard(self):
        with pytest.raises(Negative):
            sqrt_nonneg(Q(-1))

    def test_no_hashing(self):
        # base values hash like the equal Fraction; tower elements refuse
        for q in (Fraction(1), Fraction(-3, 4), Fraction(0)):
            assert hash(Q(q)) == hash(RatFunc.const(q)) == hash(q)
        assert hash(eps()) == hash(RatFunc.eps_power(1))
        with pytest.raises(TypeError):
            hash(sqrt_nonneg(Q(2)))
        with pytest.raises(TypeError):
            hash(sqrt_nonneg(eps()) + 1)

    def test_ring_op(self):
        assert Q(2) + Q(3) == Q(5)
        assert Q(2) * Q(3) == Q(6)

    @pytest.mark.parametrize("op", [
        operator.truediv, operator.lt, operator.le, operator.gt, operator.ge,
    ])
    def test_unsupported_operand_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op("x", Q(2))
        with pytest.raises(TypeError):
            op(Q(2), "x")

    def test_approx(self):
        v = approx(sqrt_nonneg(Q(2)))
        assert abs(v - 2 ** 0.5) < 1e-12

    def test_tower_depth_cap(self, monkeypatch):
        monkeypatch.setattr(field, "MAX_TOWER_DEPTH", 2)
        with pytest.raises(TowerTooDeep):
            sqrt_nonneg(sqrt_nonneg(sqrt_nonneg(Q(2))))
        x = sqrt_nonneg(Q(2)) + sqrt_nonneg(Q(3))
        assert x.depth == 2
        with pytest.raises(TowerTooDeep):
            x + sqrt_nonneg(Q(5))
        assert sqrt_nonneg(x * x) == x  # a root inside the tower adds no node

    small = st.integers(min_value=-50, max_value=50)

    @given(a=small, b=small, c=small)
    @settings(max_examples=100, deadline=None)
    def test_tower_field_laws(self, a, b, c):
        r2 = sqrt_nonneg(Q(2))
        x = Q(a) + r2 * b
        y = Q(c) - r2 * a
        z = Q(b) + r2 * c
        assert (x + y) * z == x * z + y * z
        if not y.is_zero():
            assert (x / y) * y == x

    @given(a=small.filter(lambda v: v > 0))
    @settings(max_examples=50, deadline=None)
    def test_sqrt_square_roundtrip(self, a):
        r = sqrt_nonneg(Q(a))
        assert r * r == Q(a)
        assert r.sign() > 0


def _ratfunc_leaf(q) -> RatFunc:
    """A rational as a constant RatFunc leaf, the form it once always had."""
    return RatFunc.const(q)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}
_TREES = st.recursive(
    st.just("eps") | st.fractions(min_value=-4, max_value=4,
                                  max_denominator=4),
    lambda kids: (st.tuples(st.sampled_from(sorted(_OPS)), kids, kids)
                  | st.tuples(st.just("sqrt"), kids)),
    max_leaves=5)


def _sqrt_count(tree) -> int:
    if not isinstance(tree, tuple):
        return 0
    return (tree[0] == "sqrt") + sum(_sqrt_count(t) for t in tree[1:])


def _evaluate(tree, rational):
    if tree == "eps":
        return eps()
    if isinstance(tree, Fraction):
        return rational(tree)
    if tree[0] == "sqrt":
        return sqrt_nonneg(_evaluate(tree[1], rational))
    return _OPS[tree[0]](_evaluate(tree[1], rational),
                         _evaluate(tree[2], rational))


_SMALL = st.sampled_from([Fraction(n) for n in (-2, -1, 1, 2, 3)]
                         + [Fraction(1, 2)])
_RADICANDS = st.sampled_from([Fraction(n) for n in (2, 3, 4, 5, 8)]
                             + [Fraction(1, 2)])


@st.composite
def _eps_free_trees(draw):
    """x, then x op c*r for up to three roots r, each the root of a small
    rational or of 1 + x^2: eps-free, of tower depth <= 3."""
    x = draw(_SMALL)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            r = ("sqrt", draw(_RADICANDS))
        else:
            r = ("sqrt", ("+", Fraction(1), ("*", x, x)))
        x = (draw(st.sampled_from(sorted(_OPS))), x, ("*", draw(_SMALL), r))
    return x


def _root(f):
    return ("sqrt", Fraction(f))


def _sympy_value(tree, sympy):
    """The exact sympy number a tree denotes."""
    if isinstance(tree, Fraction):
        return sympy.Rational(tree.numerator, tree.denominator)
    if tree[0] == "sqrt":
        return sympy.sqrt(_sympy_value(tree[1], sympy))
    return _OPS[tree[0]](_sympy_value(tree[1], sympy),
                         _sympy_value(tree[2], sympy))


# rational functions of eps: trees without sqrt
_EPS_TREES = st.recursive(
    st.just("eps") | st.fractions(min_value=-4, max_value=4,
                                  max_denominator=4),
    lambda kids: st.tuples(st.sampled_from(sorted(_OPS)), kids, kids),
    max_leaves=8)


class TestTowerOracle:
    """Tower arithmetic against sympy, an independent exact oracle."""

    # zeros that only a denesting finds
    @example(tree=("-", _root(8), ("*", Fraction(2), _root(2))))
    @example(tree=("-", ("sqrt", ("+", Fraction(3), ("*", Fraction(2),
                                                       _root(2)))),
                   ("+", Fraction(1), _root(2))))
    @example(tree=("-", ("*", _root(2), _root(3)), _root(6)))
    @given(tree=_eps_free_trees())
    @settings(max_examples=120, deadline=None)
    def test_eps_free_tower(self, tree):
        sympy = pytest.importorskip("sympy")
        x, expr = _evaluate(tree, Q), _sympy_value(tree, sympy)
        v = sympy.N(expr, 60)
        if abs(v) > sympy.Rational(1, 10 ** 40):
            assert x.sign() == sympy.sign(v)
        else:  # too near 0 to tell by digits: the minimal polynomial is t
            t = sympy.Symbol("t")
            assert x.is_zero() == (sympy.minimal_polynomial(expr, t) == t)
        assert parse_element(render_element(x)) == x
        y = -x if x.sign() < 0 else x
        assert sqrt_nonneg(y) ** 2 == y

    @given(tree=_EPS_TREES)
    @settings(max_examples=120, deadline=None)
    def test_eps_leaf_leading_term(self, tree):
        sympy = pytest.importorskip("sympy")
        try:
            x = _evaluate(tree, Q)
        except ZeroDivisionError:
            return
        assume(not x.is_zero())
        e = sympy.Symbol("eps", positive=True)
        expr = sympy.sympify(render_element(x).replace("^", "**"),
                             locals={"eps": e})
        coeff, k = expr.as_leading_term(e).as_coeff_exponent(e)
        assert x.valuation() == int(k)
        assert x.sign() == sympy.sign(coeff)


class TestRepresentation:
    def test_rationals_stay_fractions_until_eps(self):
        assert type(Q(3)) is Rat
        assert type(sqrt_nonneg(Q(2)).tower[0]) is Rat
        assert isinstance(Q(1) + eps(), RatFunc)
        assert Q(1) + eps() - eps() == Q(1)

    @given(tree=_TREES)
    @settings(max_examples=60, deadline=None)
    def test_fraction_leaves_agree_with_ratfunc_leaves(self, tree):
        assume(_sqrt_count(tree) <= 2)  # tower depth at most 2
        results = []
        for rational in (Q, _ratfunc_leaf):
            try:
                results.append(_evaluate(tree, rational))
            except (ZeroDivisionError, Negative) as err:
                results.append(type(err))
        new, old = results
        if isinstance(new, type):
            assert new is old
            return
        assert new == old
        assert new.sign() == old.sign()
        if new.is_zero():  # zero is a leaf of either kind, with no valuation
            for x in (new, old):
                with pytest.raises(ValueError):
                    x.valuation()
        else:
            assert new.valuation() == old.valuation()
        assert render_element(new) == render_element(old)


_SMALL_FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=9)
# (a + b*eps + c*eps^2) / (1 + d*eps) with b or c nonzero: eps is in it
_EPS_LEAVES = st.builds(
    lambda a, b, c, d: RatFunc(Poly((a, b, c)), Poly((1, d))),
    _SMALL_FRACTIONS, _SMALL_FRACTIONS, _SMALL_FRACTIONS, _SMALL_FRACTIONS,
).filter(lambda r: r.num.degree() > 0 or r.den.degree() > 0)


class TestDepthZero:
    @given(x=_SMALL_FRACTIONS | _EPS_LEAVES, y=_SMALL_FRACTIONS | _EPS_LEAVES,
           n=st.integers(min_value=-9, max_value=9),
           op=st.sampled_from(list(_OPS.values())))
    @settings(max_examples=200, deadline=None)
    def test_binop_is_one_leaf_op(self, x, y, n, op):
        fx, fy = (v if isinstance(v, RatFunc) else Q(v) for v in (x, y))
        for a, b, lx, ly in ((fx, fy, x, y), (n, fy, Fraction(n), y),
                             (fx, n, x, Fraction(n))):
            if op is operator.truediv and not ly:
                with pytest.raises(ZeroDivisionError,
                                   match="field division by zero"):
                    op(a, b)
                continue
            got, want = op(a, b), op(lx, ly)
            assert got.tower == ()
            assert got == want
            assert type(got) is (Rat if isinstance(lx, Fraction)
                                 and isinstance(ly, Fraction) else RatFunc)

    @pytest.mark.parametrize("x", [
        Q(3), eps(), sqrt_nonneg(Q(2)), Q(1) + sqrt_nonneg(eps()),
    ], ids=["rational", "eps", "depth-1", "depth-1-eps"])
    def test_division_by_zero(self, x):
        for zero in (Q(0), 0):
            with pytest.raises(ZeroDivisionError,
                               match="field division by zero"):
                x / zero
        with pytest.raises(ZeroDivisionError, match="field division by zero"):
            1 / (x - x)


_R2, _R3, _S = sqrt_nonneg(Q(2)), sqrt_nonneg(Q(3)), sqrt_nonneg(1 + eps())
# tower elements: Rat leaves over Q, RatFunc leaves over sqrt(1 + eps), and
# Rat leaves over sqrt(1 + eps)
_TOWER = {
    "rat-d1": Q(1, 2) - 3 * _R2,
    "rat-d2": Q(1, 3) + _R2 * Q(2, 5) - _R3 + _R2 * _R3 * 7,
    "eps-d1": eps() + (1 - eps()) * _S,
    "eps-d2": eps() + eps() * _S + (1 + eps()) * _R2 + eps() * _S * _R2,
    "rat-over-eps-d1": 1 + 2 * _S,
}
_BASE = [Q(3, 4), Q(-2), 5, Fraction(-7, 3), eps(), Q(0)]
_REP_OPS = {
    operator.add: lambda x, y, T, d: field._radd(x, y, d),
    operator.sub: lambda x, y, T, d: field._rsub(x, y, d),
    operator.mul: field._rmul,
    operator.truediv: field._rdiv,
}


def _leaves(rep, depth) -> list:
    if depth == 0:
        return [rep]
    return _leaves(rep[0], depth - 1) + _leaves(rep[1], depth - 1)


def _rep(x):
    """The rep of a tower element; a base value is its own."""
    return x.rep if isinstance(x, FieldElement) else x


def _lifted(v, tower):
    """v's rep over `tower`: a base value lifted to (v, 0, ...)."""
    if isinstance(v, FieldElement):
        return v.rep
    return field._rlift(v if isinstance(v, RatFunc) else Rat(v), 0,
                        len(tower))


class TestScalarPath:
    """A base value against a tower element scales or shifts the tower
    element's leaves; it is never lifted into the tower."""

    @pytest.mark.parametrize("op", list(_REP_OPS), ids=lambda op: op.__name__)
    @pytest.mark.parametrize("x", list(_TOWER.values()), ids=list(_TOWER))
    def test_rep_matches_lift_path(self, x, op):
        for q, swap in itertools.product(_BASE, (False, True)):
            a, b = (q, x) if swap else (x, q)
            if op is operator.truediv and not swap and q == 0:
                continue  # test_edge_cases
            T = x.tower
            xa, xb = _lifted(a, T), _lifted(b, T)
            want = FieldElement(T, _REP_OPS[op](xa, xb, T, len(T)))
            want = want._normalized()
            got = op(a, b)
            assert got.tower == want.tower
            assert _rep(got) == _rep(want)
            assert render_element(got) == render_element(want)
            # the kinds agree, except that lifting a base value over an eps
            # radicand turns Rat leaves into constant RatFuncs of equal value
            for g, w in zip(_leaves(_rep(got), len(got.tower)),
                            _leaves(_rep(want), len(want.tower))):
                assert type(g) is type(w) or (type(g) is Rat
                                              and type(w) is RatFunc)
            if op is operator.mul and q == 0:
                assert got.tower == ()

    @pytest.mark.parametrize("x", list(_TOWER.values()), ids=list(_TOWER))
    def test_edge_cases(self, x):
        for zero in (Q(0), 0):
            with pytest.raises(ZeroDivisionError,
                               match="field division by zero"):
                x / zero
        with pytest.raises(TypeError):
            x * 0.5
        with pytest.raises(TypeError):
            0.5 * x

    @pytest.mark.parametrize("q", [Q(3, 4), 5, eps()], ids=["3/4", "int",
                                                             "eps"])
    def test_no_lift(self, q, monkeypatch):
        # a depth-2 x against a base value: no _align, and no tower product
        x = _TOWER["eps-d2" if q is eps() else "rat-d2"]
        aligned, products = [], []
        align, rmul = FieldElement._align, field._rmul

        def counted_align(a, b):
            aligned.append((a, b))
            return align(a, b)

        def counted_rmul(x, y, rads, depth):
            if depth:
                products.append(depth)
            return rmul(x, y, rads, depth)

        monkeypatch.setattr(FieldElement, "_align", staticmethod(counted_align))
        monkeypatch.setattr(field, "_rmul", counted_rmul)
        for f in (lambda: x * q, lambda: q * x, lambda: x + q,
                  lambda: x - q, lambda: q - x, lambda: x / q):
            assert f().depth == 2
        assert aligned == [] and products == []
        # q/x scales the leaves of 1/x: no _align either
        assert q / x == q * (1 / x) and aligned == []


_ORDERED = {  # operands of a tower element's ordering, by kind
    "other tower": _R3 - Q(3, 2), "Rat": Q(-1, 3), "int": 2,
    "RatFunc": 1 - eps(),
}
# each operator and its mirror: x op y iff y mirror x
_MIRROR = {operator.lt: operator.gt, operator.le: operator.ge,
           operator.gt: operator.lt, operator.ge: operator.le}


class TestOrdering:
    """<, <=, > and >= of a tower element, and their reflections, agree
    with the sign of the difference."""

    @pytest.mark.parametrize("y", list(_ORDERED.values()), ids=list(_ORDERED))
    @pytest.mark.parametrize("x", list(_TOWER.values()), ids=list(_TOWER))
    def test_operators_follow_the_sign(self, x, y):
        s = (x - y).sign()
        for op, holds in ((operator.lt, s < 0), (operator.le, s <= 0),
                          (operator.gt, s > 0), (operator.ge, s >= 0)):
            assert op(x, y) is holds
            assert _MIRROR[op](y, x) is holds  # y's side, reflected to x
        assert (x < x, x <= x, x > x, x >= x) == (False, True, False, True)

    @pytest.mark.parametrize("x", list(_TOWER.values()), ids=list(_TOWER))
    def test_float_refused(self, x):
        for op in _MIRROR:
            with pytest.raises(TypeError):
                op(x, 0.5)
            with pytest.raises(TypeError):
                op(0.5, x)


# depth-1 elements over Q, kept as (A, B, D): rational leaves over an
# integer or a fractional radicand, against ints, Rats and elements over the
# same radicand
_FORM_ROOTS = st.sampled_from([
    sqrt_nonneg(Q(r))
    for r in (2, 3, Fraction(1, 2), Fraction(5, 6), Fraction(12, 7))])
_FORM_LEAVES = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@st.composite
def _form_operands(draw):
    """(x, y): x over Q(sqrt r) with a nonzero sqrt part, y an element over
    the same sqrt r (its sqrt part perhaps 0, so y may be a Rat), a Rat or
    an int."""
    root = draw(_FORM_ROOTS)

    def element(b=_FORM_LEAVES):
        return Q(draw(_FORM_LEAVES)) + Q(draw(b)) * root

    x = element(_FORM_LEAVES.filter(bool))
    y = draw(st.sampled_from(["element", "rat", "int"]))
    if y == "element":
        return x, element()
    return x, Q(draw(_FORM_LEAVES)) if y == "rat" else draw(
        st.integers(-9, 9))


def _plain(v):
    """v rebuilt from its nested pairs: with `_abd_of` switched off, it keeps
    no integer form."""
    return FieldElement(v.tower, v.rep) if isinstance(v, FieldElement) else v


class TestDepthOneForm:
    """A depth-1 element over Q is kept as ints (A, B, D) for
    (A + B*sqrt(R))/D, R = r_n*r_d; its results equal those of the
    nested-pair path."""

    @staticmethod
    def _check_form(v):
        if not isinstance(v, FieldElement):
            assert type(v) is Rat  # B = 0: the Rat A/D
            return
        A, B, D = v._abd
        assert D > 0 and B != 0 and math.gcd(A, B, D) == 1
        r = v.tower[0]
        assert field.int_form(v) == (r.n * r.d, (A, B), D)
        # the view, built on read: sqrt(r) = sqrt(R)/r_d
        assert v.rep == (Rat(A, D), Rat(B * r.d, D))

    @given(xy=_form_operands())
    @settings(max_examples=150, deadline=None)
    def test_results_keep_the_canonical_form(self, xy):
        x, y = xy
        self._check_form(x)
        self._check_form(-x)
        for op, (a, b) in itertools.product(_OPS.values(), (xy, xy[::-1])):
            if op is operator.truediv and not b:
                continue
            self._check_form(op(a, b))

    @given(xy=_form_operands())
    @settings(max_examples=150, deadline=None)
    def test_every_op_agrees_with_the_nested_pair_path(self, xy):
        x, y = xy
        answers = []
        for switched_off in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                if switched_off:
                    patch.setattr(field, "_abd_of", lambda tower, rep: None)
                    x, y = _plain(x), _plain(y)
                    assert field.int_form(x) is None
                out = [render_element(-x), x.sign(), x == y, y == x,
                       x.valuation()]
                for op, (a, b) in itertools.product(_OPS.values(),
                                                    ((x, y), (y, x))):
                    try:
                        v = op(a, b)
                    except ZeroDivisionError as err:
                        out.append(str(err))
                        continue
                    out += [type(v), render_element(v), v.sign(), v == x]
                answers.append(out)
        assert answers[0] == answers[1]

    def test_a_leaf_kind_of_rat_value_is_no_form(self):
        # eps cancelled from a leaf leaves a constant RatFunc: no form, and
        # such an element still equals the one kept as a form
        r = sqrt_nonneg(Q(2))
        x = (eps() + r) - eps()
        assert type(x.rep[0]) is RatFunc and field.int_form(x) is None
        assert x == r and r == x and x - r == 0 and (x * r).tower == ()

    @given(tree=_eps_free_trees())
    @settings(max_examples=80, deadline=None)
    def test_eps_free_valuation_skips_the_norm_recursion(self, tree):
        x = _evaluate(tree, Q)
        assume(isinstance(x, FieldElement))
        want = field._rval(x.rep, x.tower, x.depth)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(field, "_rval", None)  # a call would raise
            assert x.valuation() == want == 0


def _form_value(R, lanes, D):
    """The value that `int_form`'s (R, lanes, D) stands for, computed in
    the field from R alone."""
    if type(R) is tuple:
        R1, (P, Q2) = R
        root1 = sqrt_nonneg(Q(R1))
        root2 = sqrt_nonneg(P + Q2 * root1)
        c0, c1, c2, c3 = lanes
        return (c0 + c1 * root1 + (c2 + c3 * root1) * root2) / D
    A, B = lanes
    return (A + B * sqrt_nonneg(Q(R))) / D


class TestIntForm:
    """`int_form` gives (R, lanes, D) for eps-free elements of depth 1 and
    2 with Rat leaves, and None for any other value."""

    @given(tree=_eps_free_trees())
    @settings(max_examples=150, deadline=None)
    @example(tree=("+", Fraction(1), ("*", Fraction(2), _root(Fraction(1, 2)))))
    @example(tree=("-", ("+", Fraction(1), ("*", Fraction(3), _root(2))),
                   ("*", Fraction(1, 2), ("sqrt", ("+", Fraction(1),
                                                   _root(2))))))
    def test_form_evaluates_back(self, tree):
        x = _evaluate(tree, Q)
        f = field.int_form(x)
        if not isinstance(x, FieldElement) or x.depth > 2:
            assert f is None
            return
        R, lanes, D = f
        assert D > 0 and math.gcd(*lanes, D) == 1
        assert len(lanes) == 2 * x.depth
        assert (type(R) is tuple) is (x.depth == 2)
        assert _form_value(R, lanes, D) == x

    @pytest.mark.parametrize("make, depth", [
        (lambda: eps(), 0),
        (lambda: Q(3, 4), 0),
        (lambda: sqrt_nonneg(1 + eps()), 1),
        (lambda: sqrt_nonneg(Q(2)) + eps(), 1),
        (lambda: sqrt_nonneg(1 + eps()) * sqrt_nonneg(Q(2)), 2),
        (lambda: (eps() + sqrt_nonneg(Q(2))) - eps(), 1),
        (lambda: (eps() + sqrt_nonneg(1 + sqrt_nonneg(Q(2)))) - eps(), 2),
        (lambda: sqrt_nonneg(Q(2)) + sqrt_nonneg(Q(3)) + sqrt_nonneg(Q(5)),
         3),
    ], ids=["eps", "rat", "eps-radicand", "eps-leaf", "eps-depth-2",
            "constant-ratfunc", "constant-ratfunc-depth-2", "depth-3"])
    def test_no_form(self, make, depth):
        x = make()
        assert getattr(x, "depth", 0) == depth
        assert field.int_form(x) is None


class TestFromIntForm:
    """`from_int_form` builds the value that a form stands for over a given
    tower: `int_form` reads the form back in lowest terms, and a value that
    lies lower in the tower drops there."""

    TOWERS = [(), sqrt_nonneg(Q(2)).tower, sqrt_nonneg(Q(3, 2)).tower,
              sqrt_nonneg(1 + sqrt_nonneg(Q(2))).tower,
              sqrt_nonneg(Q(1, 3) + Q(2, 5) * sqrt_nonneg(Q(3, 2))).tower]

    @given(tower=st.sampled_from(TOWERS),
           lanes=st.lists(st.integers(-10 ** 6, 10 ** 6) | st.just(0),
                          min_size=4, max_size=4),
           D=st.integers(-10 ** 4, 10 ** 4).filter(bool),
           scale=st.integers(1, 60))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, tower, lanes, D, scale):
        n = 2 * max(len(tower), 1)
        lanes = tuple(c * scale for c in lanes[:n])
        if not tower:
            lanes = (lanes[0], 0)
        D *= scale
        x = field.from_int_form(tower, lanes, D)
        g = math.gcd(*lanes, D) * (1 if D > 0 else -1)
        low, E = tuple(c // g for c in lanes), D // g
        if not tower:
            assert type(x) is Rat and x == Q(lanes[0], D)
            return
        if any(low[n // 2:]):  # the top radicand's lanes
            R, got, F = field.int_form(x)
            assert (got, F) == (low, E) and x.tower == tower
            assert _form_value(R, got, F) == x
        else:
            assert getattr(x, "depth", 0) < len(tower)
            assert x == field.from_int_form(tower[:-1], low[:n // 2], E)


def _is_value(v) -> bool:
    """v is a leaf, or a FieldElement of depth >= 1 whose top node is
    nonzero (normalized)."""
    if isinstance(v, FieldElement):
        return bool(v.tower) and not field._ris_zero(v.rep[1], v.depth - 1)
    return type(v) in (Rat, RatFunc)


class TestLeaves:
    """A base value is its bare leaf: no result is a FieldElement without a
    tower, and zero is always a leaf."""

    @given(tree=_TREES, n=st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_every_result_is_a_leaf_or_has_a_tower(self, tree, n):
        assume(_sqrt_count(tree) <= 1)
        try:
            x = _evaluate(tree, Q)
        except (ZeroDivisionError, Negative):
            return
        values = [Q(n, 3), eps(), x, -x, x ** n, x - x]
        for y in (2, Fraction(-1, 3), Q(5), eps(), _R2, _S, x):
            for op in _OPS.values():
                for a, b in ((x, y), (y, x)):
                    try:
                        values.append(op(a, b))
                    except ZeroDivisionError:
                        assert b == 0
        for v in (x, -x):
            if v.sign() >= 0:
                values.append(sqrt_nonneg(v))
            if v.sign() > 0:
                values.append(inv_positive(v))
        assert all(_is_value(v) for v in values)

    @pytest.mark.parametrize("x", [Q(3), eps()] + list(_TOWER.values()),
                             ids=["rational", "eps"] + list(_TOWER))
    def test_zero_is_a_leaf_without_valuation(self, x):
        for zero in (x - x, x * 0, 0 * x, sqrt_nonneg(x - x)):
            assert type(zero) in (Rat, RatFunc) and zero.is_zero()
            with pytest.raises(ValueError):
                zero.valuation()

    def test_leaves_are_ordered(self):
        # eps is positive and below every positive rational, as it was
        # while base values were wrapped
        e, tiny = eps(), Q(1, 10 ** 9)
        assert 0 < e < tiny and -e < 0 and e <= e >= e
        assert e < 1 + e and 1 + e > 1 and e * e < e
        assert tiny > e and not tiny < e
        assert e < _R2 and _R2 > e and -_R2 < e

    @pytest.mark.parametrize("leaf", [Q(2), eps()], ids=["rat", "eps"])
    def test_unsupported_operand_names_the_operator(self, leaf):
        for op, sym in ((operator.sub, "-"), (operator.truediv, "/")):
            for a, b in (("x", leaf), (leaf, "x"), (None, leaf)):
                with pytest.raises(TypeError, match=f"for {sym}:"):
                    op(a, b)

    def test_sqrt_of_a_leaf_checks_the_depth(self, monkeypatch):
        monkeypatch.setattr(field, "MAX_TOWER_DEPTH", 0)
        for q in (Q(2), eps(), 1 + eps()):
            with pytest.raises(TowerTooDeep):
                sqrt_nonneg(q)
        # a root inside the base field makes no node
        assert sqrt_nonneg(Q(9, 4)) == Q(3, 2)
        assert sqrt_nonneg(eps() * eps()) == eps()


class TestSqrtIn:
    """`_sqrt_in` halves by scaling leaves, not by a lifted 1/2."""

    @pytest.mark.parametrize("root", [
        1 + _R2 + Q(2, 3) * _R3 + _R2 * _R3, _TOWER["eps-d2"],
        _TOWER["rat-d2"]], ids=["rat-d2-found", "eps-d2", "rat-d2"])
    def test_half_scales_leaves(self, root, monkeypatch):
        x = root * root
        products, rmul = [], field._rmul

        def counted_rmul(a, b, rads, depth):
            if depth:
                products.append(depth)
            return rmul(a, b, rads, depth)

        monkeypatch.setattr(field, "_rmul", counted_rmul)
        got = field._sqrt_in(x.tower, x.rep, x.depth)
        scaled = len(products)
        # the former path: a product with 1/2 lifted into the tower
        monkeypatch.setattr(field, "_rscale", lambda t, q, d: counted_rmul(
            t, field._rlift(q, 0, d), x.tower, d))
        products.clear()
        want = field._sqrt_in(x.tower, x.rep, x.depth)
        assert scaled < len(products)
        assert FieldElement(x.tower, got) in (root, -root)
        for g, w in zip(_leaves(got, x.depth), _leaves(want, x.depth)):
            assert g == w
            assert type(g) is type(w) or (type(g) is Rat
                                          and type(w) is RatFunc)


class TestQ:
    @pytest.mark.parametrize("n", [-6, -1, 0, 1, 4, 2**70])
    @pytest.mark.parametrize("d", [-4, -1, 1, 3, 6, -(2**65)])
    def test_ints_match_fraction(self, n, d):
        got, want = Q(n, d), Q(Fraction(n, d))
        assert got.tower == () and type(got) is Rat
        assert (got.n, got.d) == (want.n, want.d)
        assert type(got.n) is int and type(got.d) is int

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Q(1, 0)
        with pytest.raises(ZeroDivisionError):
            Q(0, 0)

    @pytest.mark.parametrize("args, n, d", [
        ((True,), 1, 1), ((False,), 0, 1), ((True, 2), 1, 2), ((3, True), 3, 1),
        ((Rat(3, 4),), 3, 4), ((Rat(3, 4), 2), 3, 8), ((Rat(3, 4), -3), -1, 4),
        ((Fraction(-6, 4),), -3, 2), ((Fraction(3, 4), Fraction(1, 2)), 3, 2),
    ], ids=["true", "false", "true-over-2", "over-true", "rat", "rat-over-2",
            "rat-over-minus-3", "fraction", "fraction-over-fraction"])
    def test_other_types(self, args, n, d):
        got = Q(*args)
        assert got.tower == () and type(got) is Rat
        assert (got.n, got.d) == (n, d)


class TestRenderParse:
    def test_roundtrip_rational(self):
        for x in (Q(0), Q(-7, 3), Q(22)):
            assert parse_element(render_element(x)) == x

    def test_roundtrip_tower(self):
        x = (Q(1, 2) + sqrt_nonneg(Q(3)) * Q(5, 7)) * sqrt_nonneg(Q(2)) - Q(9)
        assert parse_element(render_element(x)) == x

    def test_parse_expressions(self):
        assert parse_element("1/2 + sqrt(2)") == Q(1, 2) + sqrt_nonneg(Q(2))
        assert parse_element("(1+2)*3") == Q(9)
        assert parse_element("2^10") == Q(1024)
        assert parse_element(f"2^{MAX_EXPONENT}") == Q(2 ** MAX_EXPONENT)

    def test_roundtrip_nonarch(self):
        x = eps() + Q(Fraction(1, 3))
        assert parse_element(render_element(x), mode="nonarchimedean") == x

    def test_eps_outside_nonarch_mode(self):
        with pytest.raises(DomainViolation):
            parse_element("eps")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="nonarch"):
            parse_element("1", mode="nonarch")

    @pytest.mark.parametrize("text, column", [
        ("1+", 3), ("1 2", 3), ("2^100000000", 3),
        pytest.param("1" * 5000, 1, id="5000-digit-literal"),
        pytest.param("2^" + "1" * 5000, 3, id="5000-digit-exponent"),
    ])
    def test_syntax_errors_carry_position(self, text, column):
        with pytest.raises(ScriptSyntaxError) as err:
            parse_element(text)
        assert (err.value.line, err.value.column) == (1, column)


class TestNonArchimedean:
    def test_eps_smaller_than_rationals(self):
        e = eps()
        assert e.sign() > 0
        assert (Q(Fraction(1, 10 ** 9)) - e).sign() > 0

    def test_valuation_basics(self):
        e = eps()
        assert e.valuation() == 1
        assert (e * e).valuation() == 2
        assert (Q(1) / e).valuation() == -1
        assert Q(Fraction(5, 3)).valuation() == 0

    def test_valuation_of_roots(self):
        e = eps()
        assert sqrt_nonneg(e).valuation() == Fraction(1, 2)
        assert sqrt_nonneg(Q(1) / e).valuation() == Fraction(-1, 2)

    def test_valuation_with_cancellation(self):
        # sqrt(4 + eps) - 2 = eps/4 + O(eps^2): the leading terms cancel
        e = eps()
        x = sqrt_nonneg(Q(4) + e) - Q(2)
        assert x.sign() > 0
        assert x.valuation() == 1
        assert (sqrt_nonneg(Q(2) + e) - sqrt_nonneg(Q(2))).valuation() == 1
        # sqrt(1 + eps) = 1 + eps/2 - eps^2/8 + ...
        assert (sqrt_nonneg(Q(1) + e) - 1 - e / 2).valuation() == 2
        # eps^(3/2) * (sqrt(1 + eps) - 1) = eps^(5/2)/2 + ...
        x = sqrt_nonneg(e ** 3 + e ** 4) - e * sqrt_nonneg(e)
        assert x.depth == 2
        assert x.valuation() == Fraction(5, 2)
        x = sqrt_nonneg(Q(3)) - sqrt_nonneg(Q(2))  # eps-free, depth 2
        assert x.depth == 2
        assert x.valuation() == 0

    @given(tree=_TREES, c=st.fractions(min_value=1, max_value=4,
                                       max_denominator=4))
    @settings(max_examples=60, deadline=None)
    def test_valuation_oracle(self, tree, c):
        # v(x) = K / 2^d  <=>  eps^(2K+1) <= y^2 < eps^(2K-1) for the
        # element y = x^(2^d), whose valuation K is an integer.  Checked on
        # the tree and on sqrt(eps^2*(c^2 + tree*eps)) - c*eps, whose leading
        # terms cancel; one sqrt in the tree keeps y at depth 2 at most
        assume(_sqrt_count(tree) <= 1)
        radicand = ("*", ("*", "eps", "eps"), ("+", c * c, ("*", tree, "eps")))
        cancelling = ("-", ("sqrt", radicand), ("*", c, "eps"))
        for t in (tree, cancelling):
            try:
                x = _evaluate(t, Q)
            except (ZeroDivisionError, Negative):
                continue
            if x.is_zero():  # zero is a leaf, and has no valuation
                with pytest.raises(ValueError):
                    x.valuation()
                continue
            v, depth = x.valuation(), len(x.tower)
            k = v * 2 ** depth
            assert k.denominator == 1
            y2 = x ** 2 ** (depth + 1)
            below = RatFunc.eps_power(2 * int(k) - 1)
            above = RatFunc.eps_power(2 * int(k) + 1)
            assert (y2 - below).sign() < 0
            assert (y2 - above).sign() >= 0

    def test_tower_over_eps(self):
        e = eps()
        r = sqrt_nonneg(Q(2) + e)
        assert r * r == Q(2) + e
        assert (r - Q(1)).sign() > 0

    def test_shadow_approx(self):
        e = eps()
        v = approx(sqrt_nonneg(Q(2) + e))
        assert abs(v - 2 ** 0.5) < 1e-12
        with pytest.raises(ValueError):
            approx(Q(1) / e)
