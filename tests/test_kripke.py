"""The two-node forcing model: EF axioms hold at the root, MP does not."""

import hashlib
import json
import operator
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from geokernel.audit import report_to_json
from geokernel import field, geometry, kripke
from geokernel.field import (
    Negative, Q, TowerTooDeep, eps, render_element, sqrt_nonneg,
)
from geokernel.geometry import NODE0, NODE1, in_domain, positive
from geokernel.kripke import (
    EF_AXIOMS, MP, M0, M1, DomainViolation, FAnd, FEq, FExists, FImplies,
    FNot, FP, TConst, TOp, TVar, check_ef_axioms, forces, mp_counterexample,
    na_classify, tadd, tconst, tmul,
)
from geokernel.nafield import RatFunc

X = TVar("x")


def test_kripke_does_not_import_dsl():
    # dsl imports kripke's terms, never the other way: the benchmark sets
    # up these six layers, and importing dsl with them cost ~21 ms of
    # set-up (its 14 frozen dataclasses and token regex) when measured
    layers = ("nafield", "field", "geometry", "constructions", "audit",
              "kripke")
    code = ("import importlib, sys\n"
            f"for m in {layers!r}:\n"
            "    importlib.import_module('geokernel.' + m)\n"
            "print('geokernel.dsl' in sys.modules)")
    src = Path(field.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def _probe_grid():
    """{0} and +-{eps, eps^2, 1, 1+eps, 1/eps, sqrt(eps), sqrt(1+eps)-1,
    sqrt(2)}, each paired with whether it is finitely bounded."""
    e = eps()
    base = [(e, True), (e * e, True), (Q(1), True), (Q(1) + e, True),
            (Q(1) / e, False), (sqrt_nonneg(e), True),
            (sqrt_nonneg(Q(1) + e) - 1, True), (sqrt_nonneg(Q(2)), True)]
    return [(Q(0), True)] + base + [(-v, bounded) for v, bounded in base]


class TestClassify:
    def test_rational(self):
        c = na_classify(Q(Fraction(3, 2)))
        assert (c.sign, c.infinitesimal, c.finitely_bounded) == (1, False,
                                                                True)

    def test_infinitesimal(self):
        c = na_classify(eps())
        assert c.sign == 1 and c.infinitesimal and c.finitely_bounded

    def test_unbounded(self):
        c = na_classify(Q(1) / eps())
        assert not c.finitely_bounded

    def test_zero(self):
        c = na_classify(Q(0))
        assert c.sign == 0 and c.finitely_bounded


class TestForcing:
    def test_p_is_node_relative(self):
        env = {"x": eps()}
        assert not forces(M0, FP(X), env)
        assert forces(M1, FP(X), env)

    def test_not_checks_both_nodes(self):
        # P(eps) fails at M0 but holds at M1, so not-P(eps) is not forced
        env = {"x": eps()}
        assert not forces(M0, FNot(FP(X)), env)
        assert forces(M0, FNot(FNot(FP(X))), env)

    def test_monotonicity_on_samples(self):
        # anything forced at the root stays forced above
        for v in (Q(2), eps(), Q(0), Q(-3) + eps()):
            env = {"x": v, "y": -v}
            for phi in EF_AXIOMS.values():
                if forces(M0, phi, env):
                    assert forces(M1, phi, env)

    def test_p_is_the_predicate_semantics(self):
        # the nodes are geometry's NonArchimedean tags, P is read at each by
        # geometry.positive, and the domain by geometry.in_domain beside it
        assert M0 is NODE0 and M1 is NODE1
        assert kripke.in_domain is geometry.in_domain
        for v, bounded in _probe_grid():
            assert geometry.in_domain(M0, v) == bounded
            assert na_classify(v).finitely_bounded == bounded
            assert geometry.in_domain(M1, v)
            if bounded:
                for node in (M0, M1):
                    assert forces(node, FP(X), {"x": v}) == positive(v, node)

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            forces(M0, FP(X), {"x": Q(1) / eps()})
        assert forces(M1, FP(X), {"x": Q(1) / eps()})

    def test_exists_witness_must_be_bounded(self):
        # 1/x escapes the root domain when x is infinitesimal, so the
        # inverse axiom is only vacuously forced there (P(eps) fails first)
        phi = FExists("y", TOp("/", (tconst(1), X)), FEq(TVar("y"), TVar("y")))
        assert not forces(M0, phi, {"x": eps()})
        assert forces(M1, phi, {"x": eps()})

    @pytest.mark.parametrize("witness, x", [
        (TOp("/", (tconst(1), X)), 0),
        (TOp("sqrt", (X,)), -1),
    ])
    def test_undefined_witness_not_forced(self, witness, x):
        # 1/0 and sqrt(-1) raise the field's own errors, which FExists
        # reads as "no witness"
        phi = FExists("y", witness, FEq(TVar("y"), TVar("y")))
        for node in (M0, M1):
            assert not forces(node, phi, {"x": Q(x)})

    def test_exists_lets_other_field_errors_through(self, monkeypatch):
        monkeypatch.setattr(field, "MAX_TOWER_DEPTH", 0)
        phi = FExists("z", TOp("sqrt", (X,)), FEq(TVar("z"), TVar("z")))
        with pytest.raises(TowerTooDeep):
            forces(M0, phi, {"x": Q(2)})


class TestEFAxioms:
    def test_stability_with_infinitesimal_difference(self):
        # x and y differing by eps: not-not-(x=y) fails at M1, so EF0 holds
        env = {"x": Q(1), "y": Q(1) + eps()}
        assert forces(M0, EF_AXIOMS["EF0"], env)

    def test_ef5_square_root_witness(self):
        env = {"x": Q(4) + eps(), "y": -(Q(4) + eps())}
        assert forces(M0, EF_AXIOMS["EF5"], env)

    def test_ef1_inverse_witness(self):
        env = {"x": Q(Fraction(2, 3)), "y": Q(0)}
        assert forces(M0, EF_AXIOMS["EF1"], env)

    def test_probe_grid(self):
        grid = _probe_grid()
        for x, x_bounded in grid:
            for y, y_bounded in grid:
                env = {"x": x, "y": y}
                for name, ax in EF_AXIOMS.items():
                    if x_bounded and y_bounded:
                        assert forces(M0, ax, env), (name, env)
                        continue
                    with pytest.raises(DomainViolation):
                        forces(M0, ax, env)
                    assert forces(M1, ax, env), (name, env)

    def test_sampled_report(self):
        rep = check_ef_axioms(samples=40, seed=3)
        assert rep["failures"] == 0
        verdicts = {e["verdict"] for e in rep["entries"]}
        assert verdicts == {"forced", "domain-rejected"}
        report_to_json(rep)  # serializable

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="samples must be >= 0"):
            check_ef_axioms(samples=-5)

    def test_golden_digests(self):
        # pins every verdict and rendered probe of the report and the
        # Markov counterexample
        def digest(obj):
            return hashlib.sha256(
                json.dumps(obj, sort_keys=True).encode()).hexdigest()

        assert digest(check_ef_axioms(200, 0)) == (
            "4b41bcc23b39ac7d65fa21538aab78853f1dbedf1567519a07c42d330a72be95")
        assert digest(mp_counterexample()) == (
            "589e843ea46757d5bea96f87877a9eb13145f84a6a4ce916a035abb31d945ce4")

    def test_deterministic(self):
        a = check_ef_axioms(samples=20, seed=5)
        b = check_ef_axioms(samples=20, seed=5)
        assert report_to_json(a) == report_to_json(b)


class TestMP:
    def test_counterexample(self):
        d = mp_counterexample()
        assert d["notnot_P_forced_at_M0"]
        assert not d["P_forced_at_M0"]
        assert d["P_forced_at_M1"]
        assert not d["MP_forced_at_M0"]
        assert d["sanity_P_of_1_at_M0"]

    def test_mp_forced_above(self):
        assert forces(M1, MP, {"x": eps()})


# -- memoized forcing against the plain recursion -----------------------------

_REF_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv, "neg": operator.neg, "sqrt": sqrt_nonneg}


def _ref_teval(term, env):
    if isinstance(term, TVar):
        return env[term.name]
    if isinstance(term, TConst):
        return term.value
    if term.op == "^":
        return _ref_teval(term.args[0], env) ** term.args[1]
    fn = _REF_OPS.get(term.op)
    if fn is None:
        raise ValueError(f"unknown term op {term.op!r}")
    return fn(*[_ref_teval(t, env) for t in term.args])


def _ref_forces(node, phi, env):
    """Forcing as a plain per-node recursion that keeps nothing."""
    for v in env.values():
        if not in_domain(node, v):
            raise DomainViolation(f"environment value {render_element(v)} "
                                  f"outside the domain of {node}")
    return _ref_forces_at(node, phi, env)


def _ref_forces_at(node, phi, env):
    if isinstance(phi, FP):
        return positive(_ref_teval(phi.term, env), node)
    if isinstance(phi, FEq):
        return _ref_teval(phi.left, env) == _ref_teval(phi.right, env)
    if isinstance(phi, FAnd):
        return (_ref_forces_at(node, phi.a, env)
                and _ref_forces_at(node, phi.b, env))
    if isinstance(phi, FImplies):
        if node == M1:
            return (not _ref_forces_at(M1, phi.a, env)
                    or _ref_forces_at(M1, phi.b, env))
        ok0 = (not _ref_forces_at(M0, phi.a, env)
               or _ref_forces_at(M0, phi.b, env))
        return ok0 and _ref_forces_at(M1, phi, env)
    if isinstance(phi, FNot):
        if node == M1:
            return not _ref_forces_at(M1, phi.a, env)
        return (not _ref_forces_at(M0, phi.a, env)
                and not _ref_forces_at(M1, phi.a, env))
    if isinstance(phi, FExists):
        try:
            w = _ref_teval(phi.witness, env)
        except (ZeroDivisionError, Negative):
            return False
        if not in_domain(node, w):
            return False
        return _ref_forces_at(node, phi.body, {**env, phi.var: w})
    raise ValueError(f"unknown formula node {phi!r}")


def _outcome(fn, *args, **kwargs):
    """The bool `fn` returns, or the type of what it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as err:
        return type(err)


_GRID = _probe_grid()
_VARS = ("x", "y")


@st.composite
def _formula_dags(draw):
    """A list of formulas over x and y whose terms and subformulas are
    drawn from pools, so one object often recurs within and across them
    (what the memo shares) and a quantifier may rebind x or y (where it
    must not share)."""
    terms = [TVar(v) for v in _VARS] + [
        tconst(q) for q in draw(st.lists(
            st.sampled_from((0, 1, 2, -1, Fraction(1, 2))), min_size=1,
            max_size=2))]
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("+", "-", "*", "/", "neg", "sqrt", "^")))
        a = draw(st.sampled_from(terms))
        if op in ("neg", "sqrt"):
            terms.append(TOp(op, (a,)))
        elif op == "^":
            terms.append(TOp(op, (a, draw(st.integers(0, 3)))))
        else:
            terms.append(TOp(op, (a, draw(st.sampled_from(terms)))))
    term = st.sampled_from(terms)
    formulas = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            formulas.append(FP(draw(term)))
        else:
            formulas.append(FEq(draw(term), draw(term)))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from((FAnd, FImplies, FNot, FExists)))
        a = draw(st.sampled_from(formulas))
        if kind is FNot:
            formulas.append(FNot(a))
        elif kind is FExists:
            formulas.append(FExists(draw(st.sampled_from(_VARS)), draw(term),
                                    a))
        else:
            formulas.append(kind(a, draw(st.sampled_from(formulas))))
    return formulas


class TestMemoOracle:
    """`forces` with its per-environment memo against the plain recursion,
    on random formulas whose parts recur, at both nodes and over bounded
    and unbounded probes: the same bool, or the same exception type."""

    @given(formulas=_formula_dags(), x=st.sampled_from(_GRID),
           y=st.sampled_from(_GRID))
    @settings(max_examples=400, deadline=None)
    def test_matches_unmemoized_forcing(self, formulas, x, y):
        env = {"x": x[0], "y": y[0]}
        shared = {}  # one memo for every call in env, as a sample uses
        for phi in formulas:
            for node in (M0, M1):
                want = _outcome(_ref_forces, node, phi, env)
                assert _outcome(forces, node, phi, env) == want, (node, phi)
                assert _outcome(forces, node, phi, env,
                                memo=shared) == want, (node, phi)

    @given(formulas=_formula_dags(), x=st.sampled_from(_GRID),
           y=st.sampled_from(_GRID))
    @settings(max_examples=200, deadline=None)
    def test_persistence(self, formulas, x, y):
        # whatever the root forces stays forced at the top node
        env = {"x": x[0], "y": y[0]}
        memo = {}
        for phi in formulas:
            if _outcome(forces, M0, phi, env, memo=memo) is True:
                assert forces(M1, phi, env, memo=memo) is True, phi

    def test_ef_axioms_unchanged(self):
        # sharing subformulas by name changes no axiom: each equals, and
        # prints as, a fresh build of the literal table
        X, Y, ZERO_T, ONE_T = TVar("x"), TVar("y"), tconst(0), tconst(1)
        fresh = {
            "EF0": FAnd(FImplies(FNot(FNot(FEq(X, Y))), FEq(X, Y)),
                        FNot(FEq(ZERO_T, ONE_T))),
            "EF1": FImplies(FP(X),
                            FExists("y", TOp("/", (ONE_T, X)),
                                    FAnd(FEq(tmul(X, TVar("y")), ONE_T),
                                         FP(TVar("y"))))),
            "EF2": FImplies(FAnd(FP(X), FP(Y)),
                            FAnd(FP(tadd(X, Y)), FP(tmul(X, Y)))),
            "EF3": FImplies(FEq(tadd(X, Y), ZERO_T),
                            FNot(FAnd(FP(X), FP(Y)))),
            "EF4": FImplies(FAnd(FEq(tadd(X, Y), ZERO_T),
                                 FAnd(FNot(FP(X)), FNot(FP(Y)))),
                            FEq(X, ZERO_T)),
            "EF5": FImplies(FAnd(FEq(tadd(X, Y), ZERO_T), FNot(FP(Y))),
                            FExists("z", TOp("sqrt", (X,)),
                                    FEq(tmul(TVar("z"), TVar("z")), X))),
        }
        assert list(EF_AXIOMS) == list(fresh)
        for name, ax in EF_AXIOMS.items():
            assert ax == fresh[name] and repr(ax) == repr(fresh[name])

    def test_memo_outlives_no_formula(self):
        # a caller's memo holds each formula it decided, so a formula built
        # later cannot take a freed one's id and read its verdict
        env, memo = {"x": eps()}, {}
        for _ in range(20):
            inner = FNot(FP(X))
            assert not forces(M0, FP(X), env, memo=memo)
            assert forces(M0, FNot(inner), env, memo=memo)


class TestForcingBudget:
    """Work done by check_ef_axioms(20, 111): each term and subformula is
    decided once per sample and node."""

    def test_op_applications(self, monkeypatch):
        applied = []
        for name, fn in kripke._OPS.items():
            def counted(*args, _fn=fn, _name=name):
                applied.append(_name)
                return _fn(*args)
            monkeypatch.setitem(kripke._OPS, name, counted)
        check_ef_axioms(20, 111)
        # 150 before the per-sample memo, 49 while an existential's body
        # was forced with a fresh memo at each node
        assert len(applied) == 42

    def test_positive_calls(self, monkeypatch):
        calls = []
        real = kripke.positive

        def counted(x, node):
            calls.append(node)
            return real(x, node)

        monkeypatch.setattr(kripke, "positive", counted)
        check_ef_axioms(20, 111)
        assert len(calls) == 73  # 198 before the per-sample memo

    def test_each_equation_decided_once(self, monkeypatch):
        # an FEq reads no node, so a verdict at either node serves both:
        # per memo (one env) each FEq is compared once
        decided, memos = [], []
        real = kripke._forces

        def counted(node, phi, env, memo):
            if type(phi) is FEq and (id(phi), node) not in memo:
                memos.append(memo)  # kept alive, so its id is not reused
                decided.append((id(memo), id(phi)))
            return real(node, phi, env, memo)

        monkeypatch.setattr(kripke, "_forces", counted)
        check_ef_axioms(20, 111)
        assert decided and len(set(decided)) == len(decided)

    def test_equality_calls(self, monkeypatch):
        calls = []
        for cls in (RatFunc, field.FieldElement):
            def counted(a, b, _eq=cls.__eq__):
                calls.append(type(a))
                return _eq(a, b)
            monkeypatch.setattr(cls, "__eq__", counted)
        check_ef_axioms(20, 111)
        assert len(calls) == 38  # 68 while an FEq was compared per node


class TestBenchmarkBoundary:
    """What the benchmark reads from check_ef_axioms: perfbench's sample
    marks come from the one EF_AXIOMS.items() per sample, and its tracer
    counts forcing calls and times evaluation at the module-level
    kripke.forces and kripke.teval."""

    def test_one_axiom_walk_and_six_forcings_per_sample(self, monkeypatch):
        events = []

        class Marked(dict):
            def items(self):
                events.append("i")
                return super().items()

        def noted(fn, mark):
            def call(*args, **kwargs):
                events.append(mark)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(kripke, "EF_AXIOMS", Marked(EF_AXIOMS))
        for name in ("_sample_element", "_unbounded_probe"):
            monkeypatch.setattr(kripke, name, noted(getattr(kripke, name),
                                                    "d"))
        monkeypatch.setattr(kripke, "forces", noted(kripke.forces, "f"))
        samples = 20
        check_ef_axioms(samples, 111)
        trail = "".join(events)
        walks = re.findall(r"(d+)i(f*)", trail)
        assert "".join(f"{d}i{f}" for d, f in walks) == trail
        assert len(walks) == samples
        for i, (draws, forced) in enumerate(walks):
            assert len(draws) in (1, 2)
            assert len(forced) == (12 if i % 10 == 9 else 6), i

    def test_evaluates_through_module_teval(self, monkeypatch):
        calls = []
        real = kripke.teval

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(kripke, "teval", counted)
        rep = check_ef_axioms(20, 111)
        assert rep["failures"] == 0
        assert any(isinstance(t, TOp) for t in calls)
        # nested operands are evaluated through the module name too
        assert any(t is kripke.X for t in calls)
