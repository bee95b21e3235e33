"""The two-node forcing model: EF axioms hold at the root, MP does not."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from geokernel.audit import report_to_json
from geokernel import field, geometry, kripke
from geokernel.field import Q, TowerTooDeep, eps, sqrt_nonneg
from geokernel.geometry import NODE0, NODE1, positive
from geokernel.kripke import (
    EF_AXIOMS, MP, M0, M1, DomainViolation, FEq, FExists, FNot, FP, TOp,
    TVar, check_ef_axioms, forces, mp_counterexample, na_classify, tconst,
)

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
