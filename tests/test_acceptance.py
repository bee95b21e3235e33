"""Acceptance gate: one test (and one printed pass/fail line) per
criterion, all exact — zero numerical tolerance anywhere."""

import glob
import os
import random
import time
from fractions import Fraction

import pytest

from geokernel.audit import (
    AXIOM_IDS, THEOREM_NAMES, audit_run, check_theorem, gen_theorem_instance,
)
from geokernel.constructions import (
    ConstructionError, euclid5, inner_pasch, midpoint_gupta,
    named_angle_tiling,
)
from geokernel.field import Q, eps
from geokernel.geometry import NODE0, NODE1, Point, between, midpoint, pt
from geokernel.arithmetic import axis, check_homomorphism
from geokernel.kripke import check_ef_axioms, mp_counterexample
from geokernel.dsl import parse_script, run_script
from geokernel.svg import render_svg
from test_dsl import pretty_print, structural_signature

FIGURES = os.path.join(os.path.dirname(__file__), "..", "figures")


def _report(n: int, text: str):
    print(f"criterion {n}: PASS — {text}")


def _rand_q(rng):
    return Fraction(rng.randint(-2 ** 16, 2 ** 16),
                    rng.randint(1, 2 ** 10))


def test_criterion_1_axiom_audit():
    t0 = time.perf_counter()
    report = audit_run(mode="constructible", per_axiom=1000, seed=42,
                       include_theorems=False)
    elapsed = time.perf_counter() - t0
    assert set(report["summary"]) == set(AXIOM_IDS)
    assert report["failures"] == 0, report["entries"][:3]
    assert elapsed < 60, f"audit took {elapsed:.1f}s"
    _report(1, f"audit --samples 1000 --seed 42: zero failures across "
               f"{len(AXIOM_IDS)} axioms in {elapsed:.1f}s")


def test_criterion_2_kripke_mp_independence():
    demo = mp_counterexample()
    assert demo["witness"] == "eps"
    assert demo["notnot_P_forced_at_M0"]
    assert not demo["P_forced_at_M0"]
    assert not demo["MP_forced_at_M0"]
    report = check_ef_axioms(samples=200, seed=0)
    assert report["failures"] == 0
    verdicts = [e["verdict"] for e in report["entries"]]
    assert verdicts.count("domain-rejected") > 0  # unbounded probes ran
    assert any("eps" in e["env"]["x"] for e in report["entries"])
    _report(2, "MP fails at the root with witness eps; EF0-EF5 forced on "
               "200 sampled environments incl. infinitesimal and unbounded "
               "probes")


def test_criterion_3_gupta_midpoint():
    rng = random.Random(303)
    done = 0
    while done < 100:
        a = pt(_rand_q(rng), _rand_q(rng))
        b = pt(_rand_q(rng), _rand_q(rng))
        if a == b:
            continue
        assert midpoint_gupta(a, b) == midpoint(a, b)
        done += 1
    _report(3, "midpoint_gupta equals the analytic midpoint on 100 "
               "random segments, componentwise exactly")


def test_criterion_4_arithmetic_homomorphism():
    rng = random.Random(404)
    # forced sign coverage, then random values
    pairs = [(Fraction(s1) * abs(_rand_q(rng)) + 0,
              Fraction(s2) * abs(_rand_q(rng)) + 0)
             for s1 in (-1, 0, 1) for s2 in (-1, 0, 1)]
    while len(pairs) < 100:
        pairs.append((_rand_q(rng), _rand_q(rng)))
    for qa, qb in pairs:
        assert check_homomorphism(Q(qa), Q(qb)), (qa, qb)
    _report(4, "geo_add/geo_mul/geo_inv/geo_sqrt agree exactly with the "
               "field operations on 100 pairs covering all sign "
               "combinations, one uniform construction path")


def test_criterion_5_pasch_guard_vs_markov():
    a, c = Point(Q(0), Q(0)), Point(Q(2), Q(0))
    b = Point(Q(1), eps())   # apex (1, eps)
    p = Point(Q(1), Q(0))
    q = midpoint(b, c)
    with pytest.raises(ConstructionError) as ei:
        inner_pasch(a, p, c, b, q, NODE0)
    assert ei.value.kind == "AngleNotPositive"
    x = inner_pasch(a, p, c, b, q, NODE1)
    assert between(p, x, b, NODE1) and between(a, x, q, NODE1)
    _report(5, "inner Pasch with apex (1, eps): guard-refused at node 0, "
               "classically true at node 1")


def test_criterion_6_euclid5_worked_instance():
    e = euclid5(pt(0, 0), pt(0, 1), pt(0, -1), pt(-1, 0), pt(1, 0),
                pt(Fraction(1, 2), Fraction(-1, 2)))
    assert e == pt(1, -2)
    _report(6, "Euclid 5 worked instance reproduces e = (1, -2) exactly")


def test_criterion_7_tiling_witnesses():
    rng = random.Random(707)
    done = 0
    while done < 50:
        a = pt(_rand_q(rng), _rand_q(rng))
        b = pt(_rand_q(rng), _rand_q(rng))
        if a == b:
            continue
        t120 = named_angle_tiling("deg120", a, b)
        assert between(t120["a"], t120["x"], t120["g"])
        t150 = named_angle_tiling("deg150", a, b)
        assert between(t150["a"], t150["c"], t150["e"])
        done += 1
    _report(7, "deg120 and deg150 tilings verify B(a,x,g) and B(a,c,e) "
               "on 50 random segments")


def test_criterion_8_theorem_suite():
    for name in THEOREM_NAMES:
        for idx in range(50):
            inst = gen_theorem_instance(name, idx * 101 + 8)
            res = check_theorem(name, inst)
            assert res["verdict"] == "pass", (name, idx, res)
    _report(8, f"all {len(THEOREM_NAMES)} named theorem checks pass on 50 "
               "instances each, exactly")


def test_criterion_9_dsl_roundtrip_and_figures():
    files = sorted(glob.glob(os.path.join(FIGURES, "*.geo")))
    assert len(files) >= 10
    rendered = 0
    for f in files:
        with open(f) as fh:
            script = parse_script(fh.read())
        assert parse_script(pretty_print(script)) == script, f
        ref = os.path.join(FIGURES, "refs",
                           os.path.basename(f)[:-4] + ".svg")
        if not os.path.exists(ref):
            continue
        env = run_script(script)
        assert not env.failed, (f, env.errors)
        with open(ref) as fh:
            assert structural_signature(render_svg(env)) == \
                structural_signature(fh.read()), f
        rendered += 1
    assert rendered >= 10
    _report(9, f"parse/pretty-print identity on {len(files)} scripts; "
               f"{rendered} rendered figures match stored references "
               "structurally")
