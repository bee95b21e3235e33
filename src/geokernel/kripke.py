"""Two-node Kripke countermodel over a non-Archimedean field.

The full field F is the quadratic-extension tower over the rational
functions in a positive infinitesimal eps (pure rational functions lack
square roots, so the tower supplies the EF5 witnesses).  The root node M0
has domain F0, the finitely bounded part of F, and reads P(x) as
"positive and not infinitesimal"; the top node M1 is classical F.  With
forcing defined the standard way — not-phi forced at a node iff phi is
forced nowhere above it — every EF axiom is forced at the root, while
Markov's principle fails there with witness eps: not-not-P(eps) is forced
but P(eps) is not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .field import (
    DomainViolation, FieldElement, Q, eps, render_element, sqrt_nonneg,
)

M0 = "M0"
M1 = "M1"


class TermUndefined(Exception):
    pass


@dataclass(frozen=True)
class NAClass:
    sign: int
    infinitesimal: bool
    finitely_bounded: bool


def na_classify(x: FieldElement) -> NAClass:
    s = x.sign()
    if s == 0:
        return NAClass(0, False, True)
    v = x.valuation()
    return NAClass(s, v > 0, v >= 0)


def node0_positive(x: FieldElement) -> bool:
    c = na_classify(x)
    return c.sign > 0 and not c.infinitesimal


def in_domain(node: str, x: FieldElement) -> bool:
    if node == M1:
        return True
    return na_classify(x).finitely_bounded


# -- terms -------------------------------------------------------------------

@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TConst:
    value: FieldElement


@dataclass(frozen=True)
class TOp:
    op: str  # add | mul | inv | sqrt
    args: tuple


def tadd(a, b):
    return TOp("add", (a, b))


def tmul(a, b):
    return TOp("mul", (a, b))


def tconst(q) -> TConst:
    return TConst(Q(q))


def teval(term, env: dict) -> FieldElement:
    if isinstance(term, TVar):
        return env[term.name]
    if isinstance(term, TConst):
        return term.value
    a = [teval(t, env) for t in term.args]
    if term.op == "add":
        return a[0] + a[1]
    if term.op == "mul":
        return a[0] * a[1]
    if term.op == "inv":
        if a[0].is_zero():
            raise TermUndefined("1/0")
        return 1 / a[0]
    if term.op == "sqrt":
        if a[0].sign() < 0:
            raise TermUndefined("sqrt of negative")
        return sqrt_nonneg(a[0])
    raise ValueError(f"unknown term op {term.op!r}")


# -- formulas ----------------------------------------------------------------

@dataclass(frozen=True)
class FP:
    term: object


@dataclass(frozen=True)
class FEq:
    left: object
    right: object


@dataclass(frozen=True)
class FAnd:
    a: object
    b: object


@dataclass(frozen=True)
class FImplies:
    a: object
    b: object


@dataclass(frozen=True)
class FNot:
    a: object


@dataclass(frozen=True)
class FExists:
    var: str
    witness: object  # Skolem witness term
    body: object


def forces(node: str, phi, env: dict, _checked: bool = False) -> bool:
    """Kripke forcing on the two-node frame M0 <= M1."""
    if not _checked:
        for v in env.values():
            if not in_domain(node, v):
                raise DomainViolation(f"environment value {render_element(v)} "
                                      f"outside the domain of {node}")
    if isinstance(phi, FP):
        x = teval(phi.term, env)
        return x.sign() > 0 if node == M1 else node0_positive(x)
    if isinstance(phi, FEq):
        return teval(phi.left, env) == teval(phi.right, env)
    if isinstance(phi, FAnd):
        return (forces(node, phi.a, env, True)
                and forces(node, phi.b, env, True))
    if isinstance(phi, FImplies):
        if node == M1:
            return (not forces(M1, phi.a, env, True)
                    or forces(M1, phi.b, env, True))
        ok0 = (not forces(M0, phi.a, env, True)
               or forces(M0, phi.b, env, True))
        return ok0 and forces(M1, phi, env, True)
    if isinstance(phi, FNot):
        if node == M1:
            return not forces(M1, phi.a, env, True)
        return (not forces(M0, phi.a, env, True)
                and not forces(M1, phi.a, env, True))
    if isinstance(phi, FExists):
        try:
            w = teval(phi.witness, env)
        except TermUndefined:
            return False
        if not in_domain(node, w):
            return False
        return forces(node, phi.body, {**env, phi.var: w}, True)
    raise ValueError(f"unknown formula node {phi!r}")


# -- the EF axioms (Skolemized) ----------------------------------------------

X, Y = TVar("x"), TVar("y")
ZERO_T, ONE_T = tconst(0), tconst(1)

EF_AXIOMS: dict[str, object] = {
    # stability of equality and 0 != 1
    "EF0": FAnd(FImplies(FNot(FNot(FEq(X, Y))), FEq(X, Y)),
                FNot(FEq(ZERO_T, ONE_T))),
    # positive elements have positive inverses; witness 1/x
    "EF1": FImplies(FP(X),
                    FExists("y", TOp("inv", (X,)),
                            FAnd(FEq(tmul(X, TVar("y")), ONE_T),
                                 FP(TVar("y"))))),
    "EF2": FImplies(FAnd(FP(X), FP(Y)),
                    FAnd(FP(tadd(X, Y)), FP(tmul(X, Y)))),
    "EF3": FImplies(FEq(tadd(X, Y), ZERO_T),
                    FNot(FAnd(FP(X), FP(Y)))),
    "EF4": FImplies(FAnd(FEq(tadd(X, Y), ZERO_T),
                         FAnd(FNot(FP(X)), FNot(FP(Y)))),
                    FEq(X, ZERO_T)),
    # non-negative elements have square roots; witness sqrt(x)
    "EF5": FImplies(FAnd(FEq(tadd(X, Y), ZERO_T), FNot(FP(Y))),
                    FExists("z", TOp("sqrt", (X,)),
                            FEq(tmul(TVar("z"), TVar("z")), X))),
}

MP = FImplies(FNot(FNot(FP(X))), FP(X))


# -- sampled verification ----------------------------------------------------

def _sample_element(rng: random.Random) -> tuple[FieldElement, str]:
    """A finitely bounded probe: rational constants, infinitesimals of
    several orders, and mixed sums/ratios."""
    def q(lo=-8, hi=8):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 6))

    kind = rng.randrange(6)
    e = eps()
    if kind == 0:
        v = Q(q())
    elif kind == 1:
        v = Q(q()) * e ** rng.randint(1, 3)  # infinitesimal
    elif kind == 2:
        v = Q(q()) + Q(q()) * e  # constant plus infinitesimal
    elif kind == 3:
        num = Q(q()) + Q(q()) * e
        den = Q(Fraction(rng.randint(1, 6))) + Q(q()) * e
        v = num / den
    elif kind == 4:
        v = Q(0)
    else:
        v = Q(q()) * e * e
    return v, render_element(v)


def _unbounded_probe(rng: random.Random) -> tuple[FieldElement, str]:
    k = rng.randint(1, 2)
    c = Fraction(rng.randint(1, 5))
    v = Q(c) / eps() ** k
    return v, render_element(v)


def check_ef_axioms(samples: int = 200, seed: int = 0) -> dict:
    """Force every EF axiom at the root on sampled environments.

    Environments mix rational, infinitesimal and mixed probes; a slice of
    unbounded probes checks that M0 rejects them (DomainViolation) while
    M1 still satisfies the axiom classically."""
    rng = random.Random(seed)
    entries = []
    failures = 0
    for i in range(samples):
        unbounded = (i % 10 == 9)
        if unbounded:
            xv, xs = _unbounded_probe(rng)
        else:
            xv, xs = _sample_element(rng)
        # exercise the EF3-EF5 antecedents half the time with y = -x
        if rng.randrange(2):
            yv, ys = -xv, f"-({xs})"
        else:
            yv, ys = _sample_element(rng)
        env = {"x": xv, "y": yv}
        for name, ax in EF_AXIOMS.items():
            if unbounded:
                try:
                    forces(M0, ax, env)
                    verdict = "unexpected-domain-acceptance"
                except DomainViolation:
                    verdict = ("domain-rejected"
                               if forces(M1, ax, env) else "M1-failure")
            else:
                verdict = "forced" if forces(M0, ax, env) else "not-forced"
            ok = verdict in ("forced", "domain-rejected")
            if not ok:
                failures += 1
            entries.append({"axiom": name, "instance": i, "node": M0,
                            "env": {"x": xs, "y": ys}, "verdict": verdict})
    return {"samples": samples, "seed": seed, "failures": failures,
            "entries": entries}


def mp_counterexample() -> dict:
    """The root does not force Markov's principle: witness eps."""
    e = eps()
    env = {"x": e}
    notnot = forces(M0, FNot(FNot(FP(X))), env)
    p0 = forces(M0, FP(X), env)
    p1 = forces(M1, FP(X), env)
    sanity_env = {"x": Q(1)}
    return {
        "witness": "eps",
        "notnot_P_forced_at_M0": notnot,
        "P_forced_at_M0": p0,
        "P_forced_at_M1": p1,
        "MP_forced_at_M0": forces(M0, MP, env),
        "sanity_P_of_1_at_M0": forces(M0, FP(X), sanity_env),
    }
