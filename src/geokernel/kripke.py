"""Two-node Kripke countermodel over a non-Archimedean field.

The full field F is the quadratic-extension tower over the rational
functions in a positive infinitesimal eps (pure rational functions lack
square roots, so the tower supplies the EF5 witnesses).  The root node M0
has domain F0, the finitely bounded part of F; the top node M1 is
classical F.  The nodes are the NonArchimedean semantics tags of
`geometry` (M0 is NODE0, M1 is NODE1).  P is read at a node by
`geometry.positive`, at M0 as "positive and not infinitesimal", and the
domain by `geometry.in_domain`, beside it.
With forcing defined the standard way — not-phi forced at a node iff phi
is forced nowhere above it — every EF axiom is forced at the root, while
Markov's principle fails there with witness eps: not-not-P(eps) is forced
but P(eps) is not.

The terms `TVar`/`TConst`/`TOp` are the kernel's one term language: the
construction-script parser (`dsl`) builds its coordinates from them, and
`teval` is the one evaluator of both.  A division by zero or the square
root of a negative raises the field's own `ZeroDivisionError` or
`Negative`; an existential whose witness raises either is not forced.

Forcing is a pure function of (node, formula, env), so it is memoized per
environment: a memo keeps each `TOp` value under the term's id and each
verdict under (formula id, node), and never keeps an exception.  It also
keeps, under the node, the env's first value outside that node's domain
(or None), so the domain is checked once per node, and an existential's
body memo, whose env is the same at both nodes.  A memo lives for one
`forces` call, or for one sample of `check_ef_axioms`, whose six axioms
build their shared parts (`PX`, `PY`, `SUM`, `SUM0`) once, so each is
decided once per node and sample.  There is no module-level cache.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from .field import (
    DomainViolation, FieldElement, Negative, Q, eps, render_element,
    sqrt_nonneg,
)
from .geometry import NODE0 as M0, NODE1 as M1, in_domain, positive


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
    return positive(x, M0)


# -- terms -------------------------------------------------------------------

@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TConst:
    value: FieldElement


@dataclass(frozen=True)
class TOp:
    op: str  # + - * / ^ neg sqrt; the "^" exponent args[1] is an int
    args: tuple


def tadd(a, b):
    return TOp("+", (a, b))


def tmul(a, b):
    return TOp("*", (a, b))


def tconst(q) -> TConst:
    return TConst(Q(q))


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "neg": operator.neg, "sqrt": sqrt_nonneg}


def teval(term, env: dict, memo: dict | None = None) -> FieldElement:
    """The value of `term` in `env`.  A `memo` belongs to this `env` and
    keeps each `TOp` value under the term's id; an exception is never
    kept, so a term that raises raises again when asked again."""
    kind = type(term)
    if kind is TVar:
        return env[term.name]
    if kind is TConst:
        return term.value
    if memo is not None:
        value = memo.get(id(term))
        if value is not None:
            return value
    if term.op == "^":
        value = teval(term.args[0], env, memo) ** term.args[1]
    else:
        fn = _OPS.get(term.op)
        if fn is None:
            raise ValueError(f"unknown term op {term.op!r}")
        value = fn(*[teval(t, env, memo) for t in term.args])
    if memo is not None:
        memo[id(term)] = value
    return value


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


def forces(node: str, phi, env: dict, *, memo: dict | None = None) -> bool:
    """Kripke forcing on the two-node frame M0 <= M1; every value of `env`
    must lie in the domain of `node`.  Verdicts and term values are kept
    for the call, or in `memo`, which a caller forcing several formulas
    in one `env` may pass to share them: it belongs to that `env` alone,
    and keeps under `node` the first value outside its domain, or None."""
    if memo is None:
        memo = {}
    else:
        # keys are ids: holding phi keeps it, and so every key under it,
        # from being freed and its id reused while the memo lives
        memo[id(phi), None] = phi
    if node not in memo:
        memo[node] = next(
            (v for v in env.values() if not in_domain(node, v)), None)
    bad = memo[node]
    if bad is not None:
        raise DomainViolation(f"environment value {render_element(bad)} "
                              f"outside the domain of {node}")
    return _forces(node, phi, env, memo)


def _forces(node: str, phi, env: dict, memo: dict) -> bool:
    key = (id(phi), node)
    verdict = memo.get(key)
    if verdict is not None:
        return verdict
    kind = type(phi)
    if kind is FP:
        verdict = positive(teval(phi.term, env, memo), node)
    elif kind is FEq:
        verdict = teval(phi.left, env, memo) == teval(phi.right, env, memo)
    elif kind is FAnd:
        verdict = (_forces(node, phi.a, env, memo)
                   and _forces(node, phi.b, env, memo))
    elif kind is FImplies:
        verdict = (not _forces(node, phi.a, env, memo)
                   or _forces(node, phi.b, env, memo))
        if node != M1:
            verdict = verdict and _forces(M1, phi, env, memo)
    elif kind is FNot:
        verdict = not _forces(node, phi.a, env, memo)
        if node != M1:
            verdict = verdict and not _forces(M1, phi.a, env, memo)
    elif kind is FExists:
        try:
            w = teval(phi.witness, env, memo)
        except (ZeroDivisionError, Negative):
            verdict = False
        else:  # the body's env is a new one, so it gets its own memo,
            # kept in this one: w, and so that env, is the same at each node
            verdict = in_domain(node, w) and _forces(
                node, phi.body, {**env, phi.var: w},
                memo.setdefault((id(phi), FExists), {}))
    else:
        raise ValueError(f"unknown formula node {phi!r}")
    memo[key] = verdict
    return verdict


# -- the EF axioms (Skolemized) ----------------------------------------------

X, Y = TVar("x"), TVar("y")
ZERO_T, ONE_T = tconst(0), tconst(1)
# parts the axioms share are built once, so one sample's memo decides
# each of them once per node
PX, PY = FP(X), FP(Y)
SUM = tadd(X, Y)
SUM0 = FEq(SUM, ZERO_T)

EF_AXIOMS: dict[str, object] = {
    # stability of equality and 0 != 1
    "EF0": FAnd(FImplies(FNot(FNot(FEq(X, Y))), FEq(X, Y)),
                FNot(FEq(ZERO_T, ONE_T))),
    # positive elements have positive inverses; witness 1/x
    "EF1": FImplies(PX,
                    FExists("y", TOp("/", (ONE_T, X)),
                            FAnd(FEq(tmul(X, TVar("y")), ONE_T),
                                 FP(TVar("y"))))),
    "EF2": FImplies(FAnd(PX, PY), FAnd(FP(SUM), FP(tmul(X, Y)))),
    "EF3": FImplies(SUM0, FNot(FAnd(PX, PY))),
    "EF4": FImplies(FAnd(SUM0, FAnd(FNot(PX), FNot(PY))), FEq(X, ZERO_T)),
    # non-negative elements have square roots; witness sqrt(x)
    "EF5": FImplies(FAnd(SUM0, FNot(PY)),
                    FExists("z", TOp("sqrt", (X,)),
                            FEq(tmul(TVar("z"), TVar("z")), X))),
}

MP = FImplies(FNot(FNot(FP(X))), FP(X))


# -- sampled verification ----------------------------------------------------

def _sample_element(rng: random.Random) -> tuple[FieldElement, str]:
    """A finitely bounded probe: rational constants, infinitesimals of
    several orders, and mixed sums/ratios."""
    def q(lo=-8, hi=8):
        return Q(rng.randint(lo, hi), rng.randint(1, 6))

    kind = rng.randrange(6)
    e = eps()
    if kind == 0:
        v = q()
    elif kind == 1:
        v = q() * e ** rng.randint(1, 3)  # infinitesimal
    elif kind == 2:
        v = q() + q() * e  # constant plus infinitesimal
    elif kind == 3:
        num = q() + q() * e
        den = Q(rng.randint(1, 6)) + q() * e
        v = num / den
    elif kind == 4:
        v = Q(0)
    else:
        v = q() * e * e
    return v, render_element(v)


def _unbounded_probe(rng: random.Random) -> tuple[FieldElement, str]:
    k = rng.randint(1, 2)
    v = Q(rng.randint(1, 5)) / eps() ** k
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
        memo: dict = {}  # this sample's: shared by its six axioms
        for name, ax in EF_AXIOMS.items():
            if unbounded:
                try:
                    forces(M0, ax, env, memo=memo)
                    verdict = "unexpected-domain-acceptance"
                except DomainViolation:
                    verdict = ("domain-rejected"
                               if forces(M1, ax, env, memo=memo)
                               else "M1-failure")
            else:
                verdict = ("forced" if forces(M0, ax, env, memo=memo)
                           else "not-forced")
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
