"""Exact arithmetic in towers of quadratic extensions over Q(eps).

The field is a tower F(sqrt(r1))(sqrt(r2))... over F = Q(eps), the
rational functions in a positive infinitesimal ``eps``.  A value of F, a
base value, is a bare leaf: a `Rat` (nafield's one rational type; an int
or a `Fraction` becomes one where it enters) until ``eps`` enters its
computation, then a `RatFunc`.  The two kinds mix freely because Q is a
subfield of Q(eps), and both answer the same leaf interface (`sign`,
`valuation`, `sqrt_exact`, `shadow`, `is_zero`, `**`, `tower == ()`), so
no code here asks which kind a leaf is.  `Q`, `eps` and every operation
whose result lies in F return the leaf itself.

A FieldElement is a value of tower depth k >= 1.  Representation: a
depth-k element is a nested pair tree (its "rep") whose leaves are base
values; the pair (a, b) at level i denotes a + b*sqrt(r_i).  A tower is
the tuple of its radicand reps: tower[i] is r_{i+1}, a rep of depth i
over tower[:i].  An element is kept normalized, b != 0 at its top level;
a result whose top levels vanish drops them, and is a leaf once none is
left.  So zero is always a leaf, and a FieldElement never equals a base
value.  Base values hash like the equal `Fraction`; a FieldElement
refuses `hash`.

A base value q never enters a tower as a lifted rep (q, 0, ...): against
a tower element x, x*q, x/q and q/x scale the leaves of x or of 1/x, and
x + q, x - q and q - x shift only the constant leaf.

A depth-1 element whose radicand r = r_n/r_d and leaves are `Rat`s is
kept as ints (A, B, D) for (A + B*sqrt(R))/D over the integer radicand R
= r_n*r_d, so that sqrt(r) = sqrt(R)/r_d; gcd(A, B, D) = 1 and D > 0 (a
`Poly`'s z/m one level up), and its `rep` is a view built on first read.
Against an int, a `Rat` or an element over the same tower, `+ - * /` are
int formulas reduced once by one gcd; `sign` compares A^2 with B^2*R.
Other elements keep only the rep.  `int_form` is the one reader of these
forms outside this module, and builds the depth-2 form from them;
`from_int_form`, its inverse, is the one writer: it builds values of
depth 0, 1 or 2 from such forms over a given tower and one denominator.

Every operation is exact.  `<` is the sign of the difference, and
`total_ordering` derives `<=`, `>` and `>=` from it and `==`.  The sign of
a + b*sqrt(r) follows from the signs of a and b and a comparison of a^2
with b^2*r.  A new sqrt node is created only after the radicand is checked
positive and not already a square in the tower (attempted by solving
c^2 = r recursively), so zero-testing is structural, and the norm
a^2 - b^2*r of a + b*sqrt(r) is nonzero unless a and b both are.

The eps-adic valuation is 0 at once when no leaf and no radicand is a
`RatFunc`: a nonzero element over Q has valuation 0.  Otherwise it
recurses the same way.  v(b*sqrt(r)) is
v(b) + v(r)/2; if v(a) and v(b*sqrt(r)) differ, the smaller wins; if they
are equal and a, b have one sign, it is v(a); otherwise the leading terms
cancel, and since the conjugate a - b*sqrt(r) has no cancellation,
v(a + b*sqrt(r)) = v(a^2 - b^2*r) - v(a).
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd, lcm
from operator import add, mul, sub, truediv

from .nafield import (EPS, ONE, ZERO, FieldError, Rat, RatFunc, _new, _power,
                      _ratio, as_rat, refuse_float)

# Most sqrt nodes a tower may hold.  A sign or a root search costs about
# five times as much with each level of depth; the audit needs depth 2 and
# the figures depth 1.
MAX_TOWER_DEPTH = 6

# ---------------------------------------------------------------------------
# errors


class NotPositive(FieldError):
    """inv_positive called on an element that is not strictly positive."""


class Negative(FieldError):
    """sqrt_nonneg called on a strictly negative element."""


class TowerTooDeep(FieldError):
    """A new sqrt node would take a tower past MAX_TOWER_DEPTH."""


class DomainViolation(Exception):
    """A value outside the active domain: eps in a constructible script, or
    an element outside a Kripke node's domain."""


# ---------------------------------------------------------------------------
# rep-level arithmetic; a rep of depth 0 is a base value, of depth k a pair


def _rzero(depth):
    if depth == 0:
        return ZERO
    z = _rzero(depth - 1)
    return (z, z)


def _rlift(rep, fromdepth, todepth):
    for d in range(fromdepth, todepth):
        rep = (rep, _rzero(d))
    return rep


def _radd(x, y, depth):
    if depth == 0:
        return x + y
    return (_radd(x[0], y[0], depth - 1), _radd(x[1], y[1], depth - 1))


def _rneg(x, depth):
    if depth == 0:
        return -x
    return (_rneg(x[0], depth - 1), _rneg(x[1], depth - 1))


def _rsub(x, y, depth):
    if depth == 0:
        return x - y
    return (_rsub(x[0], y[0], depth - 1), _rsub(x[1], y[1], depth - 1))


def _rshift(x, q, depth):
    """x + q for a base value q: only the constant leaf moves."""
    if depth == 0:
        return x + q
    return (_rshift(x[0], q, depth - 1), x[1])


def _rscale(x, q, depth):
    """x * q for a base value q: every leaf is scaled."""
    if depth == 0:
        return x * q
    return (_rscale(x[0], q, depth - 1), _rscale(x[1], q, depth - 1))


def _rmul(x, y, rads, depth):
    if depth == 0:
        return x * y
    a, b = x
    c, d = y
    r = rads[depth - 1]
    ac = _rmul(a, c, rads, depth - 1)
    bd = _rmul(b, d, rads, depth - 1)
    ad = _rmul(a, d, rads, depth - 1)
    bc = _rmul(b, c, rads, depth - 1)
    return (_radd(ac, _rmul(bd, r, rads, depth - 1), depth - 1),
            _radd(ad, bc, depth - 1))


def _ris_zero(x, depth) -> bool:
    if depth == 0:
        return not x
    return _ris_zero(x[0], depth - 1) and _ris_zero(x[1], depth - 1)


def _rnorm(x, rads, depth):
    """a^2 - b^2*r for x = (a, b) = a + b*sqrt(r): x times its conjugate."""
    a, b = x
    d = depth - 1
    return _rsub(_rmul(a, a, rads, d),
                 _rmul(_rmul(b, b, rads, d), rads[d], rads, d), d)


def _rsign(x, rads, depth) -> int:
    if depth == 0:
        return x.sign()
    a, b = x
    sb = _rsign(b, rads, depth - 1)
    if sb == 0:
        return _rsign(a, rads, depth - 1)
    sa = _rsign(a, rads, depth - 1)
    if sa == 0 or sa == sb:
        return sb if sa == 0 else sa
    # a and b*sqrt(r) pull in opposite directions: compare a^2 with b^2*r
    c = _rsign(_rnorm(x, rads, depth), rads, depth - 1)
    if c == 0:
        return 0
    return sa if c > 0 else sb


def _rval(x, rads, depth) -> Rat:
    """eps-adic valuation of a nonzero rep (the rule in the module doc)."""
    if depth == 0:
        return x.valuation()
    a, b = x
    if _ris_zero(b, depth - 1):
        return _rval(a, rads, depth - 1)
    vb = (_rval(b, rads, depth - 1)
          + _rval(rads[depth - 1], rads, depth - 1) / 2)  # v(sqrt(r))
    if _ris_zero(a, depth - 1):
        return vb
    va = _rval(a, rads, depth - 1)
    if va != vb or _rsign(a, rads, depth - 1) == _rsign(b, rads, depth - 1):
        return min(va, vb)
    return _rval(_rnorm(x, rads, depth), rads, depth - 1) - va


def _rinv(x, rads, depth):
    if depth == 0:
        return 1 / x
    a, b = x
    dinv = _rinv(_rnorm(x, rads, depth), rads, depth - 1)
    return (_rmul(a, dinv, rads, depth - 1),
            _rneg(_rmul(b, dinv, rads, depth - 1), depth - 1))


def _rdiv(x, y, rads, depth):
    return _rmul(x, _rinv(y, rads, depth), rads, depth)


_HALF = Rat(1, 2)


def _sqrt_in(rads, x, depth):
    """Square root of rep x inside the tower, or None if none exists there."""
    if depth == 0:
        return x.sqrt_exact()
    a, b = x
    if _ris_zero(b, depth - 1):
        s = _sqrt_in(rads, a, depth - 1)
        if s is not None:
            return (s, _rzero(depth - 1))
        # maybe sqrt(a) = d*sqrt(r) with d^2 = a/r
        r = rads[depth - 1]
        q = _rdiv(a, r, rads, depth - 1)
        d = _sqrt_in(rads, q, depth - 1)
        if d is not None:
            return (_rzero(depth - 1), d)
        return None
    # want (c + d*sqrt(r))^2 = a + b*sqrt(r):
    #   c^2 + d^2 r = a, 2cd = b  =>  c^2 = (a +- sqrt(a^2 - b^2 r)) / 2
    s = _sqrt_in(rads, _rnorm(x, rads, depth), depth - 1)
    if s is None:
        return None
    for t in (_radd(a, s, depth - 1), _rsub(a, s, depth - 1)):
        c2 = _rscale(t, _HALF, depth - 1)
        c = _sqrt_in(rads, c2, depth - 1)
        if c is not None and not _ris_zero(c, depth - 1):
            twoc_inv = _rinv(_radd(c, c, depth - 1), rads, depth - 1)
            d = _rmul(b, twoc_inv, rads, depth - 1)
            cand = (c, d)
            if _ris_zero(_rsub(_rmul(cand, cand, rads, depth), x, depth), depth):
                return cand
    return None


# op -> (op on two reps of depth d over tower T, x op q) for a rep x of
# depth d >= 1 and a base value q
_OPS = {
    add: (lambda x, y, T, d: _radd(x, y, d), _rshift),
    sub: (lambda x, y, T, d: _rsub(x, y, d),
          lambda x, q, d: _rshift(x, -q, d)),
    mul: (_rmul, _rscale),
    truediv: (_rdiv, lambda x, q, d: _rscale(x, ONE / q, d)),
}


def _base(x):
    """x as a base value: a leaf, or the Rat of an int or a Fraction; else
    None."""
    return x if type(x) is RatFunc else as_rat(x)


# -- depth 1 over Q: (A + B*sqrt(R))/D in ints (see the module doc) -----------

def _abd_of(tower, rep):
    """The form (A, B, D) of rep over a depth-1 tower whose radicand and
    leaves are Rats; None for any other element."""
    if len(tower) != 1:
        return None
    (a, b), r = rep, tower[0]
    if not type(a) is type(b) is type(r) is Rat:
        return None
    bd = b.d * r.d  # b*sqrt(r) = b/r_d*sqrt(R)
    D = lcm(a.d, bd)
    A, B = a.n * (D // a.d), b.n * (D // bd)
    g = gcd(A, B, D)  # a factor of r_d in b_n cancels
    return (A, B, D) if g == 1 else (A // g, B // g, D // g)


def _abd_value(tower, A, B, D):
    """(A + B*sqrt(R))/D over tower (r,), in lowest terms with D > 0: the
    Rat A/D when B is 0."""
    if not B:
        return _ratio(A, D)
    if D < 0:
        A, B, D = -A, -B, -D
    g = gcd(A, B, D)
    if g != 1:
        A, B, D = A // g, B // g, D // g
    x = _new(FieldElement)
    x.tower, x._rep, x._abd = tower, None, (A, B, D)
    return x


def _abd_op(x, other, op):
    """x op other for x kept as (A, B, D), by int formulas and one gcd; None
    unless other is an int, a Rat or an element kept over x's tower."""
    (A, B, D), tower = x._abd, x.tower
    kind = type(other)
    if kind is Rat or kind is int:  # q = n/d scales or shifts x
        n, d = (other.n, other.d) if kind is Rat else (other, 1)
        if op is add or op is sub:
            return _abd_value(tower, A * d + (n if op is add else -n) * D,
                              B * d, D * d)
        if op is mul:
            return _abd_value(tower, A * n, B * n, D * d)
        if not n:
            raise ZeroDivisionError("field division by zero")
        return _abd_value(tower, A * d, B * d, D * n)
    if kind is not FieldElement or other._abd is None or other.tower != tower:
        return None
    a, b, d = other._abd
    if op is add or op is sub:
        if op is sub:
            a, b = -a, -b
        return _abd_value(tower, A * d + a * D, B * d + b * D, D * d)
    r = tower[0]
    R = r.n * r.d
    if op is truediv:  # x*(a - b*sqrt(R))*d/(a^2 - b^2*R)
        a, b, d = a * d, -b * d, D * (a * a - b * b * R)
        D = 1
    # (A + B*s)(a + b*s) = A*a + B*b*R + (A*b + B*a)*s
    return _abd_value(tower, A * a + B * b * R, A * b + B * a, D * d)


# ---------------------------------------------------------------------------
# FieldElement


@total_ordering
class FieldElement:
    """Immutable exact element of a quadratic-extension tower of depth >= 1,
    normalized (see the module doc)."""

    __slots__ = ("tower", "_rep", "_abd")

    def __init__(self, tower, rep):
        self.tower = tower  # radicand reps, tower[i] of depth i
        self._rep = rep
        self._abd = _abd_of(tower, rep)

    @property
    def rep(self):
        """The nested-pair rep; of an element kept as (A, B, D), a view of
        two Rats built on first read."""
        rep = self._rep
        if rep is None:
            (A, B, D), r = self._abd, self.tower[0]
            rep = self._rep = (_ratio(A, D), _ratio(B * r.d, D))
        return rep

    @property
    def depth(self) -> int:
        return len(self.tower)

    # -- normalization and tower merging ------------------------------------

    def _normalized(self):
        """self without its vanishing top levels: a leaf if none is left."""
        tower, rep = self.tower, self.rep
        while tower and _ris_zero(rep[1], len(tower) - 1):
            rep = rep[0]
            tower = tower[:-1]
        if tower is self.tower:
            return self
        return FieldElement(tower, rep) if tower else rep

    @staticmethod
    def _merge(ta, tb):
        """Embed tower tb into an extension T of ta; return (T, emb) where
        emb[i] is the rep over T of sqrt of tb's i-th radicand."""
        T = list(ta)
        emb: list = []

        def convert(rep, depth):
            # rep over tb[:depth] -> rep over T, using emb[:depth]
            if depth == 0:
                return _rlift(rep, 0, len(T))
            u = convert(rep[0], depth - 1)
            v = convert(rep[1], depth - 1)
            return _radd(u, _rmul(v, emb[depth - 1], T, len(T)), len(T))

        for i, rad in enumerate(tb):
            r_rep = convert(rad, i)
            s = _sqrt_in(T, r_rep, len(T))
            if s is None:
                _check_depth(len(T) + 1)
                T.append(r_rep)
                emb = [(e, _rzero(len(T) - 1)) for e in emb]
                s = (_rzero(len(T) - 1), _rlift(ONE, 0, len(T) - 1))
            elif _rsign(s, T, len(T)) < 0:  # a node is the nonnegative root
                s = _rneg(s, len(T))
            emb.append(s)
        return tuple(T), emb, convert

    @staticmethod
    def _align(a: "FieldElement", b: "FieldElement"):
        """Bring two elements into one tower; return (tower, xa, xb)."""
        if a.tower == b.tower:
            return a.tower, a.rep, b.rep
        T, emb, convert = FieldElement._merge(a.tower, b.tower)
        xa = _rlift(a.rep, a.depth, len(T))
        xb = convert(b.rep, b.depth)
        return T, xa, xb

    # -- arithmetic ----------------------------------------------------------

    def _binop(self, other, op):
        if self._abd is not None:
            out = _abd_op(self, other, op)
            if out is not None:
                return out
        if type(other) is FieldElement:
            # a tower element is never zero, so a quotient needs no check
            T, xa, xb = FieldElement._align(self, other)
            rep = _OPS[op][0](xa, xb, T, len(T))
        else:
            # a base value acts on the leaves in place; it is never lifted
            q = _base(other)
            if q is None:
                return NotImplemented
            if op is truediv and not q:
                raise ZeroDivisionError("field division by zero")
            T, rep = self.tower, _OPS[op][1](self.rep, q, len(self.tower))
        return FieldElement(T, rep)._normalized()

    def __add__(self, other):
        return self._binop(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, sub)

    def __rsub__(self, other):
        return (-self)._binop(other, add)

    def __mul__(self, other):
        return self._binop(other, mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, truediv)

    def __rtruediv__(self, other):
        q = _base(other)
        if q is None:
            return NotImplemented
        inv = _rinv(self.rep, self.tower, self.depth)
        return _value(self.tower, _rscale(inv, q, self.depth))

    def __neg__(self):
        if self._abd is not None:
            A, B, D = self._abd
            return _abd_value(self.tower, -A, -B, D)
        return FieldElement(self.tower, _rneg(self.rep, self.depth))

    __pow__ = _power

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self._abd is None and _ris_zero(self.rep, self.depth)

    def sign(self) -> int:
        if self._abd is None:
            return _rsign(self.rep, self.tower, self.depth)
        (A, B, _), r = self._abd, self.tower[0]
        sa, sb = (A > 0) - (A < 0), (B > 0) - (B < 0)
        if sa == sb or not sa:  # B is never 0
            return sb
        # A and B*sqrt(R) pull in opposite directions: A^2 vs B^2*R
        return sa if A * A > B * B * r.n * r.d else sb

    def __eq__(self, other):
        if type(other) is not FieldElement:
            if _base(other) is None:
                refuse_float(self, other)
                return NotImplemented
            return False  # normalized: it lies outside the base field
        if self.tower == other.tower:
            if self._abd is not None and other._abd is not None:
                return self._abd == other._abd
            return self.rep == other.rep
        return (self - other).is_zero()

    def __lt__(self, other):
        b = other if type(other) is FieldElement else _base(other)
        if b is None:
            return NotImplemented
        return (self - b).sign() < 0

    def __hash__(self):
        raise TypeError("FieldElement is not hashable (use explicit keys)")

    def __repr__(self):
        return f"FieldElement({render_element(self)})"

    # -- valuation -------------------------------------------------------------

    def valuation(self) -> Rat:
        """eps-adic valuation (an element is never zero); 0 if eps-free."""
        if self._abd is not None:
            return ZERO
        reps = self.tower + (self.rep,)  # rep i has depth i
        if not any(_rhas_eps(r, i) for i, r in enumerate(reps)):
            return ZERO
        return _rval(self.rep, self.tower, self.depth)


# ---------------------------------------------------------------------------
# module-level API; each takes a leaf or a FieldElement


def _rhas_eps(rep, depth) -> bool:
    """A leaf of rep is a RatFunc."""
    if depth == 0:
        return type(rep) is RatFunc
    return _rhas_eps(rep[0], depth - 1) or _rhas_eps(rep[1], depth - 1)


def int_form(x):
    """(R, lanes, D), D > 0 and gcd(*lanes, D) = 1, for an eps-free tower
    element of depth 1 or 2 with Rat leaves; else None.  Depth 1: (R, (A,
    B), D) as kept.  Depth 2: x = (c0 + c1*sqrt(R1) + (c2 +
    c3*sqrt(R1))*sqrt(R2))/D with R = (R1, (P*E, Q*E)), where r2 = (P +
    Q*sqrt(R1))/E, so R2 = E^2*r2 in Z[sqrt R1] and sqrt(R2) = E*sqrt(r2)."""
    if type(x) is not FieldElement:
        return None
    f = x._abd
    if f is not None:
        r = x.tower[0]
        return r.n * r.d, f[:2], f[2]
    if x.depth != 2:
        return None
    low = x.tower[:1]  # r2, a and b of x = a + b*sqrt(r2) over Q(sqrt r1)
    forms = [_abd_of(low, v) for v in (x.tower[1], *x.rep)]
    if None in forms:
        return None
    (P, Q, E), (A0, A1, s), (B0, B1, t) = forms
    t *= E  # b*sqrt(r2) = b/E*sqrt(R2)
    D = lcm(s, t)
    s, t = D // s, D // t
    lanes = A0 * s, A1 * s, B0 * t, B1 * t
    g = gcd(*lanes, D)
    if g != 1:
        lanes, D = tuple(c // g for c in lanes), D // g
    return (low[0].n * low[0].d, (P * E, Q * E)), lanes, D


def from_int_form(tower, D, *lanes):
    """The values that `int_form` reads as (R, lanes, D), one per lanes
    over the one D, for R the key of `tower` (eps-free, of depth 0, 1 or 2,
    with Rat leaves): at depth 0 the Rat A/D of lanes (A, 0), at depth 1 (A
    + B*sqrt(R))/D, at depth 2 (c0 + c1*sqrt(R1) + (c2 +
    c3*sqrt(R1))*sqrt(R2))/D, with r2's E read once for them all.  D is
    nonzero, and each value is normalized: one that lies lower in the tower
    drops there."""
    if not tower:
        return [_ratio(f[0], D) for f in lanes]
    if len(tower) == 1:
        return [_abd_value(tower, A, B, D) for A, B in lanes]
    low, r2 = tower[:1], tower[1]
    n, E = low[0].d, _abd_of(low, r2)[2]  # sqrt(R1) = n*sqrt(r1)
    return [_value(tower, ((_ratio(c0, D), _ratio(c1 * n, D)),
                           (_ratio(c2 * E, D), _ratio(c3 * E * n, D))))
            for c0, c1, c2, c3 in lanes]


def _parts(x):
    """(tower, rep) of a tower element or a base value."""
    return (x.tower, x.rep) if type(x) is FieldElement else ((), x)


def _value(tower, rep):
    """The value rep denotes over tower: a leaf at depth 0."""
    return FieldElement(tower, rep)._normalized() if tower else rep


def compare(a: FieldElement, b: FieldElement) -> str:
    s = (a - b).sign()
    return "less" if s < 0 else ("greater" if s > 0 else "equal")


def inv_positive(a):
    if a.sign() <= 0:
        raise NotPositive(f"not strictly positive: {render_element(a)}")
    return 1 / a


def sqrt_nonneg(a):
    sg = a.sign()
    if sg < 0:
        raise Negative(f"negative radicand: {render_element(a)}")
    if sg == 0:
        return ZERO
    tower, rep = _parts(a)
    depth = len(tower)
    s = _sqrt_in(tower, rep, depth)
    if s is not None:
        root = _value(tower, s)
        return -root if root.sign() < 0 else root
    _check_depth(depth + 1)
    if type(rep) is Rat:  # sqrt(r) = sqrt(R)/r_d, kept as (0, 1, r_d)
        return _abd_value((rep,), 0, 1, rep.d)
    return FieldElement(tower + (rep,), (_rzero(depth), _rlift(ONE, 0, depth)))


def _check_depth(depth: int) -> None:
    if depth > MAX_TOWER_DEPTH:
        raise TowerTooDeep(f"tower depth {depth} exceeds {MAX_TOWER_DEPTH}")


def Q(num, den=1) -> Rat:
    """Rational constant num/den, from ints, Fractions or Rats."""
    if type(num) is int and type(den) is int and den:
        return _ratio(num, den)  # one gcd
    return Rat(num, den)


def eps() -> RatFunc:
    return EPS


# ---------------------------------------------------------------------------
# numeric approximation (render-time only; never used in comparisons)


def approx(x) -> float:
    """Float approximation of the eps -> 0 shadow of a finitely bounded
    element; an eps-free element is its own shadow."""
    def go(rep, depth, rad_floats) -> float:
        if depth == 0:
            s = rep.shadow()
            if s is None:
                raise ValueError("unbounded element has no shadow")
            return float(s)
        a, b = rep
        fa = go(a, depth - 1, rad_floats)
        fb = go(b, depth - 1, rad_floats)
        return fa + fb * rad_floats[depth - 1]

    tower, rep = _parts(x)
    rad_floats: list[float] = []
    for i, rad in enumerate(tower):
        v = go(rad, i, rad_floats)
        rad_floats.append(max(v, 0.0) ** 0.5)
    return go(rep, len(tower), rad_floats)


# ---------------------------------------------------------------------------
# canonical rendering (parsed back by dsl.parse_element)


def _atomic(s: str) -> bool:
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in "+-" and i > 0:
            return False
    return not (s.startswith("-") and any(c in "+-" for c in s[1:]))


def _wrap(s: str) -> str:
    return s if _atomic(s) else f"({s})"


def render_element(x) -> str:
    def rend(rep, depth, tower):
        if depth == 0:
            try:
                return str(rep)
            except ValueError:  # past int's str() digit limit
                return "<too many digits>"
        a, b = rep
        ra = rend(a, depth - 1, tower)
        rr = rend(tower[depth - 1], depth - 1, tower)
        if _ris_zero(b, depth - 1):
            return ra
        rb = rend(b, depth - 1, tower)
        term = f"{_wrap(rb)}*sqrt({rr})"
        if _ris_zero(a, depth - 1):
            return term
        return f"{_wrap(ra)}+{term}"

    tower, rep = _parts(x)
    return rend(rep, len(tower), tower)
