"""Exact rational and rational-function arithmetic in one infinitesimal ``eps``.

`Rat` is the one rational type: ints n and d > 0 in lowest terms, the form
`Fraction` keeps, so it prints and hashes as the equal `Fraction` does; but
a float is no exact value, and `==` with one raises as `<` does.  Sums use
Henrici's gcd split and products cross gcds (Knuth, TAOCP vol. 2, 4.5.1),
with a fast path for integers; results are built unchecked, since these
steps keep lowest terms.  An int or a `Fraction` becomes a `Rat` once,
where it enters (`Rat(x)`, `as_rat`); an int is converted, and compared
by `==`, without the `numbers` ABC check, and `==` with an int builds no
`Rat` (lowest terms make it n == b with d == 1).  A zero test on a `Rat`
is a truth test, never `== 0`.

`Poly` is a polynomial with `Rat` coefficients.  Products and gcds run
over Z: denominators are cleared, and `poly_gcd` splits off integer
contents and runs the primitive remainder sequence (TAOCP 4.6.1).

`RatFunc` elements are quotients p(eps)/q(eps) of polynomials, kept in a
canonical form: lowest terms, and q scaled so its lowest-order nonzero
coefficient is 1.  When q is a constant c or p is zero, that form is
(p/c, 1) and is built without a gcd; every such value shares one
unit-denominator `Poly`.  A rational operand (a `Rat`, an int or a
`Fraction`) needs no gcd either.  Two `RatFunc` operands follow Henrici:
a sum takes a gcd only when neither denominator is 1, a product the two
cross gcds.  The ordering treats ``eps`` as a positive infinitesimal: the
sign of an element is the sign of the lowest-degree coefficient of its
eps-expansion, and the valuation (eps-adic order) separates
infinitesimal, finite and unbounded elements.

`Rat` and `RatFunc` are the base values of `field`, the leaves of its
towers, and `field` uses them bare: `Q(3, 4)` is a `Rat` and `eps()` a
`RatFunc`.  Both kinds answer the leaf interface alike: `sign`,
`valuation` (a `Rat`; zero has none), `sqrt_exact`, `shadow`, `is_zero`,
the ordering, `**` by one square-and-multiply, and an empty `tower` (a
base value needs no radicand).  A value equal to a rational hashes like
the equal `Fraction`, and a division by zero raises
`ZeroDivisionError("field division by zero")`.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd, isqrt, lcm
from numbers import Rational
from sys import hash_info

# Highest eps-degree a RatFunc numerator or denominator may have, so that
# runaway powers fail instead of hanging.  The audit never passes degree 6;
# the valuation oracle test reaches 148 (signs of x^8 at tower depth 2).
MAX_DEGREE = 192

_new = object.__new__  # unchecked construction of slotted values


class FieldError(Exception):
    pass


class DegreeTooHigh(FieldError):
    """A RatFunc numerator or denominator would pass MAX_DEGREE."""


def _power(x, n: int):
    """x**n by square-and-multiply, for a leaf or a tower element."""
    if n < 0:
        raise ValueError("negative exponent; use inv_positive")
    out = ONE
    while n:
        if n & 1:
            out = out * x
        x = x * x
        n >>= 1
    return out


# ---------------------------------------------------------------------------
# rationals


def as_rat(x) -> "Rat | None":
    """x as a Rat if it is a Rat, an int or a Fraction; otherwise None."""
    if type(x) is Rat:
        return x
    if type(x) is int:  # before the ABC check, which costs more
        return _rat(x, 1)
    if not isinstance(x, Rational):  # Fraction, bool, an int subclass
        return None
    return _rat(x.numerator, x.denominator)


def refuse_float(a, b) -> None:
    """Raise the TypeError of `a < b` if b is a float; `==` calls it."""
    if isinstance(b, float):
        raise TypeError(f"'==' not supported between instances of "
                        f"{type(a).__name__!r} and 'float'")


def _rat(n: int, d: int) -> "Rat":
    """The Rat n/d, unchecked: d > 0 and gcd(n, d) = 1 must hold."""
    r = _new(Rat)
    r.n = n
    r.d = d
    return r


def _sum(na: int, da: int, nb: int, db: int) -> "Rat":
    """na/da + nb/db, by Henrici's gcd split."""
    if da == 1 and db == 1:
        return _rat(na + nb, 1)
    g = gcd(da, db)
    if g == 1:
        return _rat(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _rat(t, s * db)
    return _rat(t // g2, s * (db // g2))


def _prod(na: int, da: int, nb: int, db: int) -> "Rat":
    """(na/da) * (nb/db), by cross gcds."""
    if da != 1 or db != 1:
        g = gcd(na, db)
        if g > 1:
            na //= g
            db //= g
        g = gcd(nb, da)
        if g > 1:
            nb //= g
            da //= g
    return _rat(na * nb, da * db)


@total_ordering
class Rat:
    """Exact rational n/d: ints, d > 0, gcd(n, d) = 1."""

    __slots__ = ("n", "d")
    tower = ()  # a base value needs no radicand

    def __new__(cls, n=0, d=1):
        """n/d in lowest terms, from ints, Fractions or Rats."""
        q = as_rat(n)
        if q is None:
            raise TypeError(f"not a rational: {n!r}")
        return q if d == 1 else q / d

    @property
    def numerator(self) -> int:
        return self.n

    @property
    def denominator(self) -> int:
        return self.d

    def __add__(a, b):
        if type(b) is not Rat:
            b = as_rat(b)
            if b is None:
                return NotImplemented
        return _sum(a.n, a.d, b.n, b.d)

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is not Rat:
            b = as_rat(b)
            if b is None:
                return NotImplemented
        return _sum(a.n, a.d, -b.n, b.d)

    def __rsub__(a, b):
        b = as_rat(b)
        return NotImplemented if b is None else b - a

    def __mul__(a, b):
        if type(b) is not Rat:
            b = as_rat(b)
            if b is None:
                return NotImplemented
        return _prod(a.n, a.d, b.n, b.d)

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is not Rat:
            b = as_rat(b)
            if b is None:
                return NotImplemented
        if not b.n:
            raise ZeroDivisionError("field division by zero")
        if b.n < 0:
            return _prod(a.n, a.d, -b.d, -b.n)
        return _prod(a.n, a.d, b.d, b.n)

    def __rtruediv__(a, b):
        b = as_rat(b)
        return NotImplemented if b is None else b / a

    def __neg__(a):
        return _rat(-a.n, a.d)

    __pow__ = _power

    def __bool__(a) -> bool:
        return a.n != 0

    def is_zero(a) -> bool:
        return not a.n

    def __eq__(a, b):
        if type(b) is not Rat:
            if type(b) is int:  # lowest terms: equal iff d is 1 and n is b
                return a.d == 1 and a.n == b
            q = as_rat(b)
            if q is None:
                refuse_float(a, b)
                return NotImplemented
            b = q
        return a.n == b.n and a.d == b.d

    def __lt__(a, b):
        if type(b) is not Rat:
            b = as_rat(b)
            if b is None:
                return NotImplemented
        return a.n * b.d < b.n * a.d

    def __hash__(a) -> int:
        # the numeric hash that int and Fraction share, so equal values of
        # all three hash alike
        if a.d == 1:
            return hash(a.n)
        try:
            h = hash(hash(abs(a.n)) * pow(a.d, -1, hash_info.modulus))
        except ValueError:  # d is a multiple of the modulus
            h = hash_info.inf
        h = h if a.n >= 0 else -h
        return -2 if h == -1 else h

    def sign(a) -> int:
        return (a.n > 0) - (a.n < 0)

    def valuation(a) -> "Rat":
        """eps-adic order, 0; raises on zero as RatFunc does."""
        if not a.n:
            raise ValueError("zero has no valuation")
        return ZERO

    def sqrt_exact(a) -> "Rat | None":
        """Square root inside Q, or None."""
        return frac_sqrt(a)

    def shadow(a) -> "Rat":
        return a

    def __float__(a) -> float:
        return a.n / a.d

    def __int__(a) -> int:
        return a.n // a.d if a.n >= 0 else -(-a.n // a.d)

    def __str__(a) -> str:
        return str(a.n) if a.d == 1 else f"{a.n}/{a.d}"

    def __repr__(a) -> str:
        return f"Rat({a.n}, {a.d})"


Rational.register(Rat)  # so Fraction(x) and Fraction == x accept a Rat

ZERO = _rat(0, 1)
ONE = _rat(1, 1)


def frac_sqrt(q) -> Rat | None:
    """Exact square root of a Rat or Fraction, or None if q is not a square."""
    n, d = q.numerator, q.denominator
    if n < 0:
        return None
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return _rat(rn, rd)


class Poly:
    """Dense univariate polynomial over Q: `Rat` coefficients, low degree
    first, no trailing zero."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        cs = [Rat(x) for x in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.c = tuple(cs)

    @classmethod
    def const(cls, q) -> "Poly":
        return cls((q,))

    @classmethod
    def x_power(cls, k: int) -> "Poly":
        return cls((ZERO,) * k + (ONE,))

    def is_zero(self) -> bool:
        return not self.c

    def degree(self) -> int:
        return len(self.c) - 1  # -1 for the zero polynomial

    def lowdeg(self) -> int:
        """Order of the lowest nonzero term (valuation at 0); zero has none."""
        for i, q in enumerate(self.c):
            if q:
                return i
        raise ValueError("zero has no valuation")

    def lowcoeff(self) -> Rat:
        return self.c[self.lowdeg()]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.c == other.c

    def __hash__(self) -> int:
        return hash(self.c)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        return Poly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __neg__(self) -> "Poly":
        return Poly(tuple(-x for x in self.c))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        # over Z: clear denominators, convolve the ints, divide back once
        if not self.c or not other.c:
            return Poly()
        ma, a = _integral(self)
        mb, b = _integral(other)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        m = ma * mb
        return Poly([_ratio(x, m) for x in out])

    def scale(self, q: Rat) -> "Poly":
        return Poly(tuple(x * q for x in self.c))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        dlead = other.c[-1]
        dd = other.degree()
        quot = [ZERO] * max(0, len(rem) - dd)
        for k in range(len(quot) - 1, -1, -1):
            f = rem[k + dd] / dlead
            quot[k] = f
            for i, y in enumerate(other.c):
                rem[k + i] -= f * y
        return Poly(quot), Poly(rem)

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for i, q in enumerate(self.c):
            if not q:
                continue
            if i == 0:
                parts.append(str(q))
            elif i == 1:
                parts.append(f"{q}*eps" if q != 1 else "eps")
            else:
                parts.append(f"{q}*eps^{i}" if q != 1 else f"eps^{i}")
        return "+".join(parts).replace("+-", "-")

    __repr__ = __str__


_UNIT = Poly((ONE,))  # shared: a Poly is immutable


# ---------------------------------------------------------------------------
# gcd over Z: the primitive polynomial remainder sequence (Knuth, TAOCP
# vol. 2, 4.6.1).  Integer polynomials are int lists, low degree first.


def _integral(p: Poly) -> tuple[int, list[int]]:
    """(m, r) with p = r/m: m the lcm of p's denominators, r over Z."""
    m = lcm(*(q.d for q in p.c))
    return m, [q.n * (m // q.d) for q in p.c]


def _primitive(r: list[int]) -> list[int]:
    """r divided by its content, the gcd of its coefficients."""
    g = gcd(*r)
    return r if g == 1 else [x // g for x in r]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b (len(a) >=
    len(b)), without trailing zeros: each step scales by the leading
    coefficient of b over its gcd with the term it cancels."""
    r = list(a)
    lead, top = b[-1], len(b) - 1
    for k in range(len(a) - 1, top - 1, -1):
        f = r.pop()
        if f:
            g = gcd(f, lead)
            f, m = f // g, lead // g
            if m != 1:
                r = [m * x for x in r]
            for i in range(top):
                r[k - top + i] -= f * b[i]
    while r and not r[-1]:
        r.pop()
    return r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b (zero if both are zero): denominators
    cleared, integer contents split off, then the primitive PRS."""
    if a.is_zero() or b.is_zero():
        g = a if b.is_zero() else b
        return g if g.is_zero() else g.scale(ONE / g.c[-1])
    a, b = _primitive(_integral(a)[1]), _primitive(_integral(b)[1])
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            lead = b[-1]
            return Poly([_ratio(x, lead) for x in b])
        a, b = b, _primitive(r)
    return _UNIT


def _ratio(n: int, d: int) -> Rat:
    """n/d in lowest terms, for ints with d != 0."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return _rat(n // g, d // g)


def poly_sqrt(p: Poly) -> Poly | None:
    """Exact polynomial square root, or None."""
    if p.is_zero():
        return Poly()
    low = p.lowdeg()
    if low % 2 or p.degree() % 2:
        return None
    # strip eps^low, then coefficient recursion from the bottom
    cs = p.c[low:]
    s0 = frac_sqrt(cs[0])
    if s0 is None:
        return None
    half = (len(cs) - 1) // 2
    s = [s0]
    for k in range(1, half + 1):
        acc = cs[k]
        for i in range(1, k):
            acc -= s[i] * s[k - i]
        s.append(acc / (2 * s0))
    root = Poly((ZERO,) * (low // 2) + tuple(s))
    if root * root == p:
        return root
    return None


def _canonical(num: Poly, den: Poly) -> "RatFunc":
    """A RatFunc from a pair already in canonical form."""
    r = _new(RatFunc)
    r.num = num
    r.den = den
    return r


def _cancel(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """a and b divided by their gcd; a gcd of 1 skips both divisions."""
    if len(a.c) == 1 or len(b.c) == 1:  # a nonzero constant is a unit
        return a, b
    g = poly_gcd(a, b)
    if len(g.c) == 1:
        return a, b
    return a.divmod(g)[0], b.divmod(g)[0]


def _normal(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The canonical pair of num/den for coprime num and den (den nonzero):
    den's lowest-order coefficient scaled to 1, and the degree checked."""
    if not num.c:
        return num, _UNIT
    lc = den.lowcoeff()
    if lc != ONE:
        lc = ONE / lc
        num = num.scale(lc)
        den = _UNIT if len(den.c) == 1 else den.scale(lc)
    degree = max(len(num.c), len(den.c)) - 1
    if degree > MAX_DEGREE:
        raise DegreeTooHigh(f"eps-degree {degree} exceeds {MAX_DEGREE}")
    return num, den


def _lowest(num: Poly, den: Poly) -> "RatFunc":
    """The RatFunc num/den for coprime num and den."""
    return _canonical(*_normal(num, den))


# Henrici's sum and product of canonical a/b and c/d (Knuth, TAOCP vol. 2,
# 4.5.1): gcds of the parts in place of one gcd of the whole result.


def _ratfunc_sum(a: Poly, b: Poly, c: Poly, d: Poly) -> "RatFunc":
    if not a.c or not c.c:
        return _canonical(a, b) if a.c else _canonical(c, d)
    # with b = 1, gcd(a*d + c, d) = gcd(c, d) = 1: no gcd to take
    if len(b.c) == 1:
        return _lowest(a * d + c if len(d.c) > 1 else a + c, d)
    if len(d.c) == 1:
        return _lowest(a + c * b, b)
    g = poly_gcd(b, d)
    if len(g.c) == 1:  # coprime denominators: a*d + c*b is coprime to b*d
        return _lowest(a * d + c * b, b * d)
    b, d = b.divmod(g)[0], d.divmod(g)[0]
    t, g = _cancel(a * d + c * b, g)  # only g can share a factor with t
    return _lowest(t, b * d * g)


def _ratfunc_product(a: Poly, b: Poly, c: Poly, d: Poly) -> "RatFunc":
    # the cross gcds gcd(a, d) and gcd(c, b) are all the product needs
    if not a.c or not c.c:
        return _canonical(Poly(), _UNIT)
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return _lowest(a * c, b * d)


@total_ordering
class RatFunc:
    """Canonical fraction of polynomials in eps; an exact ordered field."""

    __slots__ = ("num", "den")
    tower = ()  # a base value needs no radicand

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = _UNIT
        elif den.is_zero():
            raise ZeroDivisionError("zero denominator")
        elif num.c:
            num, den = _cancel(num, den)
        self.num, self.den = _normal(num, den)

    @classmethod
    def const(cls, q) -> "RatFunc":
        return cls(Poly.const(q))

    @classmethod
    def eps_power(cls, k: int) -> "RatFunc":
        if k >= 0:
            return cls(Poly.x_power(k))
        return cls(Poly.const(ONE), Poly.x_power(-k))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def sign(self) -> int:
        if self.num.is_zero():
            return 0
        q = self.num.lowcoeff()  # den's low coefficient is 1 by normalization
        return 1 if q > 0 else -1

    def valuation(self) -> Rat:
        """eps-adic order; raises on zero as Rat does."""
        return _rat(self.num.lowdeg() - self.den.lowdeg(), 1)

    def __eq__(self, other) -> bool:
        if type(other) is not RatFunc:
            q = as_rat(other)
            if q is None:
                refuse_float(self, other)
                return NotImplemented
            other = RatFunc.const(q)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if len(self.num.c) < 2 and len(self.den.c) == 1:  # a rational
            return hash(self.num.c[0] if self.num.c else ZERO)
        return hash((self.num, self.den))

    def __lt__(self, other):
        if type(other) is not RatFunc and as_rat(other) is None:
            return NotImplemented
        return (self - other).sign() < 0

    # With p/d canonical and q a rational, (p + q*d)/d, (q*p)/d and
    # (p/q)/d are canonical too: the gcd and d's low coefficient stay put.

    def __add__(self, other):
        if type(other) is RatFunc:
            return _ratfunc_sum(self.num, self.den, other.num, other.den)
        q = as_rat(other)
        if q is None:
            return NotImplemented
        return _canonical(self.num + self.den.scale(q), self.den)

    __radd__ = __add__

    def __neg__(self):
        # negating a canonical form leaves it canonical
        return _canonical(-self.num, self.den)

    def __sub__(self, other):
        if type(other) is RatFunc:
            return self + (-other)
        q = as_rat(other)
        if q is None:
            return NotImplemented
        return _canonical(self.num - self.den.scale(q), self.den)

    def __rsub__(self, other):
        q = as_rat(other)
        return NotImplemented if q is None else (-self) + q

    __pow__ = _power

    def __mul__(self, other):
        if type(other) is RatFunc:
            return _ratfunc_product(self.num, self.den, other.num, other.den)
        q = as_rat(other)
        if q is None:
            return NotImplemented
        if not q:
            return _canonical(Poly(), _UNIT)
        return _canonical(self.num.scale(q), self.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is RatFunc:
            if other.is_zero():
                raise ZeroDivisionError("field division by zero")
            return _ratfunc_product(self.num, self.den, other.den, other.num)
        q = as_rat(other)
        if q is None:
            return NotImplemented
        if not q:
            raise ZeroDivisionError("field division by zero")
        return _canonical(self.num.scale(ONE / q), self.den)

    def __rtruediv__(self, other):
        q = as_rat(other)
        if q is None:
            return NotImplemented
        if self.is_zero():
            raise ZeroDivisionError("field division by zero")
        if not q:
            return _canonical(Poly(), _UNIT)
        # q*d/p, with p's low coefficient scaled to 1
        lc = ONE / self.num.lowcoeff()
        return _canonical(self.den.scale(q * lc), self.num.scale(lc))

    def sqrt_exact(self) -> "RatFunc | None":
        """Square root inside the rational-function field, or None."""
        if self.sign() < 0:
            return None
        rn = poly_sqrt(self.num)
        if rn is None:
            return None
        rd = poly_sqrt(self.den)
        if rd is None:
            return None
        root = RatFunc(rn, rd)
        if root.sign() < 0:
            root = -root
        return root

    def shadow(self) -> Rat | None:
        """Standard part at eps -> 0, or None when unbounded."""
        if self.is_zero():
            return ZERO
        v = self.valuation().sign()
        if v > 0:
            return ZERO
        if v < 0:
            return None
        return self.num.lowcoeff() / self.den.lowcoeff()

    def __str__(self) -> str:
        if self.den == _UNIT:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


EPS = RatFunc.eps_power(1)
