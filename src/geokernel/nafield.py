"""Exact rational-function arithmetic in one infinitesimal variable ``eps``.

Elements are fractions p(eps)/q(eps) of polynomials with exact rational
coefficients, kept in a canonical form (gcd removed, denominator scaled so
its lowest-order nonzero coefficient is 1).  When q is a constant c or p is
zero, that form is (p/c, 1) and is built without a gcd; every such value
shares one unit-denominator `Poly`.  The ordering treats ``eps`` as
a positive infinitesimal: the sign of an element is the sign of the
lowest-degree coefficient of its eps-expansion, and the valuation
(eps-adic order) separates infinitesimal, finite and unbounded elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

ZERO = Fraction(0)
ONE = Fraction(1)


def frac_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if q is not a square."""
    if q < 0:
        return None
    if q == 0:
        return ZERO
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


class Poly:
    """Dense univariate polynomial over Fraction, low degree first."""

    __slots__ = ("c",)

    def __init__(self, coeffs=()):
        cs = [Fraction(x) for x in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.c = tuple(cs)

    @classmethod
    def const(cls, q) -> "Poly":
        return cls((Fraction(q),))

    @classmethod
    def x_power(cls, k: int, coeff=ONE) -> "Poly":
        return cls((ZERO,) * k + (Fraction(coeff),))

    def is_zero(self) -> bool:
        return not self.c

    def degree(self) -> int:
        return len(self.c) - 1  # -1 for the zero polynomial

    def lowdeg(self) -> int:
        """Order of the lowest nonzero term (valuation at 0)."""
        for i, q in enumerate(self.c):
            if q != 0:
                return i
        raise ValueError("zero polynomial has no lowest term")

    def lowcoeff(self) -> Fraction:
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
        if not self.c or not other.c:
            return Poly()
        out = [ZERO] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x == 0:
                continue
            for j, y in enumerate(other.c):
                out[i + j] += x * y
        return Poly(out)

    def scale(self, q: Fraction) -> "Poly":
        return Poly(tuple(x * q for x in self.c))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        dlead = other.c[-1]
        dd = other.degree()
        quot = [ZERO] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and any(x != 0 for x in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = len(rem) - 1 - dd
            f = rem[-1] / dlead
            quot[k] = f
            for i, y in enumerate(other.c):
                rem[k + i] -= f * y
        return Poly(quot), Poly(rem)

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for i, q in enumerate(self.c):
            if q == 0:
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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    if a.is_zero():
        return a
    return a.scale(1 / a.c[-1])  # monic


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
        acc = cs[k] if k < len(cs) else ZERO
        for i in range(1, k):
            if i < len(s) and k - i < len(s):
                acc -= s[i] * s[k - i]
        s.append(acc / (2 * s0))
    root = Poly((ZERO,) * (low // 2) + tuple(s))
    if root * root == p:
        return root
    return None


class RatFunc:
    """Canonical fraction of polynomials in eps; an exact ordered field."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:  # num/1 is canonical as it stands
            self.num = num
            self.den = _UNIT
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero() or den.degree() == 0:
            # the gcd is a unit, so the canonical form is (num / den, 1)
            if num.c:
                num = num.scale(1 / den.c[0])
            self.num = num
            self.den = _UNIT
            return
        g = poly_gcd(num, den)  # nonzero, since num is
        num = num.divmod(g)[0]
        den = den.divmod(g)[0]
        lc = den.lowcoeff()
        num = num.scale(1 / lc)
        den = den.scale(1 / lc)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, q) -> "RatFunc":
        return cls(Poly.const(Fraction(q)))

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

    def valuation(self) -> int:
        """eps-adic order; raises on zero."""
        return self.num.lowdeg() - self.den.lowdeg()

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        # negating a canonical form leaves it canonical
        r = RatFunc.__new__(RatFunc)
        r.num = -self.num
        r.den = self.den
        return r

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

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

    def shadow(self) -> Fraction | None:
        """Standard part at eps -> 0, or None when unbounded."""
        if self.is_zero():
            return ZERO
        v = self.valuation()
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
