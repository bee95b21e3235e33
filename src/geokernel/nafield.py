"""Exact rational and rational-function arithmetic in one infinitesimal ``eps``.

`Rat` is the one rational type: ints n and d > 0 in lowest terms, the form
`Fraction` keeps, so it prints and hashes as the equal `Fraction` does; but
a float is no exact value, and `==` with one raises as `<` does.  Sums use
Henrici's gcd split and products cross gcds (Knuth, TAOCP vol. 2, 4.5.1),
with a fast path for integers; results are built unchecked, since these
steps keep lowest terms.  An int or a `Fraction` becomes a `Rat` once,
where it enters (`Rat(x)`, `as_rat`); an int is converted, and compared,
without the `numbers` ABC check, and a comparison with an int builds no
`Rat`: lowest terms make `==` n == b with d == 1, and d > 0 makes `<`
n < b*d, which the `<=` and `>=` of `total_ordering` call.  `as_rat`
refuses a `RatFunc` or a tower element without the ABC check too.  A zero
test on a `Rat` is a truth test, never `== 0`.

`Poly` is a polynomial over Q kept as ints over one denominator, as
FLINT's `fmpq_poly` keeps it: z/m, with z a tuple of ints (low degree
first, no trailing zero), m > 0 and gcd(m, *z) = 1.  The form is
canonical, so `==` and `hash` compare (z, m); `c`, the coefficients as
`Rat`s, is a view built when read, and a `Poly` prints each coefficient
x/m from x and m over their gcd, building no `Rat`.  A `Poly` is true iff
nonzero, and ordered with eps a positive infinitesimal: `sign()` is that
of its lowest nonzero int (m > 0), and `<` and `>` take a `Poly` or 0.
`+ - *` and `scale` are int loops with one gcd at the end (a sum's content
can share only the gcd of the two denominators, Henrici's split again),
and no `Rat` is built per coefficient.  One pseudo-division of the
integer forms (TAOCP 4.6.1) serves `Poly.divmod`, the exact quotients by
a gcd and the remainder sequence: `poly_gcd` splits off integer contents
and runs the primitive remainder sequence on it, and by Gauss's lemma a
division by the gcd's primitive part is exact over Z and scales nothing.

`RatFunc` elements are quotients p(eps)/q(eps) of polynomials, kept in a
canonical form: lowest terms, and q's lowest-order nonzero coefficient
k/m scaled to 1, by scaling p and q by m/k.  When q is a constant c or p
is zero, that form is (p/c, 1) and is built without a gcd; every such
value shares one unit-denominator `Poly`.  A rational operand (a `Rat`, an
int or a `Fraction`) needs no gcd either.  Two `RatFunc` operands follow
Henrici: a sum takes a gcd only when neither denominator is 1, a product
the two cross gcds.  `RatFunc == q`, for a rational q = n/d, reads the
canonical form, building no `RatFunc` (and for an int no `Rat`): equal
iff den is the unit and num is (n,) over d, or both are zero.  The
ordering treats ``eps`` as a positive infinitesimal: the sign of an
element is the sign of the lowest-degree coefficient of its
eps-expansion, p's `sign()`, and the valuation (eps-adic order)
separates infinitesimal, finite and unbounded elements.

`Rat` and `RatFunc` are the base values of `field`, the leaves of its
towers, and `field` uses them bare: `Q(3, 4)` is a `Rat` and `eps()` a
`RatFunc`.  Both kinds answer the leaf interface alike: `sign`,
`valuation` (a shared `Rat`; zero has none), `sqrt_exact`, `shadow`,
`is_zero`, the ordering, `**` by one square-and-multiply, and an empty
`tower` (a base value needs no radicand).  A value equal to a rational hashes like
the equal `Fraction`, and a division by zero raises
`ZeroDivisionError("field division by zero")`.
"""

from __future__ import annotations

from functools import total_ordering
from itertools import zip_longest
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
        if n := n >> 1:  # square only while bits remain
            x = x * x
    return out


# ---------------------------------------------------------------------------
# rationals


def as_rat(x) -> "Rat | None":
    """x as a Rat if it is a Rat, an int or a Fraction; otherwise None."""
    kind = type(x)
    if kind is Rat:
        return x
    if kind is int:  # before the ABC check, which costs more
        return _rat(x, 1)
    if hasattr(kind, "tower"):  # a RatFunc or a tower element (the kernel
        return None  # kinds besides Rat): no rational, and no ABC to ask
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
            if type(b) is int:  # d > 0, so no Rat is built for b
                return a.n < b * a.d
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
# the integer orders a RatFunc can have, built once: its valuation is one
_ORDERS = {k: _rat(k, 1) for k in range(-MAX_DEGREE, MAX_DEGREE + 1)}
_ORDERS[0] = ZERO


def frac_sqrt(q) -> Rat | None:
    """Exact square root of a Rat or Fraction, or None if q is not a square."""
    n, d = q.numerator, q.denominator
    if n < 0:
        return None
    rn = isqrt(n)
    if rn * rn != n:
        return None
    rd = isqrt(d)
    return _rat(rn, rd) if rd * rd == d else None


class Poly:
    """Dense univariate polynomial over Q, kept as z/m: `z` a tuple of ints,
    low degree first, no trailing zero, and `m` > 0 an int with
    gcd(m, *z) = 1.  The form is canonical, so `==` and `hash` compare
    (z, m); `c` is a view of the coefficients as `Rat`s."""

    __slots__ = ("z", "m")

    def __init__(self, coeffs=()):
        cs = [Rat(x) for x in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # lowest terms already: a prime's full power in m divides some q.d,
        # and that q.n * (m // q.d) is prime to it
        m = lcm(*[q.d for q in cs])
        self.z = tuple(q.n * (m // q.d) for q in cs)
        self.m = m

    @property
    def c(self) -> tuple[Rat, ...]:
        """The coefficients as Rats, low degree first (built per read)."""
        m = self.m
        return tuple(_ratio(x, m) for x in self.z)

    @classmethod
    def const(cls, q) -> "Poly":
        if type(q) is Rat:  # n/d is the form already
            return _poly((q.n,), q.d) if q.n else _NIL
        return cls((q,))

    @classmethod
    def x_power(cls, k: int) -> "Poly":
        return _poly((0,) * k + (1,), 1)

    def is_zero(self) -> bool:
        return not self.z

    def __bool__(self) -> bool:
        return bool(self.z)

    def sign(self) -> int:
        """The sign with eps a positive infinitesimal: its lowest int's."""
        for x in self.z:
            if x:
                return 1 if x > 0 else -1
        return 0

    def __lt__(self, other):
        d = _gap(self, other)
        return NotImplemented if d is None else d.sign() < 0

    def __gt__(self, other):
        d = _gap(self, other)
        return NotImplemented if d is None else d.sign() > 0

    def degree(self) -> int:
        return len(self.z) - 1  # -1 for the zero polynomial

    def lowdeg(self) -> int:
        """Order of the lowest nonzero term (valuation at 0); zero has none."""
        for i, x in enumerate(self.z):
            if x:
                return i
        raise ValueError("zero has no valuation")

    def lowcoeff(self) -> Rat:
        return _ratio(self.z[self.lowdeg()], self.m)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.z == other.z
                and self.m == other.m)

    def __hash__(self) -> int:
        return hash((self.z, self.m))

    def __add__(self, other: "Poly") -> "Poly":
        return _combine(self, other, 1)

    def __neg__(self) -> "Poly":
        return _poly(tuple(-x for x in self.z), self.m)

    def __sub__(self, other: "Poly") -> "Poly":
        return _combine(self, other, -1)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.z, other.z
        if not a or not b:
            return _NIL
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        m = self.m * other.m
        return _reduced(out, m, m)

    def scale(self, q: Rat) -> "Poly":
        m = self.m * q.d
        return _reduced([x * q.n for x in self.z], m, m)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """(quotient, remainder) over Q, from `_pdiv` of the integer forms."""
        if not other.z:
            raise ZeroDivisionError("polynomial division by zero")
        q, r, s = _pdiv(self.z, other.z)
        # a = A/am and b = B/bm, so a = (Q*bm/(s*am))*b + R/(s*am)
        m, bm = s * self.m, other.m
        return _reduced([x * bm for x in q], m, m), _reduced(r, m, m)

    def __str__(self) -> str:
        if not self.z:
            return "0"
        m, parts = self.m, []
        for i, x in enumerate(self.z):
            if not x:
                continue
            g = gcd(x, m)  # x/m in lowest terms, printed as a Rat prints
            q = str(x // g) if g == m else f"{x // g}/{m // g}"
            if i == 0:
                parts.append(q)
            elif i == 1:
                parts.append(f"{q}*eps" if x != m else "eps")
            else:
                parts.append(f"{q}*eps^{i}" if x != m else f"eps^{i}")
        return "+".join(parts).replace("+-", "-")

    __repr__ = __str__


def _poly(z: tuple, m: int) -> Poly:
    """The Poly z/m, unchecked: the form of `Poly` must hold."""
    p = _new(Poly)
    p.z = z
    p.m = m
    return p


_NIL = _poly((), 1)  # shared, as a Poly is immutable
_UNIT = _poly((1,), 1)


def _reduced(z, m: int, g: int) -> Poly:
    """The Poly z/m in lowest terms, for a list of ints z (or a tuple with
    no trailing zero) and an int m != 0, where no factor of m outside g can
    divide every coefficient of z."""
    while z and not z[-1]:
        z.pop()
    if not z:
        return _NIL
    if g != 1:
        g = gcd(g, *z)
    if m < 0:
        g = -g
    if g != 1:
        z = [x // g for x in z]
        m //= g
    return _poly(tuple(z), m)


def _gap(a: Poly, b) -> Poly | None:
    """a - b for a Poly b, a for the int 0, and None for anything else."""
    if type(b) is Poly:
        return _combine(a, b, -1) if b.z else a
    return a if type(b) is int and not b else None


def _combine(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign*b over the lcm of the denominators.  As in Henrici's sum of
    rationals, only their gcd can divide every coefficient of the result."""
    am, bm = a.m, b.m
    if am == bm:
        g, sa, sb = am, 1, sign
    else:
        g = gcd(am, bm)
        sa, sb = bm // g, sign * (am // g)
    z = [x * sa + y * sb for x, y in zip_longest(a.z, b.z, fillvalue=0)]
    return _reduced(z, am * sa, g)


# ---------------------------------------------------------------------------
# gcd over Z: the primitive polynomial remainder sequence (Knuth, TAOCP
# vol. 2, 4.6.1).  Integer polynomials are int sequences, low degree first.


def _primitive(r):
    """r divided by its content, the gcd of its coefficients."""
    g = gcd(*r)
    return r if g == 1 else [x // g for x in r]


def _pdiv(a, b) -> tuple[list[int], list[int], int]:
    """Pseudo-division of the integer polynomials a and b != 0: (q, r, s)
    with s*a = q*b + r over Z, r without trailing zeros.  Each step scales
    by the factor of b's leading coefficient that its term needs, so s = 1
    when b divides a over Z, as a primitive gcd does (Gauss's lemma)."""
    r = list(a)
    lead, top = b[-1], len(b) - 1
    q = [0] * (len(r) - top)  # [] when a is the shorter
    s = 1
    for k in range(len(q) - 1, -1, -1):
        f = r.pop()
        if f:
            g = gcd(f, lead)
            f, t = f // g, lead // g
            if t != 1:
                r = [t * x for x in r]
                q = [t * x for x in q]
                s *= t
            q[k] = f
            for i in range(top):
                r[k + i] -= f * b[i]
    while r and not r[-1]:
        r.pop()
    return q, r, s


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b (zero if both are zero): integer contents
    split off, then the primitive PRS."""
    if not a.z or not b.z:
        g = b.z if not a.z else a.z
        return _reduced(g, g[-1], g[-1]) if g else _NIL  # g over its lead
    a, b = _primitive(a.z), _primitive(b.z)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pdiv(a, b)[1]
        if not r:
            return _reduced(b, b[-1], 1)  # b is primitive
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
        return _NIL
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
    if len(a.z) == 1 or len(b.z) == 1:  # a nonzero constant is a unit
        return a, b
    g = poly_gcd(a, b)
    if len(g.z) == 1:
        return a, b
    return a.divmod(g)[0], b.divmod(g)[0]


def _normal(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The canonical pair of num/den for coprime num and den (den nonzero):
    den's lowest-order coefficient k/m scaled to 1, and the degree checked."""
    if not num.z:
        return num, _UNIT
    m, k = den.m, den.z[den.lowdeg()]
    if k != m:  # both scaled by m/k
        q = _ratio(m, k)
        num = num.scale(q)
        den = _UNIT if len(den.z) == 1 else den.scale(q)
    degree = max(len(num.z), len(den.z)) - 1
    if degree > MAX_DEGREE:
        raise DegreeTooHigh(f"eps-degree {degree} exceeds {MAX_DEGREE}")
    return num, den


def _lowest(num: Poly, den: Poly) -> "RatFunc":
    """The RatFunc num/den for coprime num and den."""
    return _canonical(*_normal(num, den))


# Henrici's sum and product of canonical a/b and c/d (Knuth, TAOCP vol. 2,
# 4.5.1): gcds of the parts in place of one gcd of the whole result.


def _ratfunc_sum(a: Poly, b: Poly, c: Poly, d: Poly) -> "RatFunc":
    if not a.z or not c.z:
        return _canonical(a, b) if a.z else _canonical(c, d)
    # with b = 1, gcd(a*d + c, d) = gcd(c, d) = 1: no gcd to take
    if len(b.z) == 1:
        return _lowest(a * d + c if len(d.z) > 1 else a + c, d)
    if len(d.z) == 1:
        return _lowest(a + c * b, b)
    g = poly_gcd(b, d)
    if len(g.z) == 1:  # coprime denominators: a*d + c*b is coprime to b*d
        return _lowest(a * d + c * b, b * d)
    b, d = b.divmod(g)[0], d.divmod(g)[0]
    t, g = _cancel(a * d + c * b, g)  # only g can share a factor with t
    return _lowest(t, b * d * g)


def _ratfunc_product(a: Poly, b: Poly, c: Poly, d: Poly) -> "RatFunc":
    # the cross gcds gcd(a, d) and gcd(c, b) are all the product needs
    if not a.z or not c.z:
        return _canonical(_NIL, _UNIT)
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
        elif num.z:
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
        # num's: den's lowest coefficient is 1 by normalization
        return self.num.sign()

    def valuation(self) -> Rat:
        """eps-adic order, a shared Rat; raises on zero as Rat does."""
        k = self.num.lowdeg() - self.den.lowdeg()
        v = _ORDERS.get(k)
        return _rat(k, 1) if v is None else v

    def __eq__(self, other) -> bool:
        if type(other) is RatFunc:
            return self.num == other.num and self.den == other.den
        if type(other) is int:
            n, d = other, 1
        else:
            q = as_rat(other)
            if q is None:
                refuse_float(self, other)
                return NotImplemented
            n, d = q.n, q.d
        # the canonical form of n/d is ((n,), d) over the unit den, or
        # ((), 1) for zero; a canonical den is the unit iff it is constant
        num = self.num
        if len(self.den.z) != 1:
            return False
        if not n:
            return not num.z
        return len(num.z) == 1 and num.z[0] == n and num.m == d

    def __hash__(self) -> int:
        num = self.num
        if len(num.z) < 2 and len(self.den.z) == 1:  # a rational
            return hash(_rat(num.z[0], num.m) if num.z else ZERO)
        return hash((self.num, self.den))

    def __lt__(self, other):
        if type(other) is not RatFunc and as_rat(other) is None:
            return NotImplemented
        return (self - other).sign() < 0

    # With p/d canonical and q a rational, (p + q*d)/d and (q*p)/d are
    # canonical too: the gcd and d's low coefficient stay put.  A rational
    # is subtracted as its negation and divided by as its inverse.

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
        b = other if type(other) is RatFunc else as_rat(other)
        return NotImplemented if b is None else self + (-b)

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
            return _canonical(_NIL, _UNIT)
        return _canonical(self.num.scale(q), self.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is RatFunc:
            if other.is_zero():
                raise ZeroDivisionError("field division by zero")
            return _ratfunc_product(self.num, self.den, other.den, other.num)
        q = as_rat(other)
        return NotImplemented if q is None else self * (ONE / q)

    def __rtruediv__(self, other):
        q = as_rat(other)
        if q is None:
            return NotImplemented
        if self.is_zero():
            raise ZeroDivisionError("field division by zero")
        if not q:
            return _canonical(_NIL, _UNIT)
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
