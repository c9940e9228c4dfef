"""Dense univariate polynomials over exact rationals, stored over the integers.

The variable is always called x.  A ``Poly`` is the integer polynomial
``num`` over the positive integer ``den``: ``num`` holds the numerators
ascending by degree with no trailing zeros, and gcd(den, *num) == 1, so
every rational polynomial has exactly one (num, den) and equality is
equality of the pair.  The zero polynomial is ((), 1), with degree
``-inf``.  Arithmetic runs over Z on the integer coefficient lists below,
with one gcd normalisation per result; ``coeffs`` gives the Fraction
coefficients on demand.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence

from .rat import Rat, format_rat, parse_rat, rat

NEG_INF = float("-inf")


class Poly:
    """Immutable dense polynomial in Q[x], held as ``num / den`` over Z."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable = ()):
        """The polynomial with the given ints, Fractions or rational strings
        as coefficients, ascending by degree."""
        cs = [c if isinstance(c, int) else rat(c) for c in coeffs]
        den = denominator_lcm(cs)
        num = [c.numerator * (den // c.denominator) for c in cs]
        while num and not num[-1]:
            num.pop()
        # den is the lcm of the reduced denominators (1 for a zero), so
        # gcd(den, *num) == 1 and the zero polynomial gets den 1
        _set_num(self, tuple(num))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def x() -> "Poly":
        return _X

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    # -- basic structure ----------------------------------------------

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        """The coefficients as Fractions, ascending by degree (built per call)."""
        den = self.den
        return tuple(Rat(c, den) for c in self.num)

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.num) - 1 if self.num else NEG_INF

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def coefficient(self, k: int) -> Rat:
        if 0 <= k < len(self.num):
            return Rat(self.num[k], self.den)
        return Rat(0)

    @property
    def leading(self) -> Rat:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Rat(self.num[-1], self.den)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        a, b, den = _common_scale(self, other)
        return _make(int_poly_add(a, b), den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly(tuple(int_poly_neg(self.num)), self.den)

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(other)
        a, b, den = _common_scale(self, other)
        return _make(int_poly_sub(a, b), den)

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return _make(int_poly_mul(self.num, other.num), self.den * other.den)
        if isinstance(other, int):
            return _make([c * other for c in self.num], self.den)
        if isinstance(other, Fraction):
            n = other.numerator
            return _make([c * n for c in self.num], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        # content(f^n) = content(f)^n stays prime to den^n: nothing to reduce
        result, base = [1], list(self.num)
        k = n
        while k:
            if k & 1:
                result = int_poly_mul(result, base)
            k >>= 1
            if k:
                base = int_poly_mul(base, base)
        return _poly(tuple(result), self.den**n)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.den == other.denominator and self.num == (
                (other.numerator,) if other else ()
            )
        return NotImplemented

    def __hash__(self):
        num = self.num
        if len(num) > 1:
            return hash((num, self.den))
        # a constant hashes like the scalar it equals
        return hash(Rat(num[0], self.den)) if num else 0

    # -- calculus and evaluation ----------------------------------------

    def derivative(self, order: int = 1) -> "Poly":
        num = list(self.num)
        for _ in range(order):
            num = [m * c for m, c in enumerate(num)][1:]
        return _make(num, self.den)

    def __call__(self, point) -> Rat:
        """Exact evaluation at p/q by homogeneous Horner over Z.

        The value is sum_i num_i p^i q^(deg - i) over den q^deg.
        """
        point = rat(point)
        if not self.num:
            return Rat(0)
        p, q = point.numerator, point.denominator
        acc, qpow = 0, 1
        for c in reversed(self.num):
            acc = acc * p + c * qpow
            qpow *= q
        return Rat(acc, self.den * (qpow // q))

    def compose_affine(self, a, b) -> "Poly":
        """Return p(a*x + b), exactly.

        With a = an/ad and b = bn/bd, (ad bd)(a x + b) is the integer
        linear form an bd x + bn ad, and homogeneous Horner in it gives
        p(a x + b) times den (ad bd)^deg.
        """
        a, b = rat(a), rat(b)
        scale = a.denominator * b.denominator
        lin = int_poly_add([b.numerator * a.denominator], [0, a.numerator * b.denominator])
        acc: list[int] = []
        spow = 1
        for c in reversed(self.num):
            acc = int_poly_add(int_poly_mul(acc, lin), [c * spow])
            spow *= scale
        return _make(acc, self.den * (spow // scale))

    # -- division ------------------------------------------------------

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder over Q, by pseudo-division over Z.

        Each step scales the running remainder only by the part of the
        divisor's leading coefficient that the eliminated term lacks, so
        s * num = quot * other.num + rem for one positive integer s.
        """
        other = _coerce(other)
        b = other.num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        db = len(b) - 1
        rem = list(self.num)
        shift = len(rem) - 1 - db
        if shift < 0:
            return _ZERO, self
        lead = b[-1]
        size = abs(lead)
        quot = [0] * (shift + 1)
        s = 1
        for i in range(shift, -1, -1):
            t = rem[i + db]
            if not t:
                continue
            g = gcd(t, lead)
            m = size // g
            if m != 1:
                rem = [c * m for c in rem]
                quot = [c * m for c in quot]
                s *= m
                t *= m
            u = t // lead
            quot[i] = u
            for j, c in enumerate(b, i):
                rem[j] -= u * c
        # self = (quot * b.den / (s * self.den)) * other + rem / (s * self.den)
        den = s * self.den
        return _make([c * other.den for c in quot], den), _make(rem[:db], den)

    def exact_div(self, other: "Poly") -> "Poly":
        """Division that must be remainder-free; raises otherwise.

        The nonzero-remainder branch doubles as the correctness tripwire
        for fraction-free elimination.
        """
        q, r = self.divmod(other)
        if not r.is_zero():
            raise InexactDivision(
                f"inexact polynomial division: remainder {r} "
                f"dividing ({self}) by ({other})"
            )
        return q

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd by the Euclidean algorithm."""
        a, b = self, _coerce(other)
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        # a / leading(a) is num over its leading numerator
        return _make(list(a.num), a.num[-1])

    def squarefree_part(self) -> "Poly":
        if self.is_zero():
            raise ValueError("zero polynomial has no squarefree part")
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self
        return self.exact_div(g)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> list[str]:
        """JSON form: array of rational strings, ascending degree."""
        return [format_rat(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence[str]) -> "Poly":
        return Poly([parse_rat(s) for s in data])

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = format_rat(abs(c))
            if k == 0:
                term = mag
            else:
                xs = "x" if k == 1 else f"x^{k}"
                if abs(c) == 1:
                    term = xs
                elif "/" in mag:
                    term = f"{mag} {xs}"
                else:
                    term = f"{mag}{xs}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


_set_num = Poly.num.__set__
_set_den = Poly.den.__set__


def _poly(num: tuple, den: int) -> Poly:
    """A Poly from a pair already in canonical form."""
    p = object.__new__(Poly)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _make(num: list[int], den: int) -> Poly:
    """The Poly num / den for any int list and nonzero int: strips the
    trailing zeros and divides out gcd(den, *num)."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return _ZERO
    if den != 1:
        if den < 0:
            num, den = [-c for c in num], -den
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _poly(tuple(num), den)


def _common_scale(a: Poly, b: Poly) -> tuple[Sequence[int], Sequence[int], int]:
    """The numerators of a and b over their common denominator, and it."""
    da, db = a.den, b.den
    if da == db:
        return a.num, b.num, da
    g = gcd(da, db)
    sa, sb = db // g, da // g
    return [c * sa for c in a.num], [c * sb for c in b.num], da * sa


class InexactDivision(ArithmeticError):
    """An interior division that should have been exact was not."""


# -- integer coefficient lists ------------------------------------------------
#
# Z[x] on plain sequences of ints, ascending by degree with no trailing zeros
# ([] is zero).  ``Poly`` arithmetic runs on these, and they are the ring
# operations the Bareiss kernel in hankel.py is handed directly.


def int_poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product in Z[x]."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def int_poly_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sum in Z[x], with trailing zeros stripped."""
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def int_poly_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Difference in Z[x], with trailing zeros stripped."""
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def int_poly_neg(a: Sequence[int]) -> list[int]:
    return [-c for c in a]


def int_poly_exact_div(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Quotient in Z[x] of a division that must be exact; raises otherwise.

    A leading coefficient that does not divide, or a nonzero remainder,
    raises ``InexactDivision``: the same tripwire as ``Poly.exact_div``.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    db = len(b) - 1
    shift = len(a) - 1 - db
    if shift < 0:
        raise _inexact(a, b)
    lead, low = b[-1], b[:-1]
    rem = list(a)
    quot = [0] * (shift + 1)
    for i in range(shift, -1, -1):
        q, r = divmod(rem[i + db], lead)
        if r:
            raise _inexact(a, b)
        if q:
            quot[i] = q
            for j, c in enumerate(low, i):
                rem[j] -= q * c
    if any(rem[:db]):
        raise _inexact(a, b)
    return quot


def _inexact(a: Sequence[int], b: Sequence[int]) -> InexactDivision:
    return InexactDivision(f"inexact integer polynomial division of {a} by {b}")


def denominator_lcm(values: Iterable[Rat]) -> int:
    """The least common multiple of the values' denominators."""
    scale = 1
    for c in values:
        d = c.denominator
        if d != 1 and scale % d:
            scale = lcm(scale, d)
    return scale


def to_int_scaled(polys: Sequence[Poly]) -> tuple[list[list[int]], int]:
    """Integer coefficient lists of ``scale * p`` for each p, and ``scale``.

    ``scale`` is the lcm of the polynomials' denominators, the least
    common scale that clears every coefficient.
    """
    scale = lcm(*(p.den for p in polys))
    return [
        list(p.num) if p.den == scale else [c * (scale // p.den) for c in p.num]
        for p in polys
    ], scale


def from_int_scaled(coeffs: Sequence[int], scale: int) -> Poly:
    """The Poly with coefficients ``c / scale``."""
    return _make(list(coeffs), scale)


def _coerce(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot coerce {value!r} to Poly")


_ZERO = _poly((), 1)
_ONE = _poly((1,), 1)
_X = _poly((0, 1), 1)
