"""Dense univariate polynomials over exact rationals.

The variable is always called x.  Coefficients are stored ascending by
degree with no trailing zeros; the zero polynomial has an empty
coefficient tuple and degree ``-inf``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Iterable, Sequence, Union

from .rat import Rat, format_rat, parse_rat, rat

NEG_INF = float("-inf")

Scalar = Union[int, Fraction]


class Poly:
    """Immutable dense polynomial in Q[x]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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
        return Poly([rat(c)])

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        return Poly([0] * k + [rat(c)])

    # -- basic structure ----------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int) -> Rat:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Rat(0)

    @property
    def leading(self) -> Rat:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return _ZERO
            q = rat(other)
            return Poly([c * q for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        out = [Rat(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result, base = _ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- calculus and evaluation ----------------------------------------

    def derivative(self, order: int = 1) -> "Poly":
        p = self
        for _ in range(order):
            p = Poly([m * c for m, c in enumerate(p.coeffs)][1:])
        return p

    def __call__(self, point) -> Rat:
        """Exact evaluation by Horner's rule."""
        point = rat(point)
        acc = Rat(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose_affine(self, a, b) -> "Poly":
        """Return p(a*x + b), exactly."""
        arg = Poly([rat(b), rat(a)])
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * arg + Poly.const(c)
        return acc

    # -- division ------------------------------------------------------

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return _ZERO, self
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        quot = [Rat(0)] * (len(rem) - d)
        for i in range(len(rem) - d - 1, -1, -1):
            c = rem[i + d] / lead
            if c:
                quot[i] = c
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] -= c * oc
        return Poly(quot), Poly(rem)

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
        return a * (1 / a.leading)

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
        if not self.coeffs:
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


class InexactDivision(ArithmeticError):
    """An interior division that should have been exact was not."""


# -- integer coefficient lists ------------------------------------------------
#
# Elimination runs over Z[x] on plain lists of ints, ascending by degree with
# no trailing zeros ([] is zero).  These are the ring operations the Bareiss
# kernel in hankel.py is handed; ``Poly`` results are built once at the end.


def int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product in Z[x]."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


def int_poly_sub(a: list[int], b: list[int]) -> list[int]:
    """Difference in Z[x], with trailing zeros stripped."""
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def int_poly_neg(a: list[int]) -> list[int]:
    return [-c for c in a]


def int_poly_exact_div(a: list[int], b: list[int]) -> list[int]:
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


def _inexact(a: list[int], b: list[int]) -> InexactDivision:
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

    ``scale`` is the lcm of every coefficient denominator, the least
    common scale that clears them all.
    """
    scale = denominator_lcm(c for p in polys for c in p.coeffs)
    return [[c.numerator * (scale // c.denominator) for c in p.coeffs] for p in polys], scale


def from_int_scaled(coeffs: Sequence[int], scale: int) -> Poly:
    """The Poly with coefficients ``c / scale``."""
    return Poly([Rat(c, scale) for c in coeffs])


def _coerce(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot coerce {value!r} to Poly")


_ZERO = Poly()
_ONE = Poly([1])
_X = Poly([0, 1])
