"""Dense univariate polynomials over exact rationals, stored over the integers.

The variable is always called x.  A ``Poly`` is the integer polynomial
``num`` over the positive integer ``den``: ``num`` holds the numerators
ascending by degree with no trailing zeros, and gcd(den, *num) == 1, so
every rational polynomial has exactly one (num, den) and equality is
equality of the pair.  The zero polynomial is ((), 1), with degree
``-inf``.  Arithmetic runs over Z on the integer coefficient lists below,
with one gcd normalisation per result (``from_int_scaled``); ``coeffs``
gives the Fraction coefficients on demand.  There is one loop of each
kind over Z[x]: ``int_poly_addmul``, acc += w * a * b in place, multiplies
(a product is an addmul into an empty list, and a Bareiss step or a sum of
products accumulates into one list); ``int_poly_add_into``, acc += w * t,
adds; ``int_poly_exact_div`` divides, raising where the division is not
exact; and ``to_int_scaled`` brings Polys to one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from collections.abc import Iterable, Sequence


NEG_INF = float("-inf")


class Poly:
    """Immutable dense polynomial in Q[x], held as ``num / den`` over Z."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable = ()):
        """The polynomial with the given ints, Fractions or rational strings
        as coefficients, ascending by degree."""
        cs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = denominator_lcm(cs)
        p = from_int_scaled([c.numerator * (den // c.denominator) for c in cs], den)
        _set_num(self, p.num)
        _set_den(self, p.den)

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
    def const(c) -> "Poly":
        return Poly([c])

    # -- basic structure ----------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending by degree (built per call)."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.num) - 1 if self.num else NEG_INF

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.num):
            return Fraction(self.num[k], self.den)
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Poly":
        return _weighted_sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly(tuple(int_poly_neg(self.num)), self.den)

    def __sub__(self, other) -> "Poly":
        return _weighted_sum(self, other, -1)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return from_int_scaled(int_poly_mul(self.num, other.num), self.den * other.den)
        if isinstance(other, int):
            return from_int_scaled([c * other for c in self.num], self.den)
        if isinstance(other, Fraction):
            n = other.numerator
            return from_int_scaled([c * n for c in self.num], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

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
        return hash(Fraction(num[0], self.den)) if num else 0

    # -- calculus and evaluation ----------------------------------------

    def derivative(self, order: int = 1) -> "Poly":
        num = list(self.num)
        for _ in range(order):
            num = [m * c for m, c in enumerate(num)][1:]
        return from_int_scaled(num, self.den)

    def __call__(self, point) -> Fraction:
        """Exact evaluation at p/q by homogeneous Horner over Z.

        The value is sum_i num_i p^i q^(deg - i) over den q^deg.
        """
        point = Fraction(point)
        if not self.num:
            return Fraction(0)
        q = point.denominator
        return Fraction(int_poly_hom_eval(self.num, point.numerator, q),
                        self.den * q ** (len(self.num) - 1))

    def compose_affine(self, a, b) -> "Poly":
        """Return p(a*x + b), exactly.

        With a = an/ad and b = bn/bd, (ad bd)(a x + b) is the integer
        linear form an bd x + bn ad, and homogeneous Horner in it gives
        p(a x + b) times den (ad bd)^deg.
        """
        a, b = Fraction(a), Fraction(b)
        scale = a.denominator * b.denominator
        lin = [b.numerator * a.denominator, a.numerator * b.denominator]
        acc: list[int] = []
        spow = 1
        for c in reversed(self.num):
            step = [c * spow]
            int_poly_addmul(step, acc, lin)
            acc = step
            spow *= scale
        return from_int_scaled(acc, self.den * (spow // scale))

    # -- division ------------------------------------------------------

    def exact_div(self, other: "Poly") -> "Poly":
        """Division that must be remainder-free; raises ``InexactDivision``
        otherwise.

        By Gauss's lemma a primitive divisor that divides over Q divides
        over Z, so the numerator is divided by the divisor's primitive part
        with ``int_poly_exact_div`` and its content joins the denominator.
        """
        other = as_poly(other)
        b = other.num
        content = gcd(*b)
        quot = int_poly_exact_div(self.num, [c // content for c in b] if content > 1 else b)
        return from_int_scaled([c * other.den for c in quot], self.den * content)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> list[str]:
        """JSON form: array of rational strings, ascending degree."""
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence[str]) -> "Poly":
        return Poly(data)

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = str(abs(c))
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


def _weighted_sum(a: Poly, b, weight: int) -> Poly:
    """a + weight * b for an int, Fraction or Poly b, over Z on the
    numerators brought to one scale."""
    if not isinstance(b, Poly):
        if not isinstance(b, (int, Fraction)):
            return NotImplemented
        b = Poly.const(b)
    (acc, term), scale = to_int_scaled((a, b))
    int_poly_add_into(acc, term, weight)
    return from_int_scaled(acc, scale)


class InexactDivision(ArithmeticError):
    """An interior division that should have been exact was not."""


# -- integer coefficient lists ------------------------------------------------
#
# Z[x] on plain sequences of ints, ascending by degree with no trailing zeros
# ([] is zero).  ``Poly`` arithmetic runs on these, and they are the ring
# operations the Bareiss kernel in hankel.py is handed directly.


def int_poly_addmul(acc: list[int], a: Sequence[int], b: Sequence[int], weight: int = 1) -> None:
    """acc += weight * a * b in Z[x], in place and in one pass.

    This is the only multiplication loop over Z[x]: products, Bareiss
    steps and sums of products all accumulate through it.  ``acc`` grows
    as needed and keeps trailing zeros, as in ``int_poly_add_into``; it
    must not be ``a`` or ``b``.
    """
    if not a or not b:
        return
    acc.extend([0] * (len(a) + len(b) - 1 - len(acc)))
    for i, ca in enumerate(a):
        ca *= weight
        if ca:
            for j, cb in enumerate(b, i):
                acc[j] += ca * cb


def int_poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product in Z[x]."""
    out: list[int] = []
    int_poly_addmul(out, a, b)
    return out


def int_poly_neg(a: Sequence[int]) -> list[int]:
    return [-c for c in a]


def int_poly_add_into(acc: list[int], term: Sequence[int], weight: int = 1) -> None:
    """acc += weight * term in Z[x], in place (trailing zeros are left)."""
    acc.extend([0] * (len(term) - len(acc)))
    for i, c in enumerate(term):
        acc[i] += weight * c


def int_poly_hom_eval(a: Sequence[int], p: int, q: int) -> int:
    """q^deg a(p/q), the integer sum_i a_i p^i q^(deg - i), by Horner."""
    acc, qpow = 0, 1
    for c in reversed(a):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


def int_poly_exact_div(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Quotient in Z[x] of a division that must be exact; raises otherwise.

    A leading coefficient that does not divide, or a nonzero remainder,
    raises ``InexactDivision``.  This is the one division loop: the
    fraction-free elimination and ``Poly.exact_div`` both run on it.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    if len(b) == 1 and b[0] in (1, -1):  # a unit divides exactly
        return list(a) if b[0] == 1 else [-c for c in a]
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


def lin_comb(pairs: Iterable[tuple[object, Poly]]) -> Poly:
    """The sum of c * p over (c, p) pairs, c an int, Fraction or Poly.

    Every product is brought to the lcm of the products' denominators and
    accumulated over Z by ``int_poly_addmul`` (a scalar c only weights p's
    numerators); the sum is normalised once, not once per term.
    """
    pairs = list(pairs)
    scale = lcm(*(p.den * (c.den if isinstance(c, Poly) else c.denominator) for c, p in pairs))
    acc: list[int] = []
    for c, p in pairs:
        if isinstance(c, Poly):
            int_poly_addmul(acc, c.num, p.num, scale // (c.den * p.den))
        else:
            int_poly_add_into(acc, p.num, c.numerator * (scale // (c.denominator * p.den)))
    return from_int_scaled(acc, scale)


def denominator_lcm(values: Iterable[Fraction]) -> int:
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
    scale = lcm(*[p.den for p in polys])
    return [
        list(p.num) if p.den == scale else [c * (scale // p.den) for c in p.num]
        for p in polys
    ], scale


def from_int_scaled(coeffs: Sequence[int], scale: int) -> Poly:
    """The Poly with coefficients ``c / scale``, for any int sequence and
    nonzero int: trailing zeros are stripped and gcd(scale, *coeffs)
    divided out.  ``coeffs`` itself is never changed (ladder entries are
    shared), so the one copy made is the Poly's own tuple."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    if not end:
        return _ZERO
    num = coeffs if end == len(coeffs) else coeffs[:end]
    if scale != 1:
        if scale < 0:
            num, scale = [-c for c in num], -scale
        g = gcd(scale, *num)
        if g != 1:
            num = [c // g for c in num]
            scale //= g
    return _poly(tuple(num), scale)


def as_poly(value) -> Poly:
    """An int, Fraction or Poly as a Poly."""
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot coerce {value!r} to Poly")


_ZERO = _poly((), 1)
_ONE = _poly((1,), 1)
