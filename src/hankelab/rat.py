"""Exact rational scalars and the combinatorial primitives built on them.

Rational scalars are ``fractions.Fraction`` (aliased ``Rat``), kept in
lowest terms with a positive denominator by the stdlib class itself;
polynomials hold integer numerators over one denominator (``poly.Poly``).
No floating point appears anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)


def rat(value, den=None) -> Rat:
    """Coerce ints, strings like ``"3/4"``, or Fractions to a Rat."""
    if den is not None:
        return Rat(value, den)
    if isinstance(value, Rat):
        return value
    if isinstance(value, int):
        return Rat(value)
    if isinstance(value, str):
        return Rat(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def format_rat(q: Rat) -> str:
    """Serialize as ``"p/q"``, or just ``"p"`` when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rat(s: str) -> Rat:
    return Rat(s.strip())


def binom(top, k: int) -> Rat:
    """Generalized binomial coefficient via the falling factorial.

    ``binom(t, k) = t (t-1) ... (t-k+1) / k!`` for any rational ``t`` and
    integer ``k >= 0``.  Coincides with the ordinary binomial coefficient
    for integer ``t >= k`` and vanishes for integer ``t`` with
    ``0 <= t < k``.
    """
    if k < 0:
        raise ValueError(f"binom lower index must be >= 0, got {k}")
    top = rat(top)
    if k == 0:
        return ONE
    # Pure-integer tops take the fast exact path through math.comb.
    if top.denominator == 1:
        t = top.numerator
        if t >= 0:
            return Rat(math.comb(t, k)) if t >= k else ZERO
        # C(-t, k) = (-1)^k C(k - t - 1, k)
        sign = -1 if k % 2 else 1
        return Rat(sign * math.comb(k - t - 1, k))
    # t = p/q: one integer falling factorial over q^k k!, reduced once
    p, q = top.numerator, top.denominator
    num = 1
    for i in range(k):
        num *= p - i * q
    return Rat(num, q**k * math.factorial(k))


def binom0(top, k: int) -> Rat:
    """``binom`` extended by the convention that a negative lower index is 0."""
    if k < 0:
        return ZERO
    return binom(top, k)


def double_factorial(m: int) -> int:
    """``m!! = m (m-2) (m-4) ...`` down to 2 or 1, with (-1)!! = 0!! = 1."""
    if m < -1:
        raise ValueError(f"double factorial needs m >= -1, got {m}")
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


def factorial(n: int) -> int:
    return math.factorial(n)
