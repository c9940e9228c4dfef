"""The n-dependent forms as data: one evaluator for each of their two kinds.

A form that holds for every n (an ODE coefficient, a relation's
coefficient, a product formula, an almost product's coefficient, a point
multiplier) is an int table of one of two kinds:

- a polynomial in (n, x) is a tuple of tables, the product of their
  values.  A table holds one row per power of x, ascending, and a row
  holds the ints of that coefficient ascending in n: ((-3,), (1,)) is
  x - 3 and ((1, 2), (0, 2, 2)) is (1 + 2n) + (2n + 2n^2) x.
  `nx_poly` reads one at n.
- a hypergeometric term in n, or in (n, i), is (p, q, num, den): p/q times
  the factors of num over the factors of den.  A factor (kind, a, b, c)
  stands for m = a n + b i + c itself (kind ""), for m! ("!"), for the
  double factorial m!! ("!!", the product m (m - 2) ... down to 1 or 2,
  and 1 for m <= 0), or, for an int kind, that base to the power m >= 0.
  `term_value` reads one at (n, i).

A product formula is an outer term times the product over i of an inner
term, and an almost product a prefactor times the sum over i of a term
times (x - centre)^i (`closed_forms`).  Only the check layers import this
module: `det` and `factor` never do.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .poly import Poly, from_int_scaled, int_poly_mul


def nx_poly(factors, n: int) -> Poly:
    """The product of the (n, x) tables in ``factors`` at n, over Z."""
    acc = [1]
    for table in factors:
        coeffs = []
        for row in table:
            value = 0
            for c in reversed(row):  # Horner in n
                value = value * n + c
            coeffs.append(value)
        acc = int_poly_mul(acc, coeffs)
    return from_int_scaled(acc, 1)


def term_value(term, n: int, i: int = 0) -> Fraction:
    """The hypergeometric term (p, q, num, den) at (n, i)."""
    p, q, num, den = term
    return Fraction(p * _factors(num, n, i), q * _factors(den, n, i))


def _factors(factors, n: int, i: int) -> int:
    acc = 1
    for kind, a, b, c in factors:
        m = a * n + b * i + c
        if kind == "":
            acc *= m
        elif kind == "!":
            acc *= factorial(m)
        elif kind == "!!":
            acc *= prod(range(m, 0, -2))
        elif m < 0:
            raise ValueError(f"negative power {m} of the base {kind}")
        else:
            acc *= kind**m
    return acc
