"""The n-dependent forms as data, and the evaluators of their two kinds.

A form that holds for every n (an ODE coefficient, a relation's
coefficient, a product formula, an almost product's coefficient, a
Chebyshev or Jacobi coefficient, a point multiplier, a Table-1 value) is
an int table of one of two kinds:

- a polynomial in (n, x) is a tuple of tables, the product of their
  values.  A table holds one row per power of x, ascending, and a row
  holds the ints of that coefficient ascending in n: ((-3,), (1,)) is
  x - 3 and ((1, 2), (0, 2, 2)) is (1 + 2n) + (2n + 2n^2) x.
  `nx_poly` reads one at n.  A row alone is a polynomial in n, read at
  n by `poly.int_poly_hom_eval(row, n, 1)`.
- a hypergeometric term in n, or in (n, i), is (p, q, num, den): p/q times
  the factors of num over the factors of den.  A factor (kind, a, b, c)
  stands for m = a n + b i + c itself (kind ""), for m! ("!"), for the
  double factorial m!! ("!!", the product m (m - 2) ... down to 1 or 2,
  and 1 for m <= 0), or, for an int kind, that base to the power m >= 0.
  `term_value` reads one at (n, i), and `term_sum` sums the term in
  (n, i) against the powers t^i, i = 0..n.

A product formula is an outer term times the product over i of an inner
term, and an almost product a prefactor times a `term_sum` in
t = x - centre (`closed_forms`); Chebyshev U_n and Jacobi P_n^(1/2,-1/2)
are `term_sum`s in t = y - 1 too.  Only the check layers import this
module: `det` and `factor` never do.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .poly import Poly, from_int_scaled, int_poly_hom_eval, int_poly_mul


def nx_poly(factors, n: int) -> Poly:
    """The product of the (n, x) tables in ``factors`` at n, over Z."""
    acc = [1]
    for table in factors:
        acc = int_poly_mul(acc, [int_poly_hom_eval(row, n, 1) for row in table])
    return from_int_scaled(acc, 1)


def term_value(term, n: int, i: int | None = None) -> Fraction:
    """The hypergeometric term (p, q, num, den) at (n, i).  Without i, a
    factor that reads i (b != 0) raises ``ValueError``."""
    p, q, num, den = term
    return Fraction(p * _factors(num, n, i), q * _factors(den, n, i))


def term_sum(term, n: int, t: Poly | Fraction) -> Poly | Fraction:
    """The sum of the term (p, q, num, den) at (n, i) times t^i over
    i = 0..n, for t a Poly or a Fraction; 0 for n < 0."""
    acc = 0 * t
    for i in range(n, -1, -1):  # Horner in t
        acc = acc * t + term_value(term, n, i)
    return acc


def _factors(factors, n: int, i: int | None) -> int:
    acc = 1
    for kind, a, b, c in factors:
        if b and i is None:
            raise ValueError(f"the factor {(kind, a, b, c)} reads i, and no i is given")
        m = a * n + b * (i or 0) + c
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
