"""The n-dependent forms as data, and the evaluators of their two kinds.

A form that holds for every n (an ODE coefficient, a relation's
coefficient, a product formula, an almost product's coefficient, a
Chebyshev or Jacobi coefficient, a point multiplier, a Table-1 value, a
(3,1) closed-form weight) is an int table of one of two kinds:

- a polynomial in the indices (n), (n, i) or (n, i, j) is nested rows:
  a row holds ints ascending in n, and each level around it ascends in
  the next index, so (1, 2) is 1 + 2n and ((1, 2), (0, 3)) is
  1 + 2n + 3ni.  `index_poly` reads one at the indices.  A polynomial
  in (n, x) is a tuple of tables, the product of their values, a table
  holding one row in n per power of x, ascending: ((-3,), (1,)) is x - 3
  and ((1, 2), (0, 2, 2)) is (1 + 2n) + (2n + 2n^2) x.  `nx_poly` reads
  one at n.
- a hypergeometric term is (p, q, num, den): p/q times the factors of
  num over the factors of den.  A factor holds one coefficient per index
  its term is read at and a constant: (kind, a, c) in n, (kind, a, b, c)
  in (n, i) and (kind, a, b, d, c) in (n, i, j) stand for m = a n + c,
  a n + b i + c and a n + b i + d j + c.  The factor is m itself (kind
  ""), m! ("!"), the double factorial m!! ("!!", the product
  m (m - 2) ... down to 1 or 2, and 1 for m <= 0), or, for an int kind,
  that base to the power m >= 0.  `term_value` reads one at its indices,
  and `term_sum` sums a term in (n, i) against the powers t^i,
  i = 0..n.

A product formula is an outer term in n times the product over i of an
inner term in (n, i), and an almost product a prefactor times a
`term_sum` in t = x - centre (`closed_forms`); Chebyshev U_n and Jacobi
P_n^(1/2,-1/2) are `term_sum`s in t = y - 1 too.  The (3,1) closed-form
weights sum terms in (n, i, j) times polynomials in (n, i, j)
(`identity_checks`).  Only the check layers import this module: `det`
and `factor` never do.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import mul

from .poly import Poly, from_int_scaled, int_poly_mul


def index_poly(rows, *indices: int) -> int:
    """The polynomial in the indices written as nested rows, at them."""
    *inner, last = indices
    acc = 0
    for row in reversed(rows):  # Horner in the last index
        if inner:
            row = index_poly(row, *inner)
        acc = acc * last + row
    return acc


def nx_poly(factors, n: int) -> Poly:
    """The product of the (n, x) tables in ``factors`` at n, over Z."""
    acc = [1]
    for table in factors:
        acc = int_poly_mul(acc, [index_poly(row, n) for row in table])
    return from_int_scaled(acc, 1)


def term_value(term, *indices: int) -> Fraction:
    """The hypergeometric term (p, q, num, den) at its indices (n), (n, i)
    or (n, i, j).  A factor of another length raises ``ValueError``."""
    p, q, num, den = term
    return Fraction(p * _factors(num, indices), q * _factors(den, indices))


def term_sum(term, n: int, t: Poly | Fraction) -> Poly | Fraction:
    """The sum of the term (p, q, num, den) at (n, i) times t^i over
    i = 0..n, for t a Poly or a Fraction; 0 for n < 0."""
    acc = 0 * t
    for i in range(n, -1, -1):  # Horner in t
        acc = acc * t + term_value(term, n, i)
    return acc


def _factors(factors, indices) -> int:
    acc, width = 1, len(indices) + 2
    for factor in factors:
        if len(factor) != width:
            raise ValueError(f"the factor {factor} is read at {len(factor) - 2} indices, "
                             f"not {len(indices)}")
        kind, m = factor[0], sum(map(mul, factor[1:-1], indices), factor[-1])
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
