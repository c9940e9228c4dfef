"""Integer Taylor jets: exact derivatives of determinants at a rational point.

At x0 = p/q every entry a_k of a Hankel matrix, in Z[x] of degree <= k,
becomes the integer 3-jet q^k (a_k(x0), a_k'(x0), a_k''(x0)/2).  Entry
(i, j) then carries q^i q^j, a scale per row and per column, so
fraction-free elimination over these jets (the ring ``JET``, run by
``hankel.ladder`` and by ``hankel.det_bareiss`` through the one routine
``hankel.bareiss_steps``) yields the value and the first two derivatives
of a determinant at x0 times a known power of q, without forming the
symbolic determinant and without any gcd.  Interior divisions are exact
(the intermediates are minors of an integer matrix) but require the
divisor to be a unit, a jet with nonzero value.  ``bareiss_steps`` takes
the first unit at or below the next pivot row, else keeps the non-unit
jet, which `_jet_cross` refuses if a later step divides by it; callers
resample the point then.  The value part of a jet step is the integer
step on the value parts of its operands, so a ladder over jets carries
only the values of what is read as a value (every M_n, and K_n and N_n
at its top n), and full jets only where a pivot, H, or its derivatives
are read.  `terms_at` sums the point screen's residuals over Z against
such values.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .hankel import Ring
from .poly import int_poly_hom_eval


class JetNotInvertible(ArithmeticError):
    """Jet division hit a divisor vanishing at the expansion point."""


IntJet = tuple  # length-3 tuples of int


def _jet_cross(p, r, l, u, d) -> IntJet:
    """(p r - l u) / d over jets, the products and the exact division
    written out inline: this is where the relation screen spends its time."""
    p0, p1, p2 = p
    r0, r1, r2 = r
    l0, l1, l2 = l
    u0, u1, u2 = u
    e0 = p0 * r0 - l0 * u0
    e1 = p0 * r1 + p1 * r0 - l0 * u1 - l1 * u0
    e2 = p0 * r2 + p1 * r1 + p2 * r0 - l0 * u2 - l1 * u1 - l2 * u0
    if d is None:
        return (e0, e1, e2)
    d0, d1, d2 = d
    if not d0:
        raise JetNotInvertible("integer jet division by non-unit")
    e0, s0 = divmod(e0, d0)
    e1, s1 = divmod(e1 - e0 * d1, d0)
    e2, s2 = divmod(e2 - e0 * d2 - e1 * d1, d0)
    if s0 or s1 or s2:
        raise ArithmeticError("inexact integer jet division")
    return (e0, e1, e2)


JET = Ring(_jet_cross, lambda a: (-a[0], -a[1], -a[2]), lambda a: a[0] != 0,
           itemgetter(0))


def _taylor_jet(coeffs: Sequence[int], p: int, q: int, s: int) -> IntJet:
    """The first three Taylor coefficients of sum_j c_j x^j at p/q, times
    q^s for s >= the degree: sum_j C(j, i) c_j p^(j-i) q^(s-j+i) for
    i = 0, 1, 2, by one homogeneous Horner pass over Z that also carries
    the derivatives."""
    b0 = b1 = b2 = 0
    qpow = 1
    for c in reversed(coeffs):
        b2 = b2 * p + b1
        b1 = b1 * p + b0
        b0 = b0 * p + c * qpow
        qpow *= q
    # b_i carries q^(top - j) per term; shift it to q^(s - j + i)
    shift = q ** (s + 1 - len(coeffs))
    return (b0 * shift, b1 * shift * q, b2 * shift * q * q)


def int_jets(coeffs: Sequence[Sequence[int]], x0, first: int = 0) -> list[IntJet]:
    """The integer polynomial f with index k (first, first + 1, ...), of
    degree <= k (`hankel.int_entries`), at x0 = p/q as the integer 3-jet
    q^k (f(x0), f'(x0), f''(x0)/2)."""
    x0 = Fraction(x0)
    p, q = x0.numerator, x0.denominator
    return [_taylor_jet(c, p, q, k) for k, c in enumerate(coeffs, first)]


def terms_at(residuals, values, x0) -> list[Fraction]:
    """Each residual's sum of coefficient at x0 times value, as one sum over Z.

    ``residuals`` holds tuples of (symbol, Poly coefficient) terms and
    ``values`` maps each symbol to an integer.  At
    x0 = p/q a coefficient c is hom(c) / (c.den q^deg c), hom(c) its
    numerator's homogeneous Horner sum; brought to the residual's scale
    L q^top (L the lcm of the c.den, top the largest degree), every term is
    an integer and the residual is one sum divided once by L q^top.
    """
    x0 = Fraction(x0)
    p, q = x0.numerator, x0.denominator
    out = []
    for terms in residuals:
        top = max(1, *(len(c.num) for _, c in terms)) - 1
        scale = lcm(*(c.den for _, c in terms))
        total = sum(
            int_poly_hom_eval(c.num, p, q) * q ** (top + 1 - len(c.num))
            * (scale // c.den) * values[s]
            for s, c in terms
        )
        out.append(Fraction(total, scale * q**top))
    return out
