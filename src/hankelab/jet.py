"""Integer Taylor jets: exact derivatives of determinants at a rational point.

At x0 = p/q every entry a_k of a Hankel matrix becomes the integer 3-jet
q^k (a_k(x0), a_k'(x0), a_k''(x0)/2).  Entry (i, j) then carries q^i q^j,
a scale per row and per column, so fraction-free elimination over these
jets yields the value and the first two derivatives of a determinant at
x0 times a known power of q, without forming the symbolic determinant and
without any gcd.  Interior divisions are exact (the intermediates are
minors of an integer matrix) but require the divisor to be a unit, a jet
with nonzero value; callers resample the point otherwise.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence

from .poly import Poly
from .rat import rat


class JetNotInvertible(ArithmeticError):
    """Jet division hit a divisor vanishing at the expansion point."""


IntJet = tuple  # length-3 tuples of int


def int_jet_mul(a: IntJet, b: IntJet) -> IntJet:
    return (
        a[0] * b[0],
        a[0] * b[1] + a[1] * b[0],
        a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
    )


def int_jet_div(a: IntJet, b: IntJet) -> IntJet:
    if b[0] == 0:
        raise JetNotInvertible("integer jet division by non-unit")
    q0, r = divmod(a[0], b[0])
    if r:
        raise ArithmeticError("inexact integer jet division")
    q1, r = divmod(a[1] - q0 * b[1], b[0])
    if r:
        raise ArithmeticError("inexact integer jet division")
    q2, r = divmod(a[2] - q0 * b[2] - q1 * b[1], b[0])
    if r:
        raise ArithmeticError("inexact integer jet division")
    return (q0, q1, q2)


def _taylor_coeff(coeffs: Sequence[int], i: int, p: int, q: int, s: int) -> int:
    """sum_j C(j, i) c_j p^(j-i) q^(s-j+i), the i-th Taylor coefficient of
    sum_j c_j x^j at p/q times q^s, by homogeneous Horner over Z."""
    top = len(coeffs) - 1
    acc, qpow = 0, 1
    for j in range(top, i - 1, -1):
        acc = acc * p + comb(j, i) * coeffs[j] * qpow
        qpow *= q
    # acc carries q^(top - j) per term; shift it to q^(s - j + i)
    shift = s - top + i
    return acc * q**shift if shift >= 0 else _exact(acc, q**-shift, s)


def _exact(num: int, den: int, s: int) -> int:
    out, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"q^{s} does not clear a Taylor coefficient")
    return out


def int_jets(polys: Sequence[Poly], x0) -> list[IntJet]:
    """The k-th f at x0 = p/q as the integer 3-jet q^k (f(x0), f'(x0), f''(x0)/2).

    The sums run on f's integer numerators, and the jet is divided by
    f's denominator at the end.  Raises ``ArithmeticError`` where q^k
    does not clear a coefficient (a degree above k, or a denominator that
    does not divide).
    """
    x0 = rat(x0)
    p, q = x0.numerator, x0.denominator
    return [
        tuple(_exact(_taylor_coeff(f.num, i, p, q, k), f.den, k) for i in range(3))
        for k, f in enumerate(polys)
    ]


def _eliminate(m: list[list[IntJet]], k: int, prev: Optional[IntJet]) -> None:
    """One Bareiss step on jet rows: every row below k, columns after k.

    Each entry becomes (pivot * entry - lead * pivot-row entry) / prev, with
    the jet products and the exact division written out inline: this loop
    is where the relation screen spends its time.
    """
    pivot_row = m[k]
    p0, p1, p2 = pivot_row[k]
    d0, d1, d2 = prev if prev is not None else (1, 0, 0)
    cols = range(k + 1, len(pivot_row))
    for row in m[k + 1 :]:
        l0, l1, l2 = row[k]
        for j in cols:
            r0, r1, r2 = row[j]
            u0, u1, u2 = pivot_row[j]
            e0 = p0 * r0 - l0 * u0
            e1 = p0 * r1 + p1 * r0 - l0 * u1 - l1 * u0
            e2 = p0 * r2 + p1 * r1 + p2 * r0 - l0 * u2 - l1 * u1 - l2 * u0
            if prev is not None:
                e0, s0 = divmod(e0, d0)
                e1, s1 = divmod(e1 - e0 * d1, d0)
                e2, s2 = divmod(e2 - e0 * d2 - e1 * d1, d0)
                if s0 or s1 or s2:
                    raise ArithmeticError("inexact integer jet division")
            row[j] = (e0, e1, e2)


def int_jet_det(rows: list[list[IntJet]]) -> IntJet:
    """Bareiss over integer jets; pivots must be units (resample otherwise)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    m = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if m[k][k][0] == 0:
            for i in range(k + 1, n):
                if m[i][k][0] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                raise JetNotInvertible("pivot vanishes at the base point")
        _eliminate(m, k, prev)
        prev = m[k][k]
    out = m[n - 1][n - 1]
    return out if sign == 1 else (-out[0], -out[1], -out[2])


def quartet_ladder(jets: list[IntJet], n: int) -> Optional[tuple[IntJet, ...]]:
    """(H_n, K_n, M_n, N_n) from one bordered elimination of [a_{i+j}].

    ``jets`` holds a_0 .. a_{2n+2}, as from ``int_jets``.  Eliminating the
    (n+1) x (n+3) matrix for n steps leaves H_n, K_n and N_n in row n,
    columns n, n+1 and n+2 (Sylvester's identity: after k steps, entry
    (i, j) is the minor on rows 0..k-1, i and columns 0..k-1, j).  M_n, on
    columns 0..n-2, n+1, n, is one 2 x 2 Sylvester step on the state after
    n - 1 steps.

    Returns None where ``int_jet_det`` would pivot or give up on one of the
    four matrices: a leading pivot H_0..H_{n-1} vanishing at x0, or both
    candidates for M's last pivot (column n+1) vanishing.
    """
    if n < 1:
        raise ValueError("the quartet ladder needs n >= 1")
    m = [[jets[i + j] for j in range(n + 3)] for i in range(n + 1)]
    prev = None
    for k in range(n):
        if m[k][k][0] == 0:
            return None
        if k == n - 1:
            # M_n from rows n-1 and n before the last step rewrites row n
            (up_n, up_n1), (lo_n, lo_n1) = m[k][n : n + 2], m[n][n : n + 2]
            if up_n1[0] == 0 and lo_n1[0] == 0:
                return None
            a, b = int_jet_mul(up_n1, lo_n), int_jet_mul(lo_n1, up_n)
            jm = (a[0] - b[0], a[1] - b[1], a[2] - b[2])
            if prev is not None:
                jm = int_jet_div(jm, prev)
        _eliminate(m, k, prev)
        prev = m[k][k]
    jh, jk, jn = m[n][n : n + 3]
    return jh, jk, jm, jn
