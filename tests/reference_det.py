"""Reference computations the tests compare the integer kernels against.

``det_cofactor`` is the cofactor expansion, exponential and free of any
division.  ``POLY`` and ``RATIONAL`` run ``hankel.det_bareiss`` over
``Poly`` and ``Fraction`` entries directly, with no integer scaling.
``adjugate`` is ``hankel.int_adjugate`` read as Poly entries, and
``cofactor_adjugate`` is adj(A) entry by entry from ``det_cofactor``,
``cramer_trace`` forms Tr(adj(A) X) as n determinants, one per replaced
column, and ``fraction_nullspace`` is Gauss-Jordan over ``Fraction``:
the last two are the computations ``hankel.gauss_jordan`` replaced.
``fraction_jet_quartet`` and ``fraction_screen`` are the relation screen
over ``Fraction``, the computation ``jet.terms_at`` replaced,
``reconstruct`` multiplies a ``factor.FactorReport`` back out, and
``list_factor_smooth`` is trial division over the whole list of primes up to
the bound, the walk the lazy ``factor.factor_smooth`` replaced.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import compress
from typing import Sequence

from hankelab import hankel
from hankelab.factor import FactorReport
from hankelab.hankel import Ring, det_fraction_free
from hankelab.jet import JET
from hankelab.poly import from_int_scaled


def det_cofactor(rows: Sequence[Sequence]) -> object:
    """Cofactor-expansion oracle; exponential, for cross-checks only."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        entry = rows[0][j]
        if not entry:
            continue
        minor = [
            [rows[i][jj] for jj in range(n) if jj != j] for i in range(1, n)
        ]
        term = entry * det_cofactor(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        acc = rows[0][0] - rows[0][0]
    return acc


def _poly_cross(p, r, l, u, d):
    v = p * r - l * u
    return v if d is None else v.exact_div(d)


def _rational_cross(p, r, l, u, d):
    v = p * r - l * u
    return v if d is None else v / d


POLY = Ring(_poly_cross, operator.neg, bool)
RATIONAL = Ring(_rational_cross, operator.neg, bool)


def adjugate(rows):
    """adj(A) as Poly entries: ``hankel.int_adjugate``'s integer rows over
    its scale."""
    ints, scale = hankel.int_adjugate(rows)
    return [[from_int_scaled(v, scale) for v in row] for row in ints]


def cofactor_adjugate(rows):
    """adj(A)_{ij} = (-1)^(i+j) det A with row j and column i deleted."""
    size = len(rows)
    if size == 1:
        return [[rows[0][0] ** 0]]  # the ring's one
    return [
        [
            (-1) ** (i + j)
            * det_cofactor([[rows[r][c] for c in range(size) if c != i] for r in range(size) if r != j])
            for j in range(size)
        ]
        for i in range(size)
    ]


def cramer_trace(a, x):
    """Tr(adj(A) X) for Poly matrices: by Cramer's rule the i-th diagonal
    entry of A^{-1} X times det A is det A with column i replaced by the
    i-th column of X."""
    n = len(a)
    acc = None
    for i in range(n):
        replaced = [list(row) for row in a]
        for r in range(n):
            replaced[r][i] = x[r][i]
        d = det_fraction_free(replaced)
        acc = d if acc is None else acc + d
    return acc


def fraction_nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Basis of the nullspace of a rational matrix, Gauss-Jordan over
    Fraction: the vector of free column f has 1 at f."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [u - f * v for u, v in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -m[row_idx][free]
        basis.append(vec)
    return basis


def fraction_jet_quartet(family, n: int, x0) -> tuple:
    """(H, K, M, N, H', H'') at x0 as Fractions, each times q^((2n+2)(n+1)):
    the family's jet-ladder values lifted and divided one by one."""
    x0 = Fraction(x0)
    q = x0.denominator
    scale, lad = hankel.cached_ladder(family, x0, JET, n)
    h, k, m, nn = (lad.det(n, name) for name in "HKMN")
    lift = q ** ((2 * n + 2) * (n + 1) - n * (n + 1) - 2)
    den = scale ** (n + 1)
    values = (h[0] * q * q, k[0] * q, m[0], nn[0], h[1] * q * q, 2 * h[2] * q * q)
    return tuple(Fraction(v * lift, den) for v in values)


def fraction_screen(residuals, values, x0) -> list[Fraction]:
    """Each residual's sum over Q of its coefficients read at x0 by
    ``Poly.__call__`` times the Fraction values, in (H, K, M, N, H', H'')
    order."""
    named = dict(zip(("H", "K", "M", "N", "dH", "d2H"), values))
    return [sum(c(x0) * named[s] for s, c in terms) for terms in residuals]


def reconstruct(rep) -> int:
    """sign * prod(prime^exp) * cofactor of a FactorReport."""
    acc = rep.sign
    for p, e in rep.small_factors:
        acc *= p**e
    return acc * rep.cofactor


def list_primes_up_to(bound: int) -> list[int]:
    """Every prime <= bound, from a full sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    i = 2
    while i * i <= bound:
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        i += 1
    return list(compress(range(bound + 1), sieve))


def list_factor_smooth(value: int, bound: int) -> FactorReport:
    """``factor.factor_smooth`` as a walk over ``list_primes_up_to(bound)``."""
    sign = 1 if value > 0 else -1
    n = abs(value)
    factors = []
    for p in list_primes_up_to(bound):
        if p * p > n and n > 1:
            if n <= bound:
                factors.append((n, 1))
                n = 1
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        if n == 1:
            break
    return FactorReport(value, sign, tuple(factors), n, bound)
