"""Reference computations the tests compare the integer kernels against.

``det_cofactor`` is the cofactor expansion, exponential and free of any
division.  ``POLY`` and ``RATIONAL`` run ``hankel.det_bareiss`` over
``Poly`` and ``Fraction`` entries directly, with no integer scaling.
``adjugate`` is ``hankel_checks.int_adjugate`` of a Poly matrix, each row
scaled to Z[x] first and the scales divided back out, and
``cofactor_adjugate`` is adj(A) entry by entry from ``det_cofactor``,
``cramer_trace`` forms Tr(adj(A) X) as n determinants, one per replaced
column, and ``fraction_nullspace`` is Gauss-Jordan over ``Fraction``:
the last two are the computations ``hankel_checks.gauss_jordan`` replaced.
``fraction_jet_quartet`` and ``fraction_screen`` are the relation screen
over ``Fraction``, the computation ``jet.terms_at`` replaced,
``reconstruct`` multiplies a ``factor.FactorReport`` back out, and
``list_factor_smooth`` is trial division over the whole list of primes up to
the bound, the walk the lazy ``factor.factor_smooth`` replaced.
``schoolbook_mul``, ``mul_then_add`` and ``mul_sub_cross`` form each Z[x]
product on its own list and add it afterwards, the compositions
``poly.int_poly_addmul`` and ``hankel._int_poly_cross`` replaced.
``full_row_ladder`` is ``hankel.ladder`` stepping every entry of each row,
the elimination the symmetric ladder replaced.  ``power`` is a ``Poly``
to an int power by repeated products, for the oracles' written forms.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import compress
from math import prod
from typing import Sequence

from hankelab import hankel, hankel_checks
from hankelab.factor import FactorReport
from hankelab.hankel import Ladder, Ring, det_fraction_free
from hankelab.jet import JET
from hankelab.poly import (
    from_int_scaled,
    int_poly_add_into,
    int_poly_exact_div,
    to_int_scaled,
)


def power(p, e: int):
    """p * p * ... * p, e factors (the ring's one for e = 0)."""
    return prod([p] * e, start=0 * p + 1)


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


def schoolbook_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product in Z[x], formed on a list of its own."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b, i):
            out[j] += ca * cb
    return out


def mul_then_add(acc: list[int], a: Sequence[int], b: Sequence[int], weight: int = 1) -> None:
    """acc += weight * a * b: the product first, then ``int_poly_add_into``."""
    int_poly_add_into(acc, schoolbook_mul(a, b), weight)


def mul_sub_cross(p, r, l, u, d) -> list[int]:
    """(p r - l u) / d over Z[x]: two products, each added on its own by
    ``mul_then_add``, trailing zeros stripped, and the exact division when
    d is not None."""
    v: list[int] = []
    mul_then_add(v, p, r)
    mul_then_add(v, l, u, -1)
    while v and not v[-1]:
        v.pop()
    return v if d is None else int_poly_exact_div(v, d)


POLY = Ring(_poly_cross, operator.neg, bool)
RATIONAL = Ring(_rational_cross, operator.neg, bool)


def full_row_ladder(entries: Sequence, ring: Ring, lad: Ladder | None = None) -> Ladder:
    """``hankel.ladder`` with row i's step k run over columns k+1..N+2, so
    the lead of each step is formed by the row's earlier steps and nothing
    is read off another row: the elimination before the symmetric ladder."""
    value, int_cross = ring.value, hankel._int_cross
    if lad is None or value is not None:
        lad = Ladder(ring, [], [], [])
    e, rows = lad.entries, lad.rows
    e.extend(entries[len(e) :])
    width = (len(e) - 3) // 2 + 3
    full = width if value is None else width - 2
    cross = ring.cross
    piv = [None] + [row[k] for k, row in enumerate(rows)]
    for i, row in enumerate(rows):
        for j in range(len(row), width):
            v = e[i + j]
            for k in range(i):
                v = cross(piv[k + 1], v, row[k], rows[k][j], piv[k])
            row.append(v)
    for i in range(len(rows), width - 2):
        if i and not ring.unit(piv[i]):
            break
        row = e[i : i + width]
        if full < width:
            row[full:] = map(value, row[full:])
        m = None
        for k in range(i):
            up = rows[k]
            p, d, lead = piv[k + 1], piv[k], row[k]
            if full < width:
                p0, l0, d0 = value(p), value(lead), d if d is None else value(d)
            if k == i - 1:
                if i + 1 < full:
                    m = cross(up[i + 1], row[i], row[i + 1], up[i], d)
                else:
                    m = int_cross(up[i + 1], value(row[i]), row[i + 1], value(up[i]), d0)
            for j in range(k + 1, full):
                row[j] = cross(p, row[j], lead, up[j], d)
            for j in range(full, width):
                row[j] = int_cross(p0, row[j], l0, up[j], d0)
        rows.append(row)
        lad.m.append(m)
        piv.append(row[i])
    return lad


def adjugate(rows):
    """adj(A) as Poly entries, for a square Poly matrix A.

    With D the diagonal of the row scales that make D A integral,
    adj(A) = adj(D A) D / det D: column j of ``hankel_checks.int_adjugate``
    of D A times d_j, over the product of the scales.
    """
    scaled = [to_int_scaled(row) for row in rows]
    scales = [s for _, s in scaled]
    ints = hankel_checks.int_adjugate([r for r, _ in scaled])
    total = prod(scales)
    return [[from_int_scaled([c * d for c in v], total) for v, d in zip(row, scales)]
            for row in ints]


def cofactor_adjugate(rows):
    """adj(A)_{ij} = (-1)^(i+j) det A with row j and column i deleted."""
    size = len(rows)
    if size == 1:
        return [[power(rows[0][0], 0)]]
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
    the family's jet-ladder values (H a 3-jet, K, M and N values) lifted
    one by one."""
    x0 = Fraction(x0)
    q = x0.denominator
    lad = hankel.cached_ladder(family, x0, JET, n)
    h, k, m, nn = (lad.det(n, name) for name in "HKMN")
    lift = q ** ((2 * n + 2) * (n + 1) - n * (n + 1) - 2)
    values = (h[0] * q * q, k * q, m, nn, h[1] * q * q, 2 * h[2] * q * q)
    return tuple(Fraction(v * lift) for v in values)


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
