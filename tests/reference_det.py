"""Reference computations the tests compare the integer kernels against.

``det_cofactor`` is the cofactor expansion, exponential and free of any
division.  ``POLY`` and ``RATIONAL`` run ``hankel.det_bareiss`` over
``Poly`` and ``Fraction`` entries directly, with no integer scaling.
``cofactor_adjugate`` is adj(A) entry by entry from ``det_cofactor``,
``cramer_trace`` forms Tr(adj(A) X) as n determinants, one per replaced
column, and ``fraction_nullspace`` is Gauss-Jordan over ``Fraction``:
the last two are the computations ``hankel.gauss_jordan`` replaced.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

from hankelab.hankel import Ring, det_fraction_free


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
