"""Reference determinants the tests compare the integer kernels against.

``det_cofactor`` is the cofactor expansion, exponential and free of any
division.  ``POLY`` and ``RATIONAL`` run ``hankel.det_bareiss`` over
``Poly`` and ``Fraction`` entries directly, with no integer scaling.
"""

from __future__ import annotations

import operator
from typing import Sequence

from hankelab.hankel import Ring


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
