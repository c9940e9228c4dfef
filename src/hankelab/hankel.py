"""Hankel matrices over Poly and their exact determinant machinery.

All of it is fraction-free (Bareiss) elimination over an integral domain,
Z[x] or Z at a rational point, whose exact interior divisions raise on
any remainder.  ``bareiss_steps`` is the one elimination of a single
matrix, below the pivot for ``det_bareiss`` and in full for Gauss-Jordan
(``hankel_checks.py``); a column's pivot is the first nonzero entry at or
below the next pivot row, else the column has none.  ``ladder``
eliminates [a_{i+j}], read unscaled from ``int_entries``, once for H_n,
K_n, M_n and N_n at every n; a per-process cache grows it.
``det_fraction_free`` and ``hankel_matrix`` serve the degree-bound
instances, tests and perfbench.
"""

from __future__ import annotations

import operator
from _thread import allocate_lock
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import prod

from .poly import (
    InexactDivision,
    Poly,
    from_int_scaled,
    int_poly_addmul,
    int_poly_exact_div,
    int_poly_hom_eval,
    int_poly_neg,
    to_int_scaled,
)
from .sequences import VARIANTS, FamilyId, a_poly


# ---------------------------------------------------------------------------
# Generic exact determinants
# ---------------------------------------------------------------------------


class Ring(namedtuple("Ring", "cross neg")):
    """The operations Bareiss elimination needs from an integral domain.

    ``cross(p, r, l, u, d)`` is the fused step (p*r - l*u) / d, where d is
    None for 1; the division is exact in the ring, and an implementation
    raises on a remainder.  ``neg(v)`` is -v.  An element's truth value
    tells whether it is nonzero, so whether it can be a pivot.
    """

    __slots__ = ()


def _int_cross(p: int, r: int, l: int, u: int, d: int | None) -> int:
    v = p * r - l * u
    if d is None:
        return v
    q, rem = divmod(v, d)
    if rem:
        raise InexactDivision(f"inexact integer division of {v} by {d}")
    return q


def _int_poly_cross(p, r, l, u, d) -> list[int]:
    v: list[int] = []
    int_poly_addmul(v, p, r)
    int_poly_addmul(v, l, u, -1)
    while v and not v[-1]:
        v.pop()
    return v if d is None else int_poly_exact_div(v, d)


INT = Ring(_int_cross, operator.neg)
INT_POLY = Ring(_int_poly_cross, int_poly_neg)


def int_entries(family: FamilyId, start: int, stop: int) -> list[list[int]]:
    """a_start .. a_{stop-1} as integer coefficient lists.

    Every family's a_k lies in Z[x] and has degree <= k, so a_k is itself
    an entry over Z[x], and q^k a_k(p/q) is an integer.  The
    eliminations of [a_{i+j}] read the a_k only through here, and an a_k
    with a denominator or a degree above k raises ``ValueError``.
    """
    out = []
    for k in range(start, stop):
        f = a_poly(family, k)
        if f.den != 1 or len(f.num) > k + 1:
            raise ValueError(f"a_{k} of {family} is not an integer polynomial of degree <= {k}")
        out.append(list(f.num))
    return out


def int_hankel(family: FamilyId, n: int) -> list[list[list[int]]]:
    """The (n+1) x (n+1) matrix [a_{i+j}] of integer coefficient lists,
    its rows slices of one `int_entries` list."""
    e = int_entries(family, 0, 2 * n + 1)
    return [e[i : i + n + 1] for i in range(n + 1)]


def bareiss_steps(m: list[list], ring: Ring, full: bool = False):
    """Fraction-free elimination of the rows ``m`` in place, one pivot at a
    time: yields (pivot columns, sign) after each pivot.

    Column c's pivot is the first nonzero entry at or below the next pivot
    row, swapped up, flipping the sign; a column with none is skipped.  The
    step (p r - l u) / d, d the previous pivot, updates the rows below the
    pivot right of its column, or with ``full`` every other row (Gauss-Jordan)."""
    cross = ring.cross
    pivots, sign, prev = [], 1, None
    width = len(m[0]) if m else 0
    for c in range(width):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr], sign = m[pr], m[r], -sign
        pivot_row, p = m[r], m[r][c]
        cols = range(width) if full else range(c + 1, width)
        for row in m if full else m[r + 1 :]:
            if row is not pivot_row:
                lead = row[c]
                for j in cols:
                    row[j] = cross(p, row[j], lead, pivot_row[j], prev)
        pivots.append(c)
        prev = p
        yield pivots, sign


def det_bareiss(rows: Sequence[Sequence], ring: Ring) -> object:
    """The determinant of a square matrix from the below-the-pivot run of
    `bareiss_steps`: its last pivot times the sign of its row swaps, or the
    zero entry of the first column with no pivot."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if n == 1:
        return rows[0][0]
    m = [list(row) for row in rows]
    k, sign = 0, 1
    for pivots, sign in bareiss_steps(m, ring):
        if pivots[-1] != k:
            break
        k += 1
    if k < n:  # rows k.. are zero in column k
        return m[k][k]
    return m[-1][-1] if sign == 1 else ring.neg(m[-1][-1])


def det_fraction_free(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square Poly matrix: each row scaled to Z[x]
    by the lcm of its denominators, eliminated over Z[x], and the result
    divided by the product of the row scales once."""
    scaled = [to_int_scaled(row) for row in rows]
    det = det_bareiss([int_row for int_row, _ in scaled], INT_POLY)
    return from_int_scaled(det, prod(scale for _, scale in scaled))


# ---------------------------------------------------------------------------
# Hankel matrices and the determinant quartet
# ---------------------------------------------------------------------------


def hankel_matrix(family: FamilyId, n: int) -> list[list[Poly]]:
    """The (n+1) x (n+1) matrix [a_{i+j}(x)]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [[a_poly(family, i + j) for j in range(n + 1)] for i in range(n + 1)]


def _variant_columns(n: int, variant: str) -> list[int]:
    """The columns of [a_{i+j}] whose determinant is the variant at n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {', '.join(VARIANTS)}")
    if variant in ("M", "N") and n == 0:
        raise ValueError(f"{variant}_0 is undefined (layout needs n >= 1)")
    base = list(range(n))
    if variant == "M":
        return base[:-1] + [n + 1, n]
    return base + [n + "HKN".index(variant)]


class Ladder(namedtuple("Ladder", "ring entries rows m")):
    """One fraction-free elimination of the Hankel matrix [e_{i+j}].

    ``entries`` holds e_0 .. e_{2N+2} and ``rows[i]`` is row i of the
    (N+1) x (N+3) matrix after i Bareiss steps.  By Sylvester's identity
    its entry j >= i is then the minor on rows 0..i and columns 0..i-1, j,
    so row n holds H_n, K_n and N_n at columns n, n+1 and n+2.  Its entry
    k < i is the lead of its step k, the minor on rows 0..k-1, i and
    columns 0..k; the matrix is symmetric, so that is the transposed minor
    on rows 0..k and columns 0..k-1, i, which is ``rows[k][i]``.  It is
    stored as that same object, never formed, and kept so that new
    columns can replay the steps.  ``m[n]`` is M_n (None at n = 0).
    Rows end at the first pivot H_k that is zero, at n = k.  The lists grow
    in place as the ladder is extended.
    """

    __slots__ = ()

    def det(self, n: int, variant: str) -> object:
        """The variant's determinant at n, read off the rows where they
        reach n and otherwise eliminated on its own with row pivoting."""
        if n >= len(self.rows):
            e = self.entries
            cols = _variant_columns(n, variant)
            return det_bareiss([[e[c + i] for c in cols] for i in range(n + 1)], self.ring)
        if variant == "M":
            return self.m[n]
        return self.rows[n][n + "HKN".index(variant)]


def ladder(entries: Sequence, ring: Ring, lad: Ladder | None = None) -> Ladder:
    """Eliminate [e_{i+j}] once for every n <= N = (len(entries) - 3) // 2.

    ``lad``, the ladder of a prefix of ``entries``, grows in place: new
    columns of its rows replay their stored pivots and leads, and new rows
    run every step.  Row i's step k updates only its columns i..N+2: its
    columns k+1..i-1 would be read only as the leads of its later steps,
    and by the symmetry of [e_{i+j}] (see `Ladder`) the lead of step k is
    ``rows[k][i]``, which row k already holds: about N^3/6 steps, not
    N^3/3.  M_n is one 2 x 2 Sylvester step on rows n-1 and n just before
    row n's last step, over columns n and n+1.
    """
    if lad is None:
        lad = Ladder(ring, [], [], [])
    e, rows = lad.entries, lad.rows
    e.extend(entries[len(e) :])
    width = (len(e) - 3) // 2 + 3
    cross = ring.cross
    # piv[k + 1] is the pivot H_k of step k, and piv[k] the step's divisor
    piv = [None] + [row[k] for k, row in enumerate(rows)]
    for i, row in enumerate(rows):
        for j in range(len(row), width):
            v = e[i + j]
            for k in range(i):
                v = cross(piv[k + 1], v, rows[k][i], rows[k][j], piv[k])
            row.append(v)
    for i in range(len(rows), width - 2):
        if i and not piv[i]:
            break
        row = e[i : i + width]
        m = None
        for k in range(i):
            up = rows[k]
            # the lead is row k's entry at column i (symmetry); stored as
            # row[k], the entry this step would have formed
            p, d, lead = piv[k + 1], piv[k], up[i]
            row[k] = lead
            if k == i - 1:
                m = cross(up[i + 1], row[i], row[i + 1], up[i], d)
            for j in range(i, width):
                row[j] = cross(p, row[j], lead, up[j], d)
        rows.append(row)
        lad.m.append(m)
        piv.append(row[i])
    return lad


# (family, point or None, ring) -> ladder: entry k of the ladder is a_k over
# Z[x], and q^k a_k(x0) over Z at x0 = p/q.  Point ladders are many and are
# mostly read at one n, so only the latest few are kept.
_ladders: dict[tuple, Ladder] = {}
_ladders_lock = allocate_lock()  # threading.Lock, without importing threading
_POINT_LADDERS_KEPT = 4


def cached_ladder(family: FamilyId, x0: Fraction | None, ring: Ring, n: int) -> Ladder:
    """The family's ladder at x0 over the ring, grown in place to hold n,
    whose entries are q^k a_k(x0) (x0 None and q = 1 over Z[x]).  Its
    determinant on columns c_0..c_n is q^(n(n+1)/2 + sum c_j) times the one
    of [a_{i+c_j}(x0)].  An extension expands only the a_k the ladder lacks."""
    key = (family, x0, ring)
    count = 2 * n + 3
    with _ladders_lock:
        lad = _ladders.get(key)
        if lad is not None and len(lad.entries) >= count:
            return lad
        old = lad.entries if lad is not None else []
        start = len(old)
        new = int_entries(family, start, count)
        if ring is INT:
            p, q = x0.numerator, x0.denominator
            new = [int_poly_hom_eval(c, p, q) * q ** (k + 1 - len(c))
                   for k, c in enumerate(new, start)]
        if lad is None and x0 is not None:
            points = [k for k in _ladders if k[1] is not None]
            if len(points) >= _POINT_LADDERS_KEPT:
                del _ladders[points[0]]
        lad = _ladders[key] = ladder(old + new, ring, lad)
        return lad


class HankelQuartet(namedtuple("HankelQuartet", "family n H K M N")):
    """H_n and its shifted-column companions K_n, M_n, N_n (M, N None at n = 0)."""

    __slots__ = ()


def variant_det(family: FamilyId, n: int, variant: str) -> Poly:
    """One of H_n, K_n, M_n, N_n as a polynomial, from the family's ladder."""
    _variant_columns(n, variant)
    return from_int_scaled(cached_ladder(family, None, INT_POLY, n).det(n, variant), 1)


def hankel_det(family: FamilyId, n: int) -> Poly:
    """H_n(x)."""
    return variant_det(family, n, "H")


def quartet(family: FamilyId, n: int) -> HankelQuartet:
    """All four determinants; M and N are None at n = 0, and K_0 is
    det[[a_1]] = a_1 per the defining column layout."""
    m, nn = (variant_det(family, n, v) for v in "MN") if n else (None, None)
    h, k = variant_det(family, n, "H"), variant_det(family, n, "K")
    return HankelQuartet(family, n, h, k, m, nn)


def variant_det_at(family: FamilyId, n: int, variant: str, x0) -> Fraction:
    """One of H_n, K_n, M_n, N_n at a rational point, from the point's
    ladder over Z: the entries are substituted before elimination."""
    shift = n * (n + 1) // 2 + sum(_variant_columns(n, variant))
    x0 = Fraction(x0)
    return Fraction(cached_ladder(family, x0, INT, n).det(n, variant), x0.denominator**shift)


def hankel_det_at(family: FamilyId, n: int, x0) -> Fraction:
    """H_n evaluated at a rational point, substituting before elimination."""
    return variant_det_at(family, n, "H", x0)
