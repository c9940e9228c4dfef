"""Hankel matrices over Poly and their exact determinant machinery.

Everything is fraction-free (Bareiss) elimination over an integral domain:
Z[x] for symbolic determinants, Z at a rational point, and integer Taylor
jets (``jet.py``).  Interior divisions are exact, and any nonzero remainder
aborts loudly, which doubles as a correctness tripwire.  ``det_bareiss``
eliminates one square matrix; ``ladder`` eliminates [a_{i+j}] once for
H_n, K_n, M_n and N_n at every n, and a per-process cache grows each
family's ladder as larger n are asked for.  Every elimination of
[a_{i+j}] reads its rows unscaled from ``int_entries`` (``int_hankel``
gives the square matrix); the ones only checks run (Gauss-Jordan,
adjugates, the Dodgson check's own), and the degree-bound instances, are
``hankel_checks.py``.  ``det_fraction_free`` scales rational rows to Z[x]
for the degree-bound instances; ``hankel_matrix``, the Poly matrix
[a_{i+j}], serves the tests and perfbench's tracer self-test.
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


class Ring(namedtuple("Ring", "cross neg unit value", defaults=(None,))):
    """The operations Bareiss elimination needs from an integral domain.

    ``cross(p, r, l, u, d)`` is the fused step (p*r - l*u) / d, where d is
    None for 1; the division is exact in the ring, and an implementation
    raises on a remainder.  ``unit(v)`` tells whether v can be a divisor.
    A ring whose elements carry more than a value (the Taylor jets) also
    gives ``value(v)``, the value part, a homomorphism onto Z; a ladder
    keeps what is read only as a value in values, stepped over Z.  It is
    None for Z and Z[x].
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


INT = Ring(_int_cross, operator.neg, bool)
INT_POLY = Ring(_int_poly_cross, int_poly_neg, bool)


def int_entries(family: FamilyId, start: int, stop: int) -> list[list[int]]:
    """a_start .. a_{stop-1} as integer coefficient lists.

    Every family's a_k lies in Z[x] and has degree <= k, so a_k is itself
    an entry over Z[x], and q^k a_k(p/q) and its 3-jet are integers.  The
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


def det_bareiss(rows: Sequence[Sequence], ring: Ring) -> object:
    """Fraction-free two-term elimination of one square matrix.

    Each step asks ``unit`` first of its pivot, and of the entries below it
    only when the pivot is no unit.  Such a pivot is swapped for the first
    lower row whose entry the ring can divide by, flipping the sign.  If
    there is none, a zero pivot makes the determinant zero; any other (a jet
    vanishing at its point) is kept, and the jet ring raises if a later step
    must divide by it.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 1:
        return rows[0][0]
    cross, unit = ring.cross, ring.unit
    m = [list(row) for row in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not unit(m[k][k]):
            for i in range(k + 1, n):
                if unit(m[i][k]):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                if not m[k][k]:
                    return m[k][k]
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = cross(pivot, row[j], lead, pivot_row[j], prev)
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign == 1 else ring.neg(det)


def det_fraction_free(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square Poly matrix.

    Each row is scaled to integer coefficients by the lcm of its
    denominators, elimination runs over Z[x], and the result is divided by
    the product of the row scales once.
    """
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
    Rows end at the first pivot H_k the ring cannot divide by, at n = k.
    Over a ring with value parts (jets), columns N+1 and N+2 and every M_n
    hold only values: no step divides by them, as only columns 0..N become
    pivots.  The lists grow in place as the ladder is extended, except
    over such a ring, where `ladder` rebuilds it.
    """

    __slots__ = ()

    def det(self, n: int, variant: str) -> object:
        """The variant's determinant at n, read off the rows where they
        reach n and otherwise eliminated on its own with row pivoting.
        Over a ring with value parts, H is the full element and K, M and N
        are values."""
        value = self.ring.value
        if n >= len(self.rows):
            e = self.entries
            cols = _variant_columns(n, variant)
            v = det_bareiss([[e[c + i] for c in cols] for i in range(n + 1)], self.ring)
            return v if value is None or variant == "H" else value(v)
        if variant == "H":
            return self.rows[n][n]
        if variant == "M":
            return self.m[n]
        col = n + (2 if variant == "N" else 1)  # K's or N's column
        v = self.rows[n][col]
        return v if value is None or col >= len(self.rows[0]) - 2 else value(v)


def ladder(entries: Sequence, ring: Ring, lad: Ladder | None = None) -> Ladder:
    """Eliminate [e_{i+j}] once for every n <= N = (len(entries) - 3) // 2.

    ``lad``, the ladder of a prefix of ``entries``, grows in place: new
    columns of its rows replay their stored pivots and leads, and new rows
    run every step.  Row i's step k updates only its columns i..N+2: its
    columns k+1..i-1 would be read only as the leads of its later steps,
    and by the symmetry of [e_{i+j}] (see `Ladder`) the lead of step k is
    ``rows[k][i]``, which row k already holds.  So the rows take
    sum_{i <= N} i (N + 3 - i) steps, not sum_{i <= N} sum_{k < i}
    (N + 2 - k): N^3/6 against N^3/3 for large N, 147 against 203 at
    N = 7.  M_n is one 2 x 2 Sylvester step on rows n-1 and n just before
    row n's last step, over columns n and n+1.  Over a ring with value
    parts, columns N+1 and N+2 start as the entries' values and
    step over Z (`_int_cross`) with the values of their pivots and leads,
    and every M_n steps on the values of its four entries: the value part
    of a step is the step on value parts, and each divides only by a pivot
    ``unit`` accepted.  Such a ladder is rebuilt from all of ``entries``
    rather than grown, since a larger N needs those columns in full.
    """
    value = ring.value
    if lad is None or value is not None:
        lad = Ladder(ring, [], [], [])
    e, rows = lad.entries, lad.rows
    e.extend(entries[len(e) :])
    width = (len(e) - 3) // 2 + 3
    # columns from `full` on hold values
    full = width if value is None else width - 2
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
        if i and not ring.unit(piv[i]):
            break
        row = e[i : i + width]
        if full < width:
            row[full:] = map(value, row[full:])
        m = None
        for k in range(i):
            up = rows[k]
            # the lead is row k's entry at column i (symmetry); stored as
            # row[k], the entry this step would have formed
            p, d, lead = piv[k + 1], piv[k], up[i]
            row[k] = lead
            if full < width:
                p0, l0, d0 = value(p), value(lead), d if d is None else value(d)
            if k == i - 1:
                if full == width:
                    m = cross(up[i + 1], row[i], row[i + 1], up[i], d)
                else:  # M is read only as a value: step on value parts
                    u, r = up[i + 1], row[i + 1]
                    if i + 1 < full:  # column N+1 holds values already
                        u, r = value(u), value(r)
                    m = _int_cross(u, value(row[i]), r, value(up[i]), d0)
            for j in range(i, full):
                row[j] = cross(p, row[j], lead, up[j], d)
            for j in range(full, width):
                row[j] = _int_cross(p0, row[j], l0, up[j], d0)
        rows.append(row)
        lad.m.append(m)
        piv.append(row[i])
    return lad


# (family, point or None, ring) -> ladder: entry k of the ladder is a_k over
# Z[x], and q^k a_k(x0) or its integer jet at x0 = p/q.  Point ladders are
# many and are mostly read at one n, so only the latest few are kept.
_ladders: dict[tuple, Ladder] = {}
_ladders_lock = allocate_lock()  # threading.Lock, without importing threading
_POINT_LADDERS_KEPT = 4


def cached_ladder(family: FamilyId, x0: Fraction | None, ring: Ring, n: int) -> Ladder:
    """The family's ladder at x0 over the ring, grown to hold n, whose
    entries are q^k a_k(x0) (x0 None and q = 1 over Z[x]).  Its determinant
    on columns c_0..c_n is q^(n(n+1)/2 + sum c_j) times the one of
    [a_{i+c_j}(x0)].  An extension expands only the a_k the ladder lacks,
    and a jet ladder is then rebuilt from the entries it holds (`ladder`)."""
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
        elif ring is not INT_POLY:
            from .jet import int_jets

            new = int_jets(new, x0, start)
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
    """All four determinants; M and N are None at n = 0.

    K_0 degenerates to det[[a_1]] = a_1 per the defining column layout.
    """
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
