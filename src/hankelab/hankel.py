"""Hankel matrices over Poly and their exact determinant machinery.

Everything is fraction-free (Bareiss) elimination over an integral domain:
Z[x] for symbolic determinants, Z at a rational point, and integer Taylor
jets (``jet.py``).  Interior divisions are exact, and any nonzero remainder
aborts loudly, which doubles as a correctness tripwire.  ``det_bareiss``
eliminates one square matrix; ``ladder`` eliminates [a_{i+j}] once for
H_n, K_n, M_n and N_n at every n, and a per-process cache grows each
family's ladder as larger n are asked for.  ``gauss_jordan`` applies the
same step above the pivot too, for adjugates and integer nullspaces.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, field
from math import lcm, prod
from typing import Callable, Optional, Sequence

from .poly import (
    InexactDivision,
    Poly,
    from_int_scaled,
    int_poly_exact_div,
    int_poly_mul,
    int_poly_neg,
    int_poly_sub,
    to_int_scaled,
)
from .rat import Rat, binom, rat
from .sequences import FamilyId, a_poly


# ---------------------------------------------------------------------------
# Generic exact determinants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ring:
    """The operations Bareiss elimination needs from an integral domain.

    ``cross(p, r, l, u, d)`` is the fused step (p*r - l*u) / d, where d is
    None for 1; the division is exact in the ring, and an implementation
    raises on a remainder.  ``unit(v)`` tells whether v can be a divisor.
    """

    cross: Callable
    neg: Callable
    unit: Callable


def _int_cross(p: int, r: int, l: int, u: int, d: Optional[int]) -> int:
    v = p * r - l * u
    if d is None:
        return v
    q, rem = divmod(v, d)
    if rem:
        raise InexactDivision(f"inexact integer division of {v} by {d}")
    return q


def _int_poly_cross(p, r, l, u, d) -> list[int]:
    v = int_poly_sub(int_poly_mul(p, r), int_poly_mul(l, u))
    return v if d is None else int_poly_exact_div(v, d)


INT = Ring(_int_cross, operator.neg, bool)
INT_POLY = Ring(_int_poly_cross, int_poly_neg, bool)


def det_bareiss(rows: Sequence[Sequence], ring: Ring) -> object:
    """Fraction-free two-term elimination of one square matrix.

    A pivot the ring cannot divide by is swapped for the first lower row
    whose entry it can, flipping the sign.  If there is none, a zero pivot
    makes the determinant zero; any other (a jet vanishing at its point) is
    kept, and the jet ring raises if a later step must divide by it.
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


def gauss_jordan(rows: Sequence[Sequence], ring: Ring) -> tuple[list[list], list[int], int]:
    """Fraction-free Gauss-Jordan elimination: (reduced rows, pivot columns, sign).

    Each column's pivot is the first row at or below the next pivot position
    whose entry the ring can divide by, swapped up; a column with none is
    skipped.  The Bareiss step updates every other row, those above too, so
    each pivot ends equal to the last, d: [A | S] with A invertible reduces
    to [d I | d A^{-1} S], where d = sign * det A.
    """
    m = [list(row) for row in rows]
    cross, unit = ring.cross, ring.unit
    pivots: list[int] = []
    sign, prev = 1, None
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if unit(m[i][c])), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr], sign = m[pr], m[r], -sign
        pivot_row, p = m[r], m[r][c]
        for row in m:
            if row is not pivot_row:
                lead = row[c]
                for j, u in enumerate(pivot_row):
                    row[j] = cross(p, row[j], lead, u, prev)
        pivots.append(c)
        prev = p
    return m, pivots, sign


def adjugate(rows: Sequence[Sequence[Poly]]) -> list[list[Poly]]:
    """adj(A) of an invertible square Poly matrix; ValueError if singular.

    With D the row scales that make D A integral, Gauss-Jordan over Z[x]
    reduces [D A | D] to [d I | d A^{-1}], d = sign * det(D) * det(A).
    """
    n = len(rows)
    scaled = [to_int_scaled(row) for row in rows]
    aug = [r + [[s] if j == i else [] for j in range(n)] for i, (r, s) in enumerate(scaled)]
    reduced, pivots, sign = gauss_jordan(aug, INT_POLY)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    scale = sign * prod(s for _, s in scaled)
    return [[from_int_scaled(v, scale) for v in row[n:]] for row in reduced]


# ---------------------------------------------------------------------------
# Hankel matrices and the determinant quartet
# ---------------------------------------------------------------------------


def hankel_matrix(family: FamilyId, n: int) -> list[list[Poly]]:
    """The (n+1) x (n+1) matrix [a_{i+j}(x)]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [[a_poly(family, i + j) for j in range(n + 1)] for i in range(n + 1)]


VARIANTS = ("H", "K", "M", "N")


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


@dataclass
class Ladder:
    """One fraction-free elimination of the Hankel matrix [e_{i+j}].

    ``entries`` holds e_0 .. e_{2N+2} and ``rows[i]`` is row i of the
    (N+1) x (N+3) matrix after i Bareiss steps.  By Sylvester's identity
    its entry j >= i is then the minor on rows 0..i and columns 0..i-1, j,
    so row n holds H_n, K_n and N_n at columns n, n+1 and n+2.  Its
    entries left of the diagonal are the leads its steps used, kept so that
    new columns can replay the steps.  ``m[n]`` is M_n (None at n = 0).
    Rows end at the first pivot H_k the ring cannot divide by, at n = k.
    """

    ring: Ring
    entries: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    m: list = field(default_factory=list)

    def det(self, n: int, variant: str) -> object:
        """The variant's determinant at n, read off the rows where they
        reach n and otherwise eliminated on its own with row pivoting."""
        if n < len(self.rows):
            return self.m[n] if variant == "M" else self.rows[n][n + "HKN".index(variant)]
        e = self.entries
        cols = _variant_columns(n, variant)
        return det_bareiss([[e[c + i] for c in cols] for i in range(n + 1)], self.ring)


def ladder(entries: Sequence, ring: Ring, lad: Optional[Ladder] = None) -> Ladder:
    """Eliminate [e_{i+j}] once for every n <= N = (len(entries) - 3) // 2.

    ``lad``, the ladder of a prefix of ``entries``, grows in place: new
    columns of its rows replay their stored pivots and leads, and new rows
    run every step.  M_n is one 2 x 2 Sylvester step on rows n-1 and n
    just before row n's last step, over columns n and n+1.
    """
    if lad is None:
        lad = Ladder(ring)
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
                v = cross(piv[k + 1], v, row[k], rows[k][j], piv[k])
            row.append(v)
    for i in range(len(rows), width - 2):
        if i and not ring.unit(piv[i]):
            break
        row = e[i : i + width]
        m = None
        for k in range(i):
            up = rows[k]
            if k == i - 1:
                m = cross(up[i + 1], row[i], row[i + 1], up[i], piv[k])
            p, d, lead = piv[k + 1], piv[k], row[k]
            for j in range(k + 1, width):
                row[j] = cross(p, row[j], lead, up[j], d)
        rows.append(row)
        lad.m.append(m)
        piv.append(row[i])
    return lad


# (family, point or None, ring) -> (D, ladder): entry k of the ladder is
# D q^k a_k(x0) for x0 = p/q, with q = 1 symbolically.  Point ladders are
# many and are mostly read at one n, so only the latest few are kept.
_ladders: dict[tuple, tuple[int, Ladder]] = {}
_ladders_lock = threading.Lock()
_POINT_LADDERS_KEPT = 4


def cached_ladder(family: FamilyId, x0: Optional[Rat], ring: Ring, n: int):
    """(D, ladder): the family's ladder at x0 over the ring, grown to hold
    n, whose entries are D q^k a_k(x0) (x0 None and q = 1 over Z[x]).  Its
    determinant on columns c_0..c_n is D^(n+1) q^(n(n+1)/2 + sum c_j) times
    the one of [a_{i+c_j}(x0)].  An extension that needs a larger D
    rebuilds the ladder."""
    key = (family, x0, ring)
    count = 2 * n + 3
    with _ladders_lock:
        scale, lad = _ladders.get(key, (1, None))
        if lad is not None and len(lad.entries) >= count:
            return scale, lad
        q = 1 if x0 is None else x0.denominator
        polys = [a_poly(family, k) for k in range(count)]
        # the least D with D q^k a_k integral over Z[q x] for every k: then
        # every entry, and every Taylor coefficient of it at p/q, is an integer
        need = 1
        for k, f in enumerate(polys):
            need = lcm(need, f.den * q ** max(len(f.num) - 1 - k, 0))
        if need != scale:
            scale, lad = need, None
        if scale != 1:
            polys = [scale * f for f in polys]
        old = lad.entries if lad is not None else []
        start = len(old)
        if ring is INT_POLY:
            new = [list(f.num) for f in polys[start:]]
        elif ring is INT:
            new = [(f(x0) * q**k).numerator for k, f in enumerate(polys[start:], start)]
        else:
            from .jet import int_jets

            new = int_jets(polys, x0)[start:]
        if key not in _ladders and x0 is not None:
            points = [k for k in _ladders if k[1] is not None]
            if len(points) >= _POINT_LADDERS_KEPT:
                del _ladders[points[0]]
        _ladders[key] = scale, ladder(old + new, ring, lad)
        return _ladders[key]


@dataclass(frozen=True)
class HankelQuartet:
    """H_n and its shifted-column companions K_n, M_n, N_n."""

    family: FamilyId
    n: int
    H: Poly
    K: Poly
    M: Optional[Poly]
    N: Optional[Poly]


def variant_det(family: FamilyId, n: int, variant: str) -> Poly:
    """One of H_n, K_n, M_n, N_n as a polynomial, from the family's ladder."""
    _variant_columns(n, variant)
    scale, lad = cached_ladder(family, None, INT_POLY, n)
    return from_int_scaled(lad.det(n, variant), scale ** (n + 1))


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


def variant_det_at(family: FamilyId, n: int, variant: str, x0) -> Rat:
    """One of H_n, K_n, M_n, N_n at a rational point, from the point's
    ladder over Z: the entries are substituted before elimination."""
    shift = n * (n + 1) // 2 + sum(_variant_columns(n, variant))
    x0 = rat(x0)
    scale, lad = cached_ladder(family, x0, INT, n)
    return Rat(lad.det(n, variant), scale ** (n + 1) * x0.denominator**shift)


def hankel_det_at(family: FamilyId, n: int, x0) -> Rat:
    """H_n evaluated at a rational point, substituting before elimination."""
    return variant_det_at(family, n, "H", x0)


def dodgson_check(family: FamilyId, n: int) -> bool:
    """H_{n-1} H_{n+1} = H_n N_n - H_n M_n - K_n^2 as a Poly identity.

    The ladder's step from H_n to H_{n+1} is this identity (Desnanot-Jacobi),
    so M_n, H_{n-1} and H_{n+1} each come from an elimination of their own;
    only H_n, K_n and N_n are read off the ladder.
    """
    if n < 1:
        raise ValueError("the Dodgson-like identity needs n >= 1")
    h, k, nn = (variant_det(family, n, v) for v in "HKN")
    cols = _variant_columns(n, "M")
    m = det_fraction_free([[a_poly(family, c + i) for c in cols] for i in range(n + 1)])
    lhs = det_fraction_free(hankel_matrix(family, n - 1)) * det_fraction_free(
        hankel_matrix(family, n + 1)
    )
    return lhs == h * nn - h * m - k * k


# ---------------------------------------------------------------------------
# Generalized degree-bound determinants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeInstance:
    """An instance of the generalized Hankel-like determinant.

    Entry (i, j) is sum_{0 <= m <= p_i + q_j} C(alpha_i + beta_j + gamma*m,
    p_i + q_j - m) x^m, the binomial taken in falling-factorial form; an
    empty sum (p_i + q_j < 0) gives a zero entry.
    """

    p: tuple[int, ...]
    q: tuple[int, ...]
    alphas: tuple[Rat, ...]
    betas: tuple[Rat, ...]
    gamma: Rat

    def __post_init__(self):
        if not (
            len(self.p) == len(self.q) == len(self.alphas) == len(self.betas)
        ):
            raise ValueError("p, q, alphas, betas must have equal length")
        if len(self.p) == 0:
            raise ValueError("instance must be nonempty")

    @property
    def n(self) -> int:
        return len(self.p) - 1

    def entry(self, i: int, j: int) -> Poly:
        top_base = self.alphas[i] + self.betas[j]
        bound = self.p[i] + self.q[j]
        if bound < 0:
            return Poly.zero()
        return Poly(
            [binom(top_base + self.gamma * m, bound - m) for m in range(bound + 1)]
        )

    def matrix(self) -> list[list[Poly]]:
        size = self.n + 1
        return [[self.entry(i, j) for j in range(size)] for i in range(size)]


def degree_bound(inst: DegreeInstance) -> int:
    """max(max p_i + max q_j - n, 0), the proven bound on the degree."""
    return max(max(inst.p) + max(inst.q) - inst.n, 0)


def general_degree_det(inst: DegreeInstance) -> Poly:
    return det_fraction_free(inst.matrix())


def make_degree_instance(p, q, alphas, betas, gamma) -> DegreeInstance:
    return DegreeInstance(
        tuple(int(v) for v in p),
        tuple(int(v) for v in q),
        tuple(rat(v) for v in alphas),
        tuple(rat(v) for v in betas),
        rat(gamma),
    )
