"""Hankel matrices over Poly and their exact determinant machinery.

Everything is fraction-free (Bareiss) elimination over an integral domain:
Z[x] for symbolic determinants, Z at a rational point, and integer Taylor
jets (``jet.py``).  Interior divisions are exact, and any nonzero remainder
aborts loudly, which doubles as a correctness tripwire.  ``det_bareiss``
eliminates one square matrix; ``ladder`` eliminates [a_{i+j}] once for
H_n, K_n, M_n and N_n at every n, and a per-process cache grows each
family's ladder as larger n are asked for.  ``gauss_jordan`` applies the
same step above the pivot too, for adjugates (those of every leading block
from one elimination) and integer nullspaces.
"""

from __future__ import annotations

import operator
from _thread import allocate_lock
from collections import namedtuple
from collections.abc import Sequence
from itertools import accumulate
from math import factorial, lcm, perm, prod

from .poly import (
    InexactDivision,
    Poly,
    from_int_scaled,
    int_poly_addmul,
    int_poly_exact_div,
    int_poly_neg,
    lin_comb,
    to_int_scaled,
)
from .rat import Rat, rat
from .sequences import VARIANTS, FamilyId, a_poly


# ---------------------------------------------------------------------------
# Generic exact determinants
# ---------------------------------------------------------------------------


class Ring(namedtuple("Ring", "cross neg unit")):
    """The operations Bareiss elimination needs from an integral domain.

    ``cross(p, r, l, u, d)`` is the fused step (p*r - l*u) / d, where d is
    None for 1; the division is exact in the ring, and an implementation
    raises on a remainder.  ``unit(v)`` tells whether v can be a divisor.
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


def gauss_jordan_steps(rows: Sequence[Sequence], ring: Ring):
    """Fraction-free Gauss-Jordan elimination, one pivot at a time.

    Yields (rows, pivot columns, sign) after each pivot; the next pivot
    updates the two lists in place.  Each column's pivot is the first row at
    or below the next pivot position whose entry the ring can divide by,
    swapped up; a column with none is skipped.  The Bareiss step updates
    every other row, those above too, so each pivot ends equal to the last.
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
        yield m, pivots, sign


def gauss_jordan(rows: Sequence[Sequence], ring: Ring) -> tuple[list[list], list[int], int]:
    """(reduced rows, pivot columns, sign) of `gauss_jordan_steps` run to the
    end: [A | S] with A invertible reduces to [d I | d A^{-1} S], where
    d = sign * det A."""
    state = None
    for state in gauss_jordan_steps(rows, ring):
        pass
    return state or ([list(row) for row in rows], [], 1)


def _augmented(rows: Sequence[Sequence[Poly]]) -> tuple[list[list[list[int]]], list[int]]:
    """[D A | D] over Z[x] and the row scales D that make D A integral."""
    n = len(rows)
    scaled = [to_int_scaled(row) for row in rows]
    aug = [r + [[s] if j == i else [] for j in range(n)] for i, (r, s) in enumerate(scaled)]
    return aug, [s for _, s in scaled]


def int_adjugate(rows: Sequence[Sequence[Poly]]) -> tuple[list[list[list[int]]], int]:
    """(B, s) with adj(A) = B / s, B over Z[x], for an invertible square Poly
    matrix A; ValueError if singular.

    Gauss-Jordan over Z[x] reduces [D A | D] to [d I | d A^{-1}],
    d = sign * det(D) * det(A).
    """
    n = len(rows)
    aug, scales = _augmented(rows)
    reduced, pivots, sign = gauss_jordan(aug, INT_POLY)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in reduced], sign * prod(scales)


def leading_adjugates(rows: Sequence[Sequence[Poly]]) -> list:
    """[(B_k, s_k) with adj(A_k) = B_k / s_k] for each leading (k+1) x (k+1)
    block A_k of a square Poly matrix A, all read off one Gauss-Jordan
    elimination of [D A | D]; None for every block from the first pivot that
    needs a row swap or skips a column on.

    Until then, after pivot k, rows 0..k have been combined only with each
    other, step for step as in the elimination of [D_k A_k | D_k] alone, so
    the first k+1 columns of their right block are `int_adjugate`'s B of
    A_k, and s_k = det D_k.
    """
    n = len(rows)
    aug, scales = _augmented(rows)
    out = []
    for m, pivots, sign in gauss_jordan_steps(aug, INT_POLY):
        k = len(pivots) - 1
        if pivots[k] != k or sign != 1:
            break
        out.append(([row[n : n + k + 1] for row in m[: k + 1]], prod(scales[: k + 1])))
    return out + [None] * (n - len(out))


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
    so row n holds H_n, K_n and N_n at columns n, n+1 and n+2.  Its
    entries left of the diagonal are the leads its steps used, kept so that
    new columns can replay the steps.  ``m[n]`` is M_n (None at n = 0).
    Rows end at the first pivot H_k the ring cannot divide by, at n = k.
    The lists grow in place as the ladder is extended.
    """

    __slots__ = ()

    def det(self, n: int, variant: str) -> object:
        """The variant's determinant at n, read off the rows where they
        reach n and otherwise eliminated on its own with row pivoting."""
        if n < len(self.rows):
            return self.m[n] if variant == "M" else self.rows[n][n + "HKN".index(variant)]
        e = self.entries
        cols = _variant_columns(n, variant)
        return det_bareiss([[e[c + i] for c in cols] for i in range(n + 1)], self.ring)


def ladder(entries: Sequence, ring: Ring, lad: Ladder | None = None) -> Ladder:
    """Eliminate [e_{i+j}] once for every n <= N = (len(entries) - 3) // 2.

    ``lad``, the ladder of a prefix of ``entries``, grows in place: new
    columns of its rows replay their stored pivots and leads, and new rows
    run every step.  M_n is one 2 x 2 Sylvester step on rows n-1 and n
    just before row n's last step, over columns n and n+1.
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
_ladders_lock = allocate_lock()  # threading.Lock, without importing threading
_POINT_LADDERS_KEPT = 4


def cached_ladder(family: FamilyId, x0: Rat | None, ring: Ring, n: int):
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
        old = lad.entries if lad is not None else []
        start = len(old)
        # only the entries the ladder lacks are scaled and expanded
        polys = [scale * f for f in polys[start:]] if scale != 1 else polys[start:]
        if ring is INT_POLY:
            new = [list(f.num) for f in polys]
        elif ring is INT:
            new = [(f(x0) * q**k).numerator for k, f in enumerate(polys, start)]
        else:
            from .jet import int_jets

            new = int_jets(polys, x0, start)
        if key not in _ladders and x0 is not None:
            points = [k for k in _ladders if k[1] is not None]
            if len(points) >= _POINT_LADDERS_KEPT:
                del _ladders[points[0]]
        _ladders[key] = scale, ladder(old + new, ring, lad)
        return _ladders[key]


class HankelQuartet(namedtuple("HankelQuartet", "family n H K M N")):
    """H_n and its shifted-column companions K_n, M_n, N_n (M, N None at n = 0)."""

    __slots__ = ()


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


def own_hankel_dets(family: FamilyId, top: int) -> list[Poly]:
    """H_0 .. H_top, none of them read off the ladder.

    One `det_bareiss` of [a_{i+j}]_{0..top} gives them: its pivot at step k
    is H_k times the scales of rows 0..k, it asks ``unit`` of each pivot
    before any other entry, so the ring below records them up to the first
    zero one, and its determinant is H_top.  A zero pivot means a row swap,
    after which the pivots are no leading minors: each H_j past it is
    eliminated on its own.
    """
    scaled = [to_int_scaled(row) for row in hankel_matrix(family, top)]
    leading: list[list[int]] = []

    def unit(v):
        if not leading or leading[-1]:
            leading.append(v)
        return bool(v)

    det = det_bareiss([row for row, _ in scaled], INT_POLY._replace(unit=unit))
    scales = list(accumulate((s for _, s in scaled), operator.mul))
    hs = [from_int_scaled(v, s) for v, s in zip(leading, scales)]
    hs += [det_fraction_free(hankel_matrix(family, j)) for j in range(len(hs), top)]
    return hs + [from_int_scaled(det, scales[top])]


# family -> [H_0 .. H_j] from `own_hankel_dets`, so that dodgson_check at n
# reads H_{n-1} and H_{n+1} off the elimination made for the largest n yet.
# Only dodgson_check reads it: it is never filled from the ladder and never
# feeds it.
_own_h: dict[FamilyId, list[Poly]] = {}


def dodgson_check(family: FamilyId, n: int) -> bool:
    """H_{n-1} H_{n+1} = H_n N_n - H_n M_n - K_n^2 as a Poly identity.

    The ladder's step from H_n to H_{n+1} is this identity (Desnanot-Jacobi),
    so M_n, H_{n-1} and H_{n+1} each come from an elimination of their own;
    only H_n, K_n and N_n are read off the ladder.  H_{n-1} and H_{n+1} are
    pivots of one `det_bareiss` of [a_{i+j}] made at the largest n asked
    (`own_hankel_dets`).  Bareiss's pivot k is the leading minor H_k: the
    steps before it are those of the elimination of H_k alone, on longer
    rows, so no compared value changes.  And none comes from the ladder: the
    square elimination forms neither its extra columns nor its M_n steps.
    """
    if n < 1:
        raise ValueError("the Dodgson-like identity needs n >= 1")
    h, k, nn = (variant_det(family, n, v) for v in "HKN")
    cols = _variant_columns(n, "M")
    m = det_fraction_free([[a_poly(family, c + i) for c in cols] for i in range(n + 1)])
    own = _own_h.get(family)
    if own is None or len(own) < n + 2:
        own = _own_h[family] = own_hankel_dets(family, n + 1)
    return own[n - 1] * own[n + 1] == lin_comb([(h, nn), (-h, m), (-k, k)])


# ---------------------------------------------------------------------------
# Generalized degree-bound determinants
# ---------------------------------------------------------------------------


class DegreeInstance(namedtuple("DegreeInstance", "p q alphas betas gamma")):
    """An instance of the generalized Hankel-like determinant.

    Entry (i, j) is sum_{0 <= m <= p_i + q_j} C(alpha_i + beta_j + gamma*m,
    p_i + q_j - m) x^m, the binomial taken in falling-factorial form; an
    empty sum (p_i + q_j < 0) gives a zero entry.  p and q are tuples of
    ints, alphas and betas tuples of Rats, gamma a Rat.
    """

    __slots__ = ()

    def __new__(cls, p, q, alphas, betas, gamma):
        if not len(p) == len(q) == len(alphas) == len(betas):
            raise ValueError("p, q, alphas, betas must have equal length")
        if len(p) == 0:
            raise ValueError("instance must be nonempty")
        return super().__new__(cls, p, q, alphas, betas, gamma)

    @property
    def n(self) -> int:
        return len(self.p) - 1

    def entry(self, i: int, j: int) -> Poly:
        top = self.alphas[i] + self.betas[j]
        bound = self.p[i] + self.q[j]
        if bound < 0:
            return Poly.zero()
        # With d the lcm of the denominators, top + gamma*m = (a + g*m)/d, and
        # over d^bound bound! coefficient m is the integer falling factorial
        # prod_{r<k} (a + g*m - r*d) times d^m bound!/k!, where k = bound - m.
        gamma = self.gamma
        d = lcm(top.denominator, gamma.denominator)
        a = top.numerator * (d // top.denominator)
        g = gamma.numerator * (d // gamma.denominator)
        return from_int_scaled(
            [prod(a + g * m - r * d for r in range(bound - m)) * d**m * perm(bound, m)
             for m in range(bound + 1)],
            d**bound * factorial(bound),
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
