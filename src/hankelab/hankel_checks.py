"""The determinant code only checks run: Gauss-Jordan elimination and the
adjugates it gives, the Dodgson check's own eliminations, and the
generalized degree-bound instances.

``gauss_jordan`` applies ``hankel``'s fraction-free step above the pivot
too, for adjugates over Z[x] (those of every leading block from one
elimination) and integer nullspaces.  The adjugates and the Dodgson
check's eliminations take their rows [a_{i+j}] from ``hankel.int_entries``
as they are; only the degree-bound instances, whose entries are rational,
scale their rows to Z[x] (``hankel.det_fraction_free``).  None of this
serves a determinant query or the point screen, so a process that runs
only those does not compile it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import factorial, lcm, perm, prod

from .hankel import (
    INT_POLY,
    Ring,
    _variant_columns,
    det_bareiss,
    det_fraction_free,
    int_entries,
    int_hankel,
    variant_det,
)
from .poly import Poly, from_int_scaled, lin_comb
from .sequences import FamilyId


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


def _with_identity(rows: Sequence[Sequence[list[int]]]) -> list[list[list[int]]]:
    """[A | I] for a square matrix A of integer coefficient lists."""
    return [[*r, *([1] if j == i else [] for j in range(len(rows)))] for i, r in enumerate(rows)]


def int_adjugate(rows: Sequence[Sequence[list[int]]]) -> list[list[list[int]]]:
    """adj(A) over Z[x] for an invertible square matrix A of integer
    coefficient lists; ValueError if singular.

    Gauss-Jordan over Z[x] reduces [A | I] to [d I | d A^{-1}] with
    d = sign * det(A), so adj(A) = det(A) A^{-1} is the right block times
    the sign.
    """
    n = len(rows)
    reduced, pivots, sign = gauss_jordan(_with_identity(rows), INT_POLY)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    if sign == 1:
        return [row[n:] for row in reduced]
    return [[INT_POLY.neg(v) for v in row[n:]] for row in reduced]


def leading_adjugates(rows: Sequence[Sequence[list[int]]]) -> list:
    """adj(A_k) over Z[x] for each leading (k+1) x (k+1) block A_k of a
    square matrix A of integer coefficient lists, all read off one
    Gauss-Jordan elimination of [A | I]; None for every block from the
    first pivot that needs a row swap or skips a column on.

    Until then, after pivot k, rows 0..k have been combined only with each
    other, step for step as in the elimination of [A_k | I] alone, with no
    swap, so the first k+1 columns of their right block are `int_adjugate`
    of A_k.
    """
    n = len(rows)
    out = []
    for m, pivots, sign in gauss_jordan_steps(_with_identity(rows), INT_POLY):
        k = len(pivots) - 1
        if pivots[k] != k or sign != 1:
            break
        out.append([row[n : n + k + 1] for row in m[: k + 1]])
    return out + [None] * (n - len(out))


# ---------------------------------------------------------------------------
# The Dodgson check's own eliminations
# ---------------------------------------------------------------------------


def own_hankel_dets(family: FamilyId, top: int) -> list[Poly]:
    """H_0 .. H_top, none of them read off the ladder.

    One `det_bareiss` of [a_{i+j}]_{0..top} over Z[x] gives them: its pivot
    at step k is H_k, it asks ``unit`` of each pivot before any other entry,
    so the ring below records them up to the first zero one, and its
    determinant is H_top.  A zero pivot means a row swap, after which the
    pivots are no leading minors: each H_j past it is eliminated on its own,
    on the leading (j+1)-block of the same rows.
    """
    rows = int_hankel(family, top)
    leading: list[list[int]] = []

    def unit(v):
        if not leading or leading[-1]:
            leading.append(v)
        return bool(v)

    det = det_bareiss(rows, INT_POLY._replace(unit=unit))
    hs = leading + [det_bareiss([row[: j + 1] for row in rows[: j + 1]], INT_POLY)
                    for j in range(len(leading), top)]
    return [from_int_scaled(v, 1) for v in hs + [det]]


# family -> [H_0 .. H_j] from `own_hankel_dets`, so that dodgson_check at n
# reads H_{n-1} and H_{n+1} off the elimination made for the largest n yet.
# Only dodgson_check reads it: it is never filled from the ladder and never
# feeds it.
_own_h: dict[FamilyId, list[Poly]] = {}


def dodgson_check(family: FamilyId, n: int) -> bool:
    """H_{n-1} H_{n+1} = H_n N_n - H_n M_n - K_n^2 as a Poly identity.

    The ladder's step from H_n to H_{n+1} is this identity (Desnanot-Jacobi),
    so M_n, H_{n-1} and H_{n+1} each come from an elimination of their own;
    only H_n, K_n and N_n are read off the ladder.  M_n is one `det_bareiss`
    of its columns of [a_{i+j}] over Z[x], with no symmetry.  H_{n-1} and
    H_{n+1} are pivots of one `det_bareiss` of [a_{i+j}] made at the
    largest n asked (`own_hankel_dets`).  Bareiss's pivot k is the leading
    minor H_k: the steps before it are those of the elimination of H_k
    alone, on longer rows, so no compared value changes.  And none comes
    from the ladder: the square elimination forms neither its extra columns
    nor its M_n steps.
    """
    if n < 1:
        raise ValueError("the Dodgson-like identity needs n >= 1")
    h, k, nn = (variant_det(family, n, v) for v in "HKN")
    cols, e = _variant_columns(n, "M"), int_entries(family, 0, 2 * n + 2)
    m = from_int_scaled(det_bareiss([[e[c + i] for c in cols] for i in range(n + 1)], INT_POLY), 1)
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
    ints, alphas and betas tuples of Fractions, gamma a Fraction.
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
        # prod_{r<k} (a + g*m - r*d) times d^m bound!/k!, where k = bound - m:
        # the factors a + g*m, a + g*m - d, ... step by -d, one C-level prod.
        gamma = self.gamma
        d = lcm(top.denominator, gamma.denominator)
        a = top.numerator * (d // top.denominator)
        g = gamma.numerator * (d // gamma.denominator)
        return from_int_scaled(
            [prod(range(a + g * m, a + g * m - (bound - m) * d, -d)) * d**m * perm(bound, m)
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
        tuple(Fraction(v) for v in alphas),
        tuple(Fraction(v) for v in betas),
        Fraction(gamma),
    )
