"""Hankel matrices over Poly and their exact determinant machinery.

The workhorse is fraction-free (Bareiss) elimination, one loop over any
integral domain.  Determinants scale each row to integers and eliminate
over Z[x] (symbolic) or Z (at a point): interior divisions are exact, and
any nonzero remainder aborts loudly, which doubles as a correctness
tripwire.  Bareiss over Poly and Fraction and a cofactor-expansion oracle
are kept as references and cross-checked in the tests.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .poly import (
    InexactDivision,
    Poly,
    denominator_lcm,
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

    ``exact_div`` performs the interior divisions, which are exact in the
    ring; an implementation raises on a remainder.
    """

    mul: Callable
    sub: Callable
    neg: Callable
    exact_div: Callable


def _int_exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise InexactDivision(f"inexact integer division of {a} by {b}")
    return q


INT = Ring(operator.mul, operator.sub, operator.neg, _int_exact_div)
INT_POLY = Ring(int_poly_mul, int_poly_sub, int_poly_neg, int_poly_exact_div)
# Over Poly and Fraction: the reference elimination the tests compare against.
POLY = Ring(operator.mul, operator.sub, operator.neg, lambda a, b: a.exact_div(b))
RATIONAL = Ring(operator.mul, operator.sub, operator.neg, operator.truediv)


def det_bareiss(rows: Sequence[Sequence], ring: Ring) -> object:
    """Fraction-free two-term elimination over any integral domain.

    A zero pivot swaps in the first lower row with a nonzero entry and flips
    the sign; if none exists the determinant is zero.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if n == 1:
        return rows[0][0]
    mul, sub, div = ring.mul, ring.sub, ring.exact_div
    m = [list(row) for row in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                zero = m[k][k]
                return zero
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            lead = row[k]
            for j in range(k + 1, n):
                elt = sub(mul(pivot, row[j]), mul(lead, pivot_row[j]))
                if prev is not None:
                    elt = div(elt, prev)
                row[j] = elt
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign == 1 else ring.neg(det)


def det_fraction_free(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square Poly matrix.

    Each row is scaled to integer coefficients by the lcm of its
    denominators, elimination runs over Z[x], and the result is divided by
    the product of the row scales once.
    """
    int_rows = []
    scale = 1
    for row in rows:
        int_row, row_scale = to_int_scaled(row)
        int_rows.append(int_row)
        scale *= row_scale
    return from_int_scaled(det_bareiss(int_rows, INT_POLY), scale)


def det_rational(rows: Sequence[Sequence[Fraction]]) -> Rat:
    """Exact determinant of a square matrix of rationals, eliminated over Z.

    Rows are scaled to integers as in ``det_fraction_free``.
    """
    int_rows = []
    scale = 1
    for row in rows:
        row_scale = denominator_lcm(row)
        int_rows.append([c.numerator * (row_scale // c.denominator) for c in row])
        scale *= row_scale
    return Rat(det_bareiss(int_rows, INT), scale)


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


def det_with_replaced_column(
    rows: Sequence[Sequence[Poly]], col: int, column: Sequence[Poly]
) -> Poly:
    replaced = [list(row) for row in rows]
    for i, v in enumerate(column):
        replaced[i][col] = v
    return det_fraction_free(replaced)


def trace_adjugate_product(
    a: Sequence[Sequence[Poly]], x: Sequence[Sequence[Poly]]
) -> Poly:
    """Tr(A^{-1} X) * det(A), computed without leaving the polynomial ring.

    By Cramer's rule the i-th diagonal entry of A^{-1} X times det(A) is the
    determinant of A with column i replaced by the i-th column of X.
    """
    n = len(a)
    acc = Poly.zero()
    for i in range(n):
        acc = acc + det_with_replaced_column(a, i, [x[r][i] for r in range(n)])
    return acc


# ---------------------------------------------------------------------------
# Hankel matrices and the determinant quartet
# ---------------------------------------------------------------------------


def hankel_matrix(family: FamilyId, n: int) -> list[list[Poly]]:
    """The (n+1) x (n+1) matrix [a_{i+j}(x)]."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [[a_poly(family, i + j) for j in range(n + 1)] for i in range(n + 1)]


def hankel_columns(family: FamilyId, n: int, cols: Sequence[int]) -> list[list[Poly]]:
    """Matrix whose j-th column is (a_{c_j}, a_{c_j+1}, ..., a_{c_j+n})."""
    return [[a_poly(family, c + i) for c in cols] for i in range(n + 1)]


VARIANTS = ("H", "K", "M", "N")


def _quartet_columns(n: int) -> dict[str, list[int]]:
    base = list(range(n))
    return {
        "H": base + [n],
        "K": base + [n + 1],
        "M": base[:-1] + [n + 1, n] if n >= 1 else None,
        "N": base + [n + 2],
    }


def _variant_columns(n: int, variant: str) -> list[int]:
    if n < 0:
        raise ValueError("n must be >= 0")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {', '.join(VARIANTS)}")
    if variant in ("M", "N") and n == 0:
        raise ValueError(f"{variant}_0 is undefined (layout needs n >= 1)")
    return _quartet_columns(n)[variant]


@dataclass(frozen=True)
class HankelQuartet:
    """H_n and its shifted-column companions K_n, M_n, N_n."""

    family: FamilyId
    n: int
    H: Poly
    K: Poly
    M: Optional[Poly]
    N: Optional[Poly]


_quartet_memo: dict[tuple[FamilyId, int], HankelQuartet] = {}
_h_memo: dict[tuple[FamilyId, int], Poly] = {}
_memo_lock = threading.Lock()


def hankel_det(family: FamilyId, n: int) -> Poly:
    """H_n(x) alone, memoized."""
    key = (family, n)
    hit = _h_memo.get(key)
    if hit is not None:
        return hit
    h = det_fraction_free(hankel_matrix(family, n))
    with _memo_lock:
        _h_memo.setdefault(key, h)
    return h


def variant_det(family: FamilyId, n: int, variant: str) -> Poly:
    """One of H_n, K_n, M_n, N_n alone; H comes from ``hankel_det``."""
    cols = _variant_columns(n, variant)
    if variant == "H":
        return hankel_det(family, n)
    return det_fraction_free(hankel_columns(family, n, cols))


def quartet(family: FamilyId, n: int) -> HankelQuartet:
    """All four determinants; M and N are None at n = 0.

    K_0 degenerates to det[[a_1]] = a_1 per the defining column layout.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    key = (family, n)
    hit = _quartet_memo.get(key)
    if hit is not None:
        return hit
    h = hankel_det(family, n)
    k = variant_det(family, n, "K")
    m = nn = None
    if n >= 1:
        m = variant_det(family, n, "M")
        nn = variant_det(family, n, "N")
    q = HankelQuartet(family, n, h, k, m, nn)
    with _memo_lock:
        _quartet_memo.setdefault(key, q)
    return q


def _values_at(family: FamilyId, count: int, x0: Rat) -> list[Rat]:
    """a_0(x0), ..., a_{count-1}(x0), each by integer homogeneous Horner."""
    return [a_poly(family, k)(x0) for k in range(count)]


def _point_det(values: Sequence[Rat], n: int, cols: Sequence[int]) -> Rat:
    """det of the matrix whose j-th column is values[c_j .. c_j + n]."""
    return det_rational([[values[c + i] for c in cols] for i in range(n + 1)])


def variant_det_at(family: FamilyId, n: int, variant: str, x0) -> Rat:
    """One of H_n, K_n, M_n, N_n at a rational point, substituting first."""
    cols = _variant_columns(n, variant)
    return _point_det(_values_at(family, max(cols) + n + 1, rat(x0)), n, cols)


def hankel_det_at(family: FamilyId, n: int, x0) -> Rat:
    """H_n evaluated at a rational point, substituting before elimination."""
    return variant_det_at(family, n, "H", x0)


def quartet_at(family: FamilyId, n: int, x0) -> dict[str, Optional[Rat]]:
    """Point-evaluated quartet {H, K, M, N}; M, N are None at n = 0.

    The 2n + 3 distinct entries are evaluated once and shared by all four.
    """
    names = VARIANTS if n >= 1 else ("H", "K")
    layout = {name: _variant_columns(n, name) for name in names}
    values = _values_at(family, max(map(max, layout.values())) + n + 1, rat(x0))
    out: dict[str, Optional[Rat]] = {"M": None, "N": None}
    for name, cols in layout.items():
        out[name] = _point_det(values, n, cols)
    return out


def dodgson_check(family: FamilyId, n: int) -> bool:
    """H_{n-1} H_{n+1} = H_n N_n - H_n M_n - K_n^2 as a Poly identity."""
    if n < 1:
        raise ValueError("the Dodgson-like identity needs n >= 1")
    q = quartet(family, n)
    lhs = hankel_det(family, n - 1) * hankel_det(family, n + 1)
    rhs = q.H * q.N - q.H * q.M - q.K * q.K
    return lhs == rhs


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
    alphas: tuple[Fraction, ...]
    betas: tuple[Fraction, ...]
    gamma: Fraction

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
