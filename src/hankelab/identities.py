"""Determinant-level relations, trace transformation rules, and the
third-identity weight machinery (the sequence-level lemmas are `lemmas.py`).

The determinant-level relations tie H, K, M, N and the derivatives of H
together at fixed n.  Each symbolic relation is stated once, as terms
(symbol, Poly coefficient): the symbolic check sums them against the
determinants over Z[x], and the point screen sums the same terms at x0 over
Z, against integer-jet values over one denominator, with one division per
residual.  The weight machinery reads the annihilating weights off the
closed generating-function denominator that `series.gf_fraction` states,
one code path for (3,1) and (2,1), and compares them with the explicit
closed forms.  Every sum of coefficients times polynomials here (relation
residuals, Table-1 traces, weight annihilation rows) is one `poly.lin_comb`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from enum import Enum
from functools import lru_cache
from math import gcd

from .closed_forms import ODES
from .jet import JET, terms_at
from .poly import Poly, denominator_lcm, from_int_scaled, lin_comb, to_int_scaled
from .poly import int_poly_add_into
from .rat import Rat, binom0, double_factorial, factorial, rat
from .sequences import F21, F31, FamilyId, a_poly, conv_poly
from .hankel import (
    INT,
    cached_ladder,
    gauss_jordan,
    hankel_det_at,
    hankel_matrix,
    int_adjugate,
    quartet,
    variant_det_at,
)


def _p(*cs) -> Poly:
    return Poly(cs)


# (x-3)(2x-3)(4x-3): the coefficient of H_n' in R_DET01 (and of d_x a_k in L1_31)
_S31 = _p(-3, 1) * _p(-3, 2) * _p(-3, 4)


# ---------------------------------------------------------------------------
# Determinant-level relations
# ---------------------------------------------------------------------------
#
# Every symbolic relation is linear in H, K, M, N, H' and H'' and is stated
# once, as residuals: each a tuple of (symbol, Poly coefficient) terms, with
# _SYMBOLS naming the values in the order jet_quartet gives them.
# `relation_residuals` sums coefficient times determinant over Z[x];
# `relation_residuals_at` sums the coefficient's value at x0 times the jet
# value over Z (`jet.terms_at`), which is the same residual at x0 times the
# jets' common q-power, because every relation is homogeneous in the values.


class RelationId(Enum):
    R_DET01 = "r_det01"
    R_LINEAR = "r_linear"
    R_SECONDDER = "r_secondder"
    R_RHS = "r_rhs"
    R_X3 = "r_x3"
    R_X3HALF = "r_x3half"
    R_X3QUARTER = "r_x3quarter"
    R_CREC = "r_crec"
    R_21_FIRST = "r_21_first"
    R_21_SECOND = "r_21_second"
    R_21_FACTORED = "r_21_factored"
    R_21_THIRD = "r_21_third"
    R_21_X0 = "r_21_x0"
    R_21_X2 = "r_21_x2"


_SYMBOLS = ("H", "K", "M", "N", "dH", "d2H")


def pnqnrn_31(n: int) -> tuple[Poly, Poly, Poly]:
    """The (3,1) third-identity anchor weights (p_n, q_n, r_n)."""
    p = -8 * (4 * n + 3) * (4 * n + 5) * _p(-1, 1)
    q = (4 * (4 * n + 3)) * _p(
        -27 * n * n - 93 * n - 75, 27 * n * n + 81 * n + 60, 8 * n + 10
    )
    r = -_p(
        -729 * n**4 - 3564 * n**3 - 6015 * n**2 - 4236 * n - 1080,
        729 * n**4 + 2916 * n**3 + 3777 * n**2 + 1722 * n + 180,
        432 * n**3 + 1492 * n**2 + 1676 * n + 600,
    )
    return p, q, r


def pnqnrn_21(n: int) -> tuple[Poly, Poly, Poly]:
    """The (2,1) third-identity anchor weights."""
    return (
        Poly.one(),
        -_p(4 + 2 * n, 1),
        _p(2 + 5 * n + 2 * n * n, 3 + 2 * n),
    )


def _scaled(weight: Poly | int, terms) -> tuple:
    return tuple((s, weight * c) for s, c in terms)


def _third(pqr: tuple[Poly, Poly, Poly]) -> tuple:
    """p_n N + q_n K + r_n H."""
    p, q, r = pqr
    return (("N", p), ("K", q), ("H", r))


def _ode(name: str, n: int, weight: Poly) -> tuple:
    """weight times the named equation's left side, sum_k coeffs(n)[k] d^k H."""
    return _scaled(weight, zip(("H", "dH", "d2H"), ODES[name].coeffs(n)))


def _w21(n: int) -> Poly:
    """(2n+1)(1 + 2n + 2n(n+1)x): N's coefficient in R_21_SECOND and the
    third identity's multiplier in R_21_FACTORED."""
    return (2 * n + 1) * _p(1 + 2 * n, 2 * n + 2 * n * n)


def _det01(n: int) -> tuple:
    h = -_p(-3 * (9 * n * n + 13 * n + 8), -6 * (5 * n + 1), 8 * n)
    return ((("dH", _S31), ("H", h), ("K", _p(-2 * (4 * n + 3)))),)


def _linear(n: int) -> tuple:
    k = _p(6 * (54 * n + 31), -108 * (5 * n + 2), 8 * (36 * n + 7), -16 * (4 * n + 1))
    h = _p(
        -729 * n * n - 1083 * n - 324,
        1458 * n * n + 1770 * n + 378,
        -(972 * n * n + 800 * n + 108),
        216 * n * n - 24 * n - 12,
        64 * n + 16,
    )
    xm1 = _p(-1, 1)
    return ((("N", 4 * (4 * n + 5) * xm1), ("M", 4 * (4 * n + 1) * xm1), ("K", k), ("H", h)),)


def _secondder(n: int) -> tuple:
    h = -_p(
        -3 * (243 * n**4 + 1674 * n**3 + 3679 * n**2 + 3140 * n + 1008),
        3 * (243 * n**4 + 2106 * n**3 + 5192 * n**2 + 4291 * n + 1482),
        -4 * (459 * n**3 + 1661 * n**2 + 949 * n + 417),
        12 * (36 * n**3 + 163 * n**2 - 65 * n - 8),
        -96 * (3 * n * n - 8 * n - 2),
        64 * n * (n - 1),
    )
    k = (2 * (4 * n + 3)) * _p(
        -3 * (18 * n * n + 80 * n + 77),
        6 * (9 * n * n + 48 * n + 53),
        -4 * (17 * n + 31),
        16 * (n + 2),
    )
    terms = (("d2H", _p(-1, 1) * _S31**2), ("H", h), ("K", k), ("N", pnqnrn_31(n)[0]))
    return (_scaled(4 * (4 * n + 1), terms),)


def _rhs(n: int) -> tuple:
    # The right side of the differential-equation derivation is the
    # combination p_n N + q_n K + r_n H: both its vanishing and the full
    # displayed equation, de1 times (x-3)(2x-3)^2(4x-3)^2 plus it, are asserted.
    third = _third(pnqnrn_31(n))
    return (third, _ode("de1", n, _p(-3, 1) * _p(-3, 2) ** 2 * _p(-3, 4) ** 2) + third)


def _21_first(n: int) -> tuple:
    first = (
        ("dH", 2 * _p(0, 1) * _p(-2, 1)),
        ("H", _p(3 + 8 * n + 4 * n * n, 1)),
        ("K", _p(-(2 * n + 1))),
    )
    second = (
        ("H", _p(-4 * n - 8, 10 * n + 12, 8 * n * n + 12 * n + 8, 2 * n)),
        ("K", -_p(4, 12 + 8 * n, 2 + 4 * n)),
        ("M", 2 * _p(1, n)),
        ("N", 2 * _p(1, n + 1)),
    )
    return (first, second)


def _21_second(n: int) -> tuple:
    dh = _p(3 + 10 * n + 4 * n * n, 3 + 9 * n + 12 * n * n + 4 * n**3, 4 * n + 2 * n * n)
    h = _p(
        10 + 49 * n + 78 * n * n + 44 * n**3 + 8 * n**4,
        4 + 34 * n + 86 * n * n + 98 * n**3 + 48 * n**4 + 8 * n**5,
        1 + 8 * n + 14 * n * n + 8 * n**3,
        2 * n - 2 * n**3,
    )
    xx2 = _p(0, 1) * _p(-2, 1)
    return ((("d2H", 2 * xx2**2 * _p(1, n)), ("dH", 2 * xx2 * dh), ("H", h), ("N", -_w21(n))),)


def _21_factored(n: int) -> tuple:
    # de2np1 times 2x(x-2)(1+nx) equals the third identity times _w21(n)
    lhs = _ode("de2np1", n, 2 * _p(-2, 1) * _p(0, 1) * _p(1, n))
    return (lhs + _scaled(-_w21(n), _third(pnqnrn_21(n))),)


# rid -> (family, terms): terms(n) gives the relation's residuals
_RELATIONS = {
    RelationId.R_DET01: (F31, _det01),
    RelationId.R_LINEAR: (F31, _linear),
    RelationId.R_SECONDDER: (F31, _secondder),
    RelationId.R_RHS: (F31, _rhs),
    RelationId.R_21_FIRST: (F21, _21_first),
    RelationId.R_21_SECOND: (F21, _21_second),
    RelationId.R_21_FACTORED: (F21, _21_factored),
    RelationId.R_21_THIRD: (F21, lambda n: (_third(pnqnrn_21(n)),)),
}

SYMBOLIC_RELATIONS = tuple(_RELATIONS)


def _require_n(rid: RelationId, n: int) -> None:
    if n < 1:
        raise ValueError(f"{rid.value} needs n >= 1: M_0, N_0 and H_-1 are undefined")


@lru_cache(maxsize=None)
def _relation_terms(rid: RelationId, n: int) -> tuple:
    """(family, residuals) of a symbolic relation, built once per (rid, n)."""
    if rid not in _RELATIONS:
        raise ValueError(f"{rid.value} is a point relation; use relation_point_ok")
    _require_n(rid, n)
    family, terms = _RELATIONS[rid]
    return family, terms(n)


def _combine(residuals, values) -> list:
    """Each residual's sum of coefficient times value, values in _SYMBOLS order."""
    named = dict(zip(_SYMBOLS, values))
    return [lin_comb((c, named[s]) for s, c in terms) for terms in residuals]


def relation_residuals(rid: RelationId, n: int) -> list[Poly]:
    """Symbolic relations: list of Poly residuals, all zero iff it holds."""
    family, residuals = _relation_terms(rid, n)
    q = quartet(family, n)
    dh = q.H.derivative()
    return _combine(residuals, (q.H, q.K, q.M, q.N, dh, dh.derivative()))


# rid -> (family, x0, {name: K/N/M multiplier as a function of n}), asserting
# V(x0) = mult(n) * H(x0) for each V named; R_CREC asserts only its recursion.
_POINT_SPECS = {
    RelationId.R_CREC: (F31, Rat(3), {}),
    RelationId.R_X3: (
        F31,
        Rat(3),
        {
            "K": lambda n: Rat(3 * (9 * n * n + 19 * n + 14), 2 * (4 * n + 3)),
            "N": lambda n: Rat(
                3 * (243 * n**4 + 1512 * n**3 + 3605 * n**2 + 4144 * n + 1920),
                8 * (4 * n + 3) * (4 * n + 5),
            ),
            "M": lambda n: Rat(
                -3 * n * (243 * n**3 + 540 * n**2 + 559 * n + 58),
                8 * (4 * n + 1) * (4 * n + 3),
            ),
        },
    ),
    RelationId.R_X3HALF: (
        F31,
        Rat(3, 2),
        {
            "K": lambda n: Rat(3 * (9 * n * n + 22 * n + 11), 2 * (4 * n + 3)),
            "N": lambda n: Rat(
                3 * (243 * n**4 + 1674 * n**3 + 4031 * n**2 + 3934 * n + 1290),
                8 * (4 * n + 3) * (4 * n + 5),
            ),
            "M": lambda n: Rat(
                -3 * n * (243 * n**3 + 702 * n**2 + 547 * n + 118),
                8 * (4 * n + 1) * (4 * n + 3),
            ),
        },
    ),
    RelationId.R_X3QUARTER: (
        F31,
        Rat(3, 4),
        {
            "K": lambda n: Rat(3 * (18 * n * n + 38 * n + 19), 4 * (4 * n + 3)),
            "N": lambda n: Rat(
                3 * (486 * n**4 + 3024 * n**3 + 6724 * n**2 + 6290 * n + 2085),
                16 * (4 * n + 3) * (4 * n + 5),
            ),
            "M": lambda n: Rat(
                -3 * n * (243 * n**3 + 540 * n**2 + 316 * n + 31),
                8 * (4 * n + 1) * (4 * n + 3),
            ),
        },
    ),
    RelationId.R_21_X0: (
        F21,
        Rat(0),
        {
            "K": lambda n: Rat(3 + 8 * n + 4 * n * n, 2 * n + 1),
            "N": lambda n: Rat(
                10 + 49 * n + 78 * n * n + 44 * n**3 + 8 * n**4, (2 * n + 1) ** 2
            ),
            "M": lambda n: Rat(-(3 * n + 2 * n * n)),
        },
    ),
    RelationId.R_21_X2: (
        F21,
        Rat(2),
        {
            "K": lambda n: Rat(5 + 8 * n + 4 * n * n, 2 * n + 1),
            "N": lambda n: Rat(22 + 33 * n + 20 * n * n + 4 * n**3, 2 * n + 1),
            "M": lambda n: Rat(-n * (7 + 8 * n + 4 * n * n), 2 * n + 1),
        },
    ),
}

POINT_RELATIONS = tuple(_POINT_SPECS)

# Squared-ratio recursions H_{n-1} H_{n+1} = ratio * H_n^2 at the three
# special points of the (3,1) family.
_RECURSION_RATIOS = {
    RelationId.R_CREC: lambda n: Rat(
        9 * (3 * n + 4) * (3 * n + 5) * (6 * n - 1) * (6 * n + 1),
        4 * (4 * n + 1) * (4 * n + 3) ** 2 * (4 * n + 5),
    ),
    RelationId.R_X3HALF: lambda n: Rat(
        9 * (3 * n + 2) * (3 * n + 4) * (6 * n + 1) * (6 * n + 5),
        4 * (4 * n + 1) * (4 * n + 3) ** 2 * (4 * n + 5),
    ),
    RelationId.R_X3QUARTER: lambda n: Rat(
        9 * (3 * n + 1) * (3 * n + 2) * (6 * n + 5) * (6 * n + 7),
        4 * (4 * n + 1) * (4 * n + 3) ** 2 * (4 * n + 5),
    ),
}


def relation_point_ok(rid: RelationId, n: int) -> bool:
    """Point relations: K/N/M multiples of H, and the squared recursions."""
    _require_n(rid, n)
    fam, x0, mults = _POINT_SPECS[rid]
    h = hankel_det_at(fam, n, x0)
    for name, mult in mults.items():
        if variant_det_at(fam, n, name, x0) != mult(n) * h:
            return False
    if rid in _RECURSION_RATIOS:
        hm = hankel_det_at(fam, n - 1, x0)
        hp = hankel_det_at(fam, n + 1, x0)
        if hm * hp != _RECURSION_RATIOS[rid](n) * h * h:
            return False
    return True


def check_relation(rid: RelationId, n: int) -> bool:
    if rid in POINT_RELATIONS:
        return relation_point_ok(rid, n)
    return all(r.is_zero() for r in relation_residuals(rid, n))


def jet_quartet(family: FamilyId, n: int, x0) -> tuple:
    """((H, K, M, N, d_xH, d_x^2 H) as integers, their common denominator).

    Read off the family's ladder over integer length-3 jets: each distinct
    entry a_k is expanded at x0 = p/q once, times q^k, so a determinant on
    columns c_0..c_n carries q^(n(n+1)/2 + sum c_j).  Each value is then
    lifted to the identical factor q^((2n+2)(n+1)), which is harmless to
    the linear homogeneous relations screened against these values; the
    denominator is the ladder's entry scale D to the power n + 1.  Where a
    pivot of the ladder vanishes at x0, each determinant is eliminated on
    its own with row pivoting, which raises ``JetNotInvertible`` when a
    pivot it must divide by is not a unit.
    """
    if n < 1:
        raise ValueError("the jet quartet needs n >= 1: M_0 and N_0 are undefined")
    x0 = rat(x0)
    q = x0.denominator
    scale, lad = cached_ladder(family, x0, JET, n)
    h, k, m, nn = (lad.det(n, name) for name in "HKMN")
    # the columns of K sum to one more than H's, and M's and N's to two more
    lift = q ** ((2 * n + 2) * (n + 1) - n * (n + 1) - 2)
    values = (h[0] * q * q, k[0] * q, m[0], nn[0], h[1] * q * q, 2 * h[2] * q * q)
    return tuple(v * lift for v in values), scale ** (n + 1)


def relation_residuals_at(rid: RelationId, n: int, x0) -> list[Rat]:
    """Cheap screen: a symbolic relation's residuals evaluated at a rational x.

    The same terms as `relation_residuals`, read at x0 against integer-jet
    values of the determinants and of H's first two derivatives; no
    symbolic determinant is formed, and each residual is one integer sum
    (`jet.terms_at`) divided once.  Each residual comes out times the
    jets' common x0-denominator power.
    """
    family, residuals = _relation_terms(rid, n)
    x = rat(x0)
    values, den = jet_quartet(family, n, x)
    return terms_at(residuals, dict(zip(_SYMBOLS, values)), den, x)


# ---------------------------------------------------------------------------
# Table-1 trace rules
# ---------------------------------------------------------------------------


def table1_rules(family: FamilyId, n: int) -> list[tuple[str, Callable[[int], Poly], Poly]]:
    """(name, x, value) for Tr(A^{-1} X) H_n = value, X = [x(i + j)]."""
    if n < 1:
        raise ValueError("trace rules need n >= 1 (M, N enter)")
    q = quartet(family, n)
    h, k, m, nn = q.H, q.K, q.M, q.N
    a0 = a_poly(family, 0)
    a1 = a_poly(family, 1)
    return [
        ("dx_an", lambda s: a_poly(family, s).derivative(), h.derivative()),
        ("n_an_minus1", lambda s: s * a_poly(family, s - 1) if s else Poly.zero(), Poly.zero()),
        ("an", lambda s: a_poly(family, s), (n + 1) * h),
        ("n_an", lambda s: s * a_poly(family, s), n * (n + 1) * h),
        ("c_nminus1", lambda s: conv_poly(family, s - 1), Poly.zero()),
        ("cn", lambda s: conv_poly(family, s), (2 * n + 1) * a0 * h),
        ("a_nplus1", lambda s: a_poly(family, s + 1), k),
        ("n_a_nplus1", lambda s: s * a_poly(family, s + 1), 2 * n * k),
        ("c_nplus1", lambda s: conv_poly(family, s + 1), 2 * a0 * k + 2 * n * a1 * h),
        ("a_nplus2", lambda s: a_poly(family, s + 2), m + nn),
        ("n_a_nplus2", lambda s: s * a_poly(family, s + 2), 2 * (n - 1) * m + 2 * n * nn),
    ]


def _trace_values(family: FamilyId, n: int) -> list[tuple[str, Poly, Poly]]:
    """(name, Tr(adj(A) X), stated value) for each Table-1 rule.

    Tr(adj(A) X) is the sum over s of x(s) times the s-th anti-diagonal sum
    of adj(A) = B / scale, from one Gauss-Jordan elimination of A's own: the
    anti-diagonal sums add B's integer entries, and each rule is one
    `lin_comb` of them against x(s).
    """
    rows, scale = int_adjugate(hankel_matrix(family, n))
    sums = []
    for s in range(2 * n + 1):
        acc: list[int] = []
        for i in range(max(0, s - n), min(s, n) + 1):
            int_poly_add_into(acc, rows[i][s - i])
        sums.append(from_int_scaled(acc, scale))
    return [(name, lin_comb(zip(sums, map(x, range(2 * n + 1)))), expected)
            for name, x, expected in table1_rules(family, n)]


def transform_rules(family: FamilyId, n: int) -> list[tuple[str, bool]]:
    """Table-1 rules as trace identities Tr(A^{-1} X) H_n = stated value."""
    return [(name, got == want) for name, got, want in _trace_values(family, n)]


# ---------------------------------------------------------------------------
# Third-identity weight machinery
# ---------------------------------------------------------------------------


class WeightError(AssertionError):
    """A structural property of the weight construction failed."""


class WeightSolution(namedtuple("WeightSolution", "family n q0 q2 weights scale")):
    """The third-identity weights of (family, n).

    q0: tuple of Rat y-coefficients, degree n+1; q2: den*Q0 through y^{n+2},
    with den the closed generating-function denominator, as Poly-in-x
    coefficients by power of y; weights: w_{n,0} .. w_{n,n+2}, Q2 reversed;
    scale: (w_{n,n+2}, w_{n,n+1}, w_{n,n}) = scale*(p,q,r).
    """

    __slots__ = ()


def rational_nullspace(rows: Sequence[Sequence[Rat]], ncols: int) -> list[list[int]]:
    """Primitive integer nullspace basis of a rational matrix, one vector per
    free column f, positive at f: Gauss-Jordan over Z of the integer-scaled
    rows leaves every pivot d, so d at f and minus each pivot row's entry at
    f in its pivot column annihilate the rows.  Each row is first made
    primitive with a positive leading entry, and zero and repeated rows are
    dropped: the row space, and so the basis, is unchanged."""
    int_rows: dict[tuple[int, ...], None] = {}
    for row in rows:
        scale = denominator_lcm(row)
        ints = [int(v * scale) for v in row]
        g = gcd(*ints)
        if g:
            g = g if next(v for v in ints if v) > 0 else -g
            int_rows.setdefault(tuple(v // g for v in ints))
    reduced, pivots, _ = gauss_jordan(list(int_rows), INT)
    d = reduced[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = d
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        g = gcd(*vec) if d > 0 else -gcd(*vec)
        basis.append([v // g for v in vec])
    return basis


# (family, n) -> WeightSolution.  The solution is immutable (a frozen record
# of tuples of Rats and Polys), so the weights, explicit-weights and ciden
# checks share one per process.  A construction that raises is not kept.
_weight_memo: dict[tuple[FamilyId, int], WeightSolution] = {}


def weight_nullspace(family: FamilyId, n: int) -> WeightSolution:
    """Read Q0, Q2 and the weights off the closed generating-function
    denominator den of `series.gf_fraction`.

    Q0 (degree n+1) is fixed by demanding the y^{n+3}..y^{2n+3} coefficients
    of den*Q0 vanish, one equation per power of y and of x; the nullspace
    must be exactly 1-dimensional.  Q0 is normalized so its lowest-index
    nonzero coefficient is 1, and Q2 is den*Q0 through y^{n+2}.  Built once
    per (family, n) in a process, every structural check included.
    """
    key = (family, n)
    sol = _weight_memo.get(key)
    if sol is None:
        sol = _weight_memo.setdefault(key, _solve_weights(family, n))
    return sol


def _solve_weights(family: FamilyId, n: int) -> WeightSolution:
    if n < 1:
        raise ValueError("weight construction needs n >= 1")
    form = _weight_form(family)
    order = 2 * n + 3
    # imported here: the point screen reads no generating function
    from .series import closed_form_for, gf_fraction

    _num, den = gf_fraction(closed_form_for(family), family, order)
    # den over Z, one width: d[k][e] is scale times the y^k x^e coefficient
    d, scale = to_int_scaled(den.coeffs)
    width = max(map(len, d))
    d = [c + [0] * (width - len(c)) for c in d]
    ncols = n + 2
    # the y^r x^e coefficient of den*Q0, one row per r = n+3..2n+3 and e
    rows = [
        [d[r - i][e] for i in range(ncols)]
        for r in range(n + 3, order + 1)
        for e in range(width)
    ]
    basis = rational_nullspace(rows, ncols)
    if len(basis) != 1:
        raise WeightError(
            f"nullspace dimension {len(basis)} != 1 for family {family} n={n}"
        )
    vec = basis[0]
    lead = next(v for v in vec if v != 0)
    q0 = tuple(Rat(v, lead) for v in vec)
    # den*Q0 through y^{2n+3}, times scale*lead: Q2 is its part through y^{n+2}
    prod = [
        [sum(vec[i] * d[k - i][e] for i in range(min(k, n + 1) + 1)) for e in range(width)]
        for k in range(order + 1)
    ]
    for k in range(n + 3, order + 1):
        if any(prod[k]):
            raise WeightError(f"truncation equation failed at y^{k}")
    q2 = tuple(from_int_scaled(c, scale * lead) for c in prod[: n + 3])
    weights = q2[::-1]

    for i in range(n + 1):
        if lin_comb((w, a_poly(family, i + j)) for j, w in enumerate(weights)):
            raise WeightError(f"weight annihilation failed at row i={i}")

    scale = _proportionality_scale(
        (weights[n + 2], weights[n + 1], weights[n]), form.anchor(n)
    )
    if scale is None:
        raise WeightError("top-three weights not proportional to (p_n, q_n, r_n)")

    # The parametric solution (C_0, C_1, C_2)(Q0) = alpha * q0_params(n).
    c0, c1, c2 = form.q0_params(n)
    alpha = q0[0] / c0
    if q0[1] != c1 * alpha:
        raise WeightError("C_1(Q0) parametric form mismatch")
    if q0[2] != c2 * alpha:
        raise WeightError("C_2(Q0) parametric form mismatch")

    return WeightSolution(
        family=family, n=n, q0=q0, q2=q2, weights=weights, scale=scale
    )


def _proportionality_scale(
    got: Sequence[Poly], want: Sequence[Poly]
) -> Rat | None:
    scale = None
    for g, w in zip(got, want):
        if w.is_zero():
            if not g.is_zero():
                return None
            continue
        # Candidate scale from the leading coefficients, then exact match.
        cand = g.coefficient(int(w.degree)) / w.leading if not g.is_zero() else Rat(0)
        if scale is None:
            scale = cand
        if g != w * scale:
            return None
    return scale


def ciden_check(family: FamilyId, n: int) -> bool:
    """C_0(Q2) N_n + C_1(Q2) K_n + C_2(Q2) H_n = 0 (a nontrivial identity)."""
    sol = weight_nullspace(family, n)
    q = quartet(family, n)
    return lin_comb(zip(sol.q2, (q.N, q.K, q.H))).is_zero()


# -- explicit closed-form weights -------------------------------------------


def explicit_weights_21(n: int) -> list[Poly]:
    """The (2,1) closed-form weights, all indices j = 0..n+2."""
    out = []
    for j in range(n + 3):
        sign = -1 if (n + j) % 2 else 1
        const = 2 * binom0(n + j + 1, n - j + 1) + binom0(n + j + 1, n - j + 2)
        lin = 2 * binom0(n + j + 1, n - j) + binom0(n + j + 1, n - j + 1)
        out.append(Poly([sign * const, sign * lin]))
    return out


def _u31(n: int, i: int, j: int) -> Rat:
    df = double_factorial
    f = factorial
    num = (
        3
        * 2 ** (i + 1)
        * (4 * n + 3)
        * (4 * n + 5)
        * binom0(n, 2 * i)
        * binom0(j + 2 * (n - i + 1) + 1, 2 * (n - i - j + 1) + 1)
        * f(2 * n - i + 2)
        * df(4 * n - 2 * i + 5)
        * df(6 * n + 7)
    )
    den = (
        (2 * i + 1)
        * (3 * j + 1)
        * (3 * j + 2)
        * (2 * i - j - 2 * n - 3)
        * (2 * i - j - 2 * n - 2)
        * f(2 * n + 1)
        * df(4 * n + 5)
        * df(6 * n - 4 * i + 7)
    )
    return Rat(num, den)


def _v31(n: int, i: int, j: int) -> Rat:
    df = double_factorial
    f = factorial
    num = (
        3
        * 2 ** (i + 3)
        * (2 * n - 2 * i - 2 * j + 5)
        * (4 * n + 3)
        * (4 * n + 5)
        * binom0(n + 1, 2 * i)
        * binom0(j + 2 * (n - i + 2) + 1, 2 * (n - i - j + 2) + 1)
        * f(2 * n - i + 3)
        * df(4 * n - 2 * i + 5)
        * df(6 * n + 7)
    )
    den = (
        (3 * j + 1)
        * (3 * j + 2)
        * (2 * i - j - 2 * n - 5)
        * (2 * i - j - 2 * n - 4)
        * (2 * i - j - 2 * n - 3)
        * f(2 * n + 2)
        * df(4 * n + 5)
        * df(6 * n - 4 * i + 9)
    )
    return Rat(num, den)


def _abc31(n: int, i: int, j: int) -> Poly:
    alpha = (
        3
        * (9 * j * (j + 1) + 2)
        * (
            12 * i * i
            + 6 * (3 * j - 4 * n - 5) * i
            + 6 * (n + 1) * (2 * n + 3)
            - j * (18 * n + 19)
        )
    )
    beta = -3 * (3 * j + 2) * (
        24 * i**3
        + 8 * (12 * j - 9 * n - 8) * i * i
        + 2 * (36 * n * n - 96 * j * n + 64 * n + 9 * j * (5 * j - 11) + 23) * i
        - 2 * (n + 1) * (2 * n + 3) * (6 * n + 1)
        - j * j * (90 * n + 89)
        + 3 * j * (32 * n * n + 66 * n + 33)
    )
    gamma = (
        2
        * (2 * i + 2 * j - 2 * n - 3)
        * (i + j - n - 1)
        * (
            36 * i * i
            + 6 * (9 * j - 12 * n - 5) * i
            + 6 * n * (6 * n + 5)
            - 3 * j * (18 * n + 13)
            + 2
        )
    )
    return Poly([alpha, beta, gamma])


def _def31(n: int, i: int, j: int) -> Poly:
    delta = (
        3
        * (9 * j * (j + 1) + 2)
        * (
            6 * i * i
            + 3 * (3 * j - 4 * n - 7) * i
            + 3 * (n + 2) * (2 * n + 3)
            - j * (9 * n + 14)
        )
    )
    eps = -3 * (3 * j + 2) * (
        12 * i**3
        + (48 * j - 36 * n - 50) * i * i
        + (45 * j * j - 3 * (32 * n + 49) * j + 4 * (n + 1) * (9 * n + 16)) * i
        - 2 * (n + 2) * (2 * n + 3) * (3 * n + 2)
        - j * j * (45 * n + 67)
        + 3 * j * (n * (16 * n + 49) + 37)
    )
    theta = (
        2
        * (2 * i + 2 * j - 2 * n - 3)
        * (i + j - n - 2)
        * (
            18 * n * n
            - 9 * (4 * i + 3 * j) * n
            + 33 * n
            - 33 * j
            + 3 * i * (6 * i + 9 * j - 11)
            + 13
        )
    )
    return Poly([delta, eps, theta])


def explicit_weights_31(n: int) -> list[Poly]:
    """The conjectured (3,1) closed-form weights, all indices j = 0..n+2."""
    out = []
    half_cap = n // 2 + 1
    for j in range(n + 3):
        pairs = []
        for i in range(0, min(n + 1 - j, half_cap) + 1):
            pairs.append((_u31(n, i, j), _abc31(n, i, j)))
        for i in range(0, min(n + 2 - j, half_cap) + 1):
            pairs.append((_v31(n, i, j), _def31(n, i, j)))
        out.append(lin_comb(pairs))
    return out


# family -> the anchor weights (p_n, q_n, r_n), the parametric (C_0, C_1,
# C_2)(Q0) up to one scalar, and the explicit closed-form weights.
WeightForm = namedtuple("WeightForm", "anchor q0_params explicit")
_WEIGHT_FORMS = {
    F31: WeightForm(
        pnqnrn_31,
        lambda n: (
            8 * (4 * n + 3) * (4 * n + 5),
            -12 * (1 + n) * (30 + 67 * n + 36 * n * n),
            3 * (50 * n + 343 * n**2 + 540 * n**3 + 243 * n**4),
        ),
        explicit_weights_31,
    ),
    F21: WeightForm(
        pnqnrn_21, lambda n: (1, -2 * (n + 1), n * (2 * n + 1)), explicit_weights_21
    ),
}


def _weight_form(family: FamilyId) -> WeightForm:
    form = _WEIGHT_FORMS.get(family)
    if form is None:
        raise ValueError("weights are constructed for the (3,1) and (2,1) families")
    return form


def explicit_weights(family: FamilyId, n: int) -> list[Poly]:
    return _weight_form(family).explicit(n)


def explicit_weights_match(family: FamilyId, n: int) -> tuple[bool, str]:
    """Compare closed-form weights with the nullspace weights up to one scalar.

    A mismatch is reported, not raised: the closed (3,1) form is conjectural
    in its source.
    """
    sol = weight_nullspace(family, n)
    explicit = explicit_weights(family, n)
    scale = _proportionality_scale(list(sol.weights), explicit)
    if scale is None:
        bad = [
            j
            for j in range(n + 3)
            if (sol.weights[j].is_zero()) != (explicit[j].is_zero())
        ]
        return False, f"no global scalar matches (structurally off at j={bad})"
    return True, f"proportional with scale {scale}"
