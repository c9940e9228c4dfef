"""Lemma-level identities, determinant-level relations, trace transformation
rules, and the third-identity weight machinery.

The sequence-level identities hold for every index k and are checked as
exact Poly identities; the determinant-level relations tie H, K, M, N and
the derivatives of H together at fixed n.  The weight machinery constructs
the annihilating weights from a truncated-series nullspace and compares
them with the explicit closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Callable, Optional, Sequence

from .jet import JET
from .poly import Poly, denominator_lcm
from .rat import Rat, binom0, double_factorial, factorial, rat
from .sequences import (
    F21,
    F30,
    F31,
    F3K2M,
    FAEX,
    FamilyId,
    a_poly,
    conv_poly,
    t_series,
)
from .hankel import (
    INT,
    adjugate,
    cached_ladder,
    gauss_jordan,
    hankel_det,
    hankel_det_at,
    hankel_matrix,
    quartet,
    variant_det_at,
)


def _p(*cs) -> Poly:
    return Poly(cs)


# ---------------------------------------------------------------------------
# Sequence-level identities (one Poly identity per index k)
# ---------------------------------------------------------------------------


class IdentityId(Enum):
    L1_31 = "l1_31"
    L2_31 = "l2_31"
    L1_21 = "l1_21"
    L2_21 = "l2_21"
    L1_30 = "l1_30"
    L2_30 = "l2_30"
    L1_3K2M = "l1_3k2m"
    L2_3K2M = "l2_3k2m"
    L1_AEX = "l1_aex"
    L2_AEX = "l2_aex"


IDENTITY_FAMILY: dict[IdentityId, FamilyId] = {
    IdentityId.L1_31: F31,
    IdentityId.L2_31: F31,
    IdentityId.L1_21: F21,
    IdentityId.L2_21: F21,
    IdentityId.L1_30: F30,
    IdentityId.L2_30: F30,
    IdentityId.L1_3K2M: F3K2M,
    IdentityId.L2_3K2M: F3K2M,
    IdentityId.L1_AEX: FAEX,
    IdentityId.L2_AEX: FAEX,
}


def identity_residual(iid: IdentityId, k: int) -> Poly:
    """The stated combination of a_{k-1..k+2}, c_{k-1..k+2}, d_x a_k."""
    fam = IDENTITY_FAMILY[iid]
    a = lambda i: a_poly(fam, i)
    c = lambda i: conv_poly(fam, i)
    da = a(k).derivative()
    I = IdentityId

    if iid is I.L1_31:
        return (
            _p(-3, 1) * _p(-3, 2) * _p(-3, 4) * da
            - 2 * (2 * k + 3) * a(k + 1)
            + _p(27 * k + 36, -18, 8) * a(k)
            - 4 * _p(3, -6, 2) * c(k)
            + 27 * _p(3, -6, 2) * c(k - 1)
        )
    if iid is I.L2_31:
        return (
            4 * (2 * k + 5) * _p(-1, 1) * a(k + 2)
            - (2 * k * _p(-81, 135, -72, 16) + 2 * _p(-117, 180, -92, 24)) * a(k + 1)
            + (27 * k * _p(-3, 2) ** 3 + 54 * _p(-3, 2) * _p(3, -4, 2)) * a(k)
            + 8 * _p(-1, 1) * _p(3, -6, 2) * c(k + 1)
            + 2 * _p(81, -297, 324, -114, 8) * c(k)
            - 27 * _p(0, 1) * _p(-3, 2) * _p(9, -12, 2) * c(k - 1)
        )
    if iid is I.L1_21:
        return (
            2 * _p(0, 1) * _p(-2, 1) * da
            - (k + 1) * a(k + 1)
            + _p(4 * k + 2, 2) * a(k)
            - _p(-1, 1) * c(k)
            + 4 * _p(-1, 1) * c(k - 1)
        )
    if iid is I.L2_21:
        return (
            _p(2, k + 2) * a(k + 2)
            - (2 * k * _p(0, 2, 1) + 2 * _p(4, 3, 2)) * a(k + 1)
            + 4 * (2 * k + 3) * _p(0, 0, 1) * a(k)
            + _p(-1, 1) * _p(-2, 1) * c(k + 1)
            - 4 * _p(-1, 1) * _p(-2, 1) * c(k)
        )
    if iid is I.L1_30:
        return (
            3 * _p(-3, 1) * _p(0, 1) * _p(-3, 4) * da
            - (4 * k * _p(-3, 2) + 2 * _p(-5, 2)) * a(k + 1)
            + (27 * k * _p(-3, 2) + 3 * _p(-9, -3, 4)) * a(k)
            - 4 * _p(-1, 1) * c(k + 1)
            + 27 * _p(-1, 1) * c(k)
        )
    if iid is I.L2_30:
        return (
            (4 * k * _p(-3, 2) ** 2 * _p(-3, 5) + 2 * _p(-3, 2) * _p(-3, 5) * _p(-11, 6))
            * a(k + 2)
            - (81 * k * _p(-9, 27, -24, 8) + 18 * _p(-54, 153, -123, 37)) * a(k + 1)
            + (729 * k + 486) * _p(0, 0, 0, 1) * a(k)
            + 4 * _p(-1, 1) * _p(-3, 2) * _p(-3, 5) * c(k + 2)
            - 3 * _p(-81, 270, -207, -30, 40) * c(k + 1)
            + 162 * _p(0, 0, 1) * _p(9, -15, 5) * c(k)
        )
    if iid is I.L1_3K2M:
        return (
            _p(0, 1) * _p(-9, 2) * _p(9, 4) * da
            - (36 * k + 30) * a(k + 1)
            + _p(243 * k + 81, 18, 8) * a(k)
            - 12 * c(k + 1)
            - _p(-81, -36, 8) * c(k)
            + 27 * _p(0, 1) * _p(-9, 2) * c(k - 1)
        )
    if iid is I.L2_3K2M:
        return (
            (36 * k + 66) * _p(3, 2) * a(k + 2)
            - (k * _p(729, 486, 0, 32) + 12 * _p(81, 54, 4, 4)) * a(k + 1)
            + (216 * k * _p(0, 0, 0, 1) + 108 * _p(0, 0, 1) * _p(3, 2)) * a(k)
            + 12 * _p(3, 2) * c(k + 2)
            + _p(-243, -378, -72, 16) * c(k + 1)
            + 2 * _p(0, 1) * _p(729, 243, -90, 8) * c(k)
            - 54 * _p(0, 0, 0, 1) * _p(-9, 2) * c(k - 1)
        )
    if iid is I.L1_AEX:
        return (
            _p(0, 1) * _p(-3, 1) * _p(-3, 7) * da
            - (4 * k + 14) * _p(-1, 1) * a(k + 1)
            + (27 * k * _p(-1, 1) + 3 * _p(-1, 1) * _p(3, 11)) * a(k)
            - 6 * _p(-1, 1) ** 2 * c(k)
            + 6 * _p(0, 0, 0, 1) * c(k - 1)
        )
    if iid is I.L2_AEX:
        return (
            (4 * k + 18) * _p(-1, 1) ** 2 * _p(-1, 3) * a(k + 2)
            + (k * _p(27, -135, 189, -113) - 4 * _p(-9, 39, -21, -19, 30)) * a(k + 1)
            + (216 * k * _p(0, 0, 0, 1) + 12 * _p(0, 0, 0, 1) * _p(15, -2, 7)) * a(k)
            + 6 * _p(-1, 1) ** 3 * _p(-1, 3) * c(k + 1)
            - 6 * _p(0, 0, 1) * _p(-1, 1) * _p(9, -17, 10) * c(k)
            + 6 * _p(0, 0, 0, 0, 0, 1) * _p(-9, 7) * c(k - 1)
        )
    raise ValueError(f"unknown identity {iid!r}")


def check_identity(iid: IdentityId, k_max: int) -> list[int]:
    """Indices k in 0..k_max where the identity FAILS (empty = all pass)."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return [k for k in range(k_max + 1) if not identity_residual(iid, k).is_zero()]


# ---------------------------------------------------------------------------
# Determinant-level relations
# ---------------------------------------------------------------------------


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


SYMBOLIC_RELATIONS = (
    RelationId.R_DET01,
    RelationId.R_LINEAR,
    RelationId.R_SECONDDER,
    RelationId.R_RHS,
    RelationId.R_21_FIRST,
    RelationId.R_21_SECOND,
    RelationId.R_21_FACTORED,
    RelationId.R_21_THIRD,
)

POINT_RELATIONS = (
    RelationId.R_X3,
    RelationId.R_X3HALF,
    RelationId.R_X3QUARTER,
    RelationId.R_CREC,
    RelationId.R_21_X0,
    RelationId.R_21_X2,
)


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


def relation_residuals(rid: RelationId, n: int) -> list[Poly]:
    """Symbolic relations: list of Poly residuals, all zero iff it holds."""
    R = RelationId
    _symbolic_relation(rid, n)
    if rid in (R.R_DET01, R.R_LINEAR, R.R_SECONDDER, R.R_RHS):
        q = quartet(F31, n)
        h, k, m, nn = q.H, q.K, q.M, q.N
        dh = h.derivative()
        d2h = dh.derivative()
        if rid is R.R_DET01:
            lhs = _p(-3, 1) * _p(-3, 2) * _p(-3, 4) * dh
            rhs = (
                _p(-3 * (9 * n * n + 13 * n + 8), -6 * (5 * n + 1), 8 * n) * h
                + 2 * (4 * n + 3) * k
            )
            return [lhs - rhs]
        if rid is R.R_LINEAR:
            return [
                4 * (4 * n + 5) * _p(-1, 1) * nn
                + 4 * (4 * n + 1) * _p(-1, 1) * m
                + _p(
                    6 * (54 * n + 31),
                    -108 * (5 * n + 2),
                    8 * (36 * n + 7),
                    -16 * (4 * n + 1),
                )
                * k
                + _p(
                    -729 * n * n - 1083 * n - 324,
                    1458 * n * n + 1770 * n + 378,
                    -(972 * n * n + 800 * n + 108),
                    216 * n * n - 24 * n - 12,
                    64 * n + 16,
                )
                * h
            ]
        if rid is R.R_SECONDDER:
            t1 = (
                4
                * (4 * n + 1)
                * _p(-1, 1)
                * _p(-3, 1) ** 2
                * _p(-3, 2) ** 2
                * _p(-3, 4) ** 2
                * d2h
            )
            t2 = (
                -4
                * (4 * n + 1)
                * _p(
                    -3 * (243 * n**4 + 1674 * n**3 + 3679 * n**2 + 3140 * n + 1008),
                    3 * (243 * n**4 + 2106 * n**3 + 5192 * n**2 + 4291 * n + 1482),
                    -4 * (459 * n**3 + 1661 * n**2 + 949 * n + 417),
                    12 * (36 * n**3 + 163 * n**2 - 65 * n - 8),
                    -96 * (3 * n * n - 8 * n - 2),
                    64 * n * (n - 1),
                )
                * h
            )
            t3 = (
                8
                * (4 * n + 1)
                * (4 * n + 3)
                * _p(
                    -3 * (18 * n * n + 80 * n + 77),
                    6 * (9 * n * n + 48 * n + 53),
                    -4 * (17 * n + 31),
                    16 * (n + 2),
                )
                * k
            )
            t4 = -32 * (4 * n + 1) * (4 * n + 3) * (4 * n + 5) * _p(-1, 1) * nn
            return [t1 + t2 + t3 + t4]
        # R_RHS: the right side of the differential-equation derivation is the
        # determinant combination p_n N + q_n K + r_n H; both the vanishing of
        # that combination and the full displayed equation are asserted.
        p, qq, r = pnqnrn_31(n)
        zero_comb = p * nn + qq * k + r * h
        lhs = (
            _p(-3, 1)
            * _p(-3, 2) ** 2
            * _p(-3, 4) ** 2
            * (
                _p(-1, 1) * _p(-3, 1) * d2h
                + _p(2 * (n + 2) * -3 + 3, 2 * (n + 2)) * dh
                - 3 * n * (n + 1) * h
            )
        )
        return [zero_comb, lhs + zero_comb]
    if rid in (R.R_21_FIRST, R.R_21_SECOND, R.R_21_FACTORED, R.R_21_THIRD):
        q = quartet(F21, n)
        h, k, m, nn = q.H, q.K, q.M, q.N
        dh = h.derivative()
        d2h = dh.derivative()
        if rid is R.R_21_FIRST:
            first = (
                2 * _p(0, 1) * _p(-2, 1) * dh
                + _p(3 + 8 * n + 4 * n * n, 1) * h
                - (2 * n + 1) * k
            )
            second = (
                _p(-4 * n - 8, 10 * n + 12, 8 * n * n + 12 * n + 8, 2 * n) * h
                - _p(4, 12 + 8 * n, 2 + 4 * n) * k
                + 2 * _p(1, n) * m
                + 2 * _p(1, n + 1) * nn
            )
            return [first, second]
        if rid is R.R_21_SECOND:
            return [
                2 * _p(-2, 1) ** 2 * _p(0, 0, 1) * _p(1, n) * d2h
                + 2
                * _p(-2, 1)
                * _p(0, 1)
                * _p(
                    3 + 10 * n + 4 * n * n,
                    3 + 9 * n + 12 * n * n + 4 * n**3,
                    4 * n + 2 * n * n,
                )
                * dh
                + _p(
                    10 + 49 * n + 78 * n * n + 44 * n**3 + 8 * n**4,
                    4 + 34 * n + 86 * n * n + 98 * n**3 + 48 * n**4 + 8 * n**5,
                    1 + 8 * n + 14 * n * n + 8 * n**3,
                    2 * n - 2 * n**3,
                )
                * h
                - (2 * n + 1) * _p(1 + 2 * n, 2 * n + 2 * n * n) * nn
            ]
        third = nn - _p(4 + 2 * n, 1) * k + _p(2 + 5 * n + 2 * n * n, 3 + 2 * n) * h
        if rid is R.R_21_THIRD:
            return [third]
        # R_21_FACTORED
        lhs = (
            2
            * _p(-2, 1)
            * _p(0, 1)
            * _p(1, n)
            * (_p(0, 1) * _p(-2, 1) * d2h + _p(-1, 2) * dh - n * (n + 1) * h)
        )
        rhs = (2 * n + 1) * _p(1 + 2 * n, 2 * n + 2 * n * n) * third
        return [lhs - rhs]
    raise ValueError(f"unknown symbolic relation {rid!r}")


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


_RELATION_SCREEN_FAMILY = {
    RelationId.R_DET01: F31,
    RelationId.R_LINEAR: F31,
    RelationId.R_SECONDDER: F31,
    RelationId.R_RHS: F31,
    RelationId.R_21_FIRST: F21,
    RelationId.R_21_SECOND: F21,
    RelationId.R_21_FACTORED: F21,
    RelationId.R_21_THIRD: F21,
}


def jet_quartet(family: FamilyId, n: int, x0) -> tuple:
    """(H, K, M, N, d_xH, d_x^2 H) at x0, all scaled by one common factor.

    Read off the family's ladder over integer length-3 jets: each distinct
    entry a_k is expanded at x0 = p/q once, times q^k, so a determinant on
    columns c_0..c_n carries q^(n(n+1)/2 + sum c_j).  Each value is then
    lifted to the identical factor q^((2n+2)(n+1)), which is harmless to
    the linear homogeneous relations screened against these values, and
    the ladder's entry scale D is divided out.  Where a pivot of the ladder
    vanishes at x0, each determinant is eliminated on its own with row
    pivoting, which raises ``JetNotInvertible`` when a pivot it must divide
    by is not a unit.
    """
    if n < 1:
        raise ValueError("the jet quartet needs n >= 1: M_0 and N_0 are undefined")
    x0 = rat(x0)
    q = x0.denominator
    scale, lad = cached_ladder(family, x0, JET, n)
    h, k, m, nn = (lad.det(n, name) for name in "HKMN")
    # the columns of K sum to one more than H's, and M's and N's to two more
    lift = q ** ((2 * n + 2) * (n + 1) - n * (n + 1) - 2)
    den = scale ** (n + 1)
    values = (h[0] * q * q, k[0] * q, m[0], nn[0], h[1] * q * q, 2 * h[2] * q * q)
    return tuple(Rat(v * lift, den) for v in values)


def _symbolic_relation(rid: RelationId, n: int) -> None:
    """Reject what neither relation entry point can evaluate."""
    if rid in POINT_RELATIONS:
        raise ValueError(f"{rid.value} is a point relation; use relation_point_ok")
    if n < 1:
        raise ValueError(f"{rid.value} needs n >= 1: M_0 and N_0 are undefined")


def relation_residuals_at(rid: RelationId, n: int, x0) -> list[Rat]:
    """Cheap screen: a symbolic relation evaluated at a rational x.

    The determinant values and the first two derivatives of H come from
    integer-jet elimination; no symbolic determinant is formed.  The values
    share one x0-denominator power, which the relations are homogeneous in.
    """
    _symbolic_relation(rid, n)
    fam = _RELATION_SCREEN_FAMILY[rid]
    x = rat(x0)
    h, k, m, nn, dh, d2h = jet_quartet(fam, n, x)

    if rid is RelationId.R_DET01:
        lhs = (x - 3) * (2 * x - 3) * (4 * x - 3) * dh
        rhs = (
            8 * n * x * x - 6 * (5 * n + 1) * x - 3 * (9 * n * n + 13 * n + 8)
        ) * h + 2 * (4 * n + 3) * k
        return [lhs - rhs]
    return _eval_relation_pointwise(rid, n, x, h, k, m, nn, dh, d2h)


def _eval_relation_pointwise(rid, n, x, h, k, m, nn, dh, d2h) -> list[Rat]:
    R = RelationId
    if rid is R.R_LINEAR:
        return [
            4 * (4 * n + 5) * (x - 1) * nn
            + 4 * (4 * n + 1) * (x - 1) * m
            + (
                -16 * (4 * n + 1) * x**3
                + 8 * (36 * n + 7) * x**2
                - 108 * (5 * n + 2) * x
                + 6 * (54 * n + 31)
            )
            * k
            + (
                (64 * n + 16) * x**4
                + (216 * n * n - 24 * n - 12) * x**3
                - (972 * n * n + 800 * n + 108) * x**2
                + (1458 * n * n + 1770 * n + 378) * x
                - 729 * n * n
                - 1083 * n
                - 324
            )
            * h
        ]
    if rid is R.R_SECONDDER:
        return [
            4
            * (4 * n + 1)
            * (x - 1)
            * (x - 3) ** 2
            * (2 * x - 3) ** 2
            * (4 * x - 3) ** 2
            * d2h
            - 4
            * (4 * n + 1)
            * (
                64 * n * (n - 1) * x**5
                - 96 * (3 * n * n - 8 * n - 2) * x**4
                + 12 * (36 * n**3 + 163 * n**2 - 65 * n - 8) * x**3
                - 4 * (459 * n**3 + 1661 * n**2 + 949 * n + 417) * x**2
                + 3 * (243 * n**4 + 2106 * n**3 + 5192 * n**2 + 4291 * n + 1482) * x
                - 3 * (243 * n**4 + 1674 * n**3 + 3679 * n**2 + 3140 * n + 1008)
            )
            * h
            + 8
            * (4 * n + 1)
            * (4 * n + 3)
            * (
                16 * (n + 2) * x**3
                - 4 * (17 * n + 31) * x**2
                + 6 * (9 * n * n + 48 * n + 53) * x
                - 3 * (18 * n * n + 80 * n + 77)
            )
            * k
            - 32 * (4 * n + 1) * (4 * n + 3) * (4 * n + 5) * (x - 1) * nn
        ]
    if rid is R.R_RHS:
        p, q, r = pnqnrn_31(n)
        return [p(x) * nn + q(x) * k + r(x) * h]
    if rid is R.R_21_FIRST:
        return [
            2 * x * (x - 2) * dh + (x + 3 + 8 * n + 4 * n * n) * h - (2 * n + 1) * k,
            (2 * n * x**3 + (8 * n * n + 12 * n + 8) * x**2 + (10 * n + 12) * x - 4 * n - 8)
            * h
            - ((2 + 4 * n) * x**2 + (12 + 8 * n) * x + 4) * k
            + 2 * (n * x + 1) * m
            + 2 * ((n + 1) * x + 1) * nn,
        ]
    if rid is R.R_21_SECOND:
        return [
            2 * (x - 2) ** 2 * x**2 * (1 + n * x) * d2h
            + 2
            * (x - 2)
            * x
            * (
                3
                + 10 * n
                + 4 * n * n
                + 3 * x
                + 9 * n * x
                + 12 * n * n * x
                + 4 * n**3 * x
                + 4 * n * x * x
                + 2 * n * n * x * x
            )
            * dh
            + (
                10
                + 49 * n
                + 78 * n * n
                + 44 * n**3
                + 8 * n**4
                + (4 + 34 * n + 86 * n * n + 98 * n**3 + 48 * n**4 + 8 * n**5) * x
                + (1 + 8 * n + 14 * n * n + 8 * n**3) * x * x
                + (2 * n - 2 * n**3) * x**3
            )
            * h
            - (2 * n + 1) * (1 + 2 * n + 2 * n * x + 2 * n * n * x) * nn
        ]
    third = nn - (4 + 2 * n + x) * k + (2 + 5 * n + 2 * n * n + 3 * x + 2 * n * x) * h
    if rid is R.R_21_THIRD:
        return [third]
    if rid is R.R_21_FACTORED:
        lhs = (
            2
            * (x - 2)
            * x
            * (n * x + 1)
            * (x * (x - 2) * d2h + (2 * x - 1) * dh - n * (n + 1) * h)
        )
        rhs = (2 * n + 1) * (1 + 2 * n + 2 * n * x + 2 * n * n * x) * third
        return [lhs - rhs]
    raise ValueError(f"no pointwise form for {rid!r}")


# ---------------------------------------------------------------------------
# E/F matrix convolution identities and Table-1 trace rules
# ---------------------------------------------------------------------------


def e_matrix(family: FamilyId, n: int) -> list[list[Poly]]:
    """Lower-triangular E_n with its first column halved."""
    half = Rat(1, 2)
    out = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            if j == 0:
                row.append(a_poly(family, i) * half)
            elif j <= i:
                row.append(a_poly(family, i - j))
            else:
                row.append(Poly.zero())
        out.append(row)
    return out


def f_matrix(family: FamilyId, n: int) -> list[list[Poly]]:
    """Strictly lower-triangular F_n with (i, j) entry a_{i-j-1}."""
    return [
        [
            a_poly(family, i - j - 1) if j < i else Poly.zero()
            for j in range(n + 1)
        ]
        for i in range(n + 1)
    ]


def _mat_mul(a, b):
    n = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(n)), Poly.zero())
            for j in range(n)
        ]
        for i in range(n)
    ]


def check_matrix_convolution_identities(family: FamilyId, n: int) -> bool:
    """[c_{i+j}] = E A + A E^T and [c_{i+j-1}] = F A + A F^T, entrywise.

    A is symmetric, so A L^T is the transpose of L A for L = E, F.
    """
    a = hankel_matrix(family, n)
    for lower, shift in ((e_matrix(family, n), 0), (f_matrix(family, n), -1)):
        la = _mat_mul(lower, a)
        for i, row in enumerate(la):
            for j, v in enumerate(row):
                if v + la[j][i] != conv_poly(family, i + j + shift):
                    return False
    return True


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


def transform_rules(family: FamilyId, n: int) -> list[tuple[str, bool]]:
    """Table-1 rules as trace identities Tr(A^{-1} X) H_n = stated value.

    The left side is Tr(adj(A) X), the sum over s of x(s) times the s-th
    anti-diagonal sum of adj(A), one Gauss-Jordan elimination of A's own.
    """
    rules = table1_rules(family, n)
    adj = adjugate(hankel_matrix(family, n))
    sums = [
        sum((adj[i][s - i] for i in range(max(0, s - n), min(s, n) + 1)), Poly.zero())
        for s in range(2 * n + 1)
    ]
    return [
        (name, sum((t * x(s) for s, t in enumerate(sums)), Poly.zero()) == expected)
        for name, x, expected in rules
    ]


# ---------------------------------------------------------------------------
# Third-identity weight machinery
# ---------------------------------------------------------------------------


class WeightError(AssertionError):
    """A structural property of the weight construction failed."""


@dataclass(frozen=True)
class WeightSolution:
    family: FamilyId
    n: int
    q0: tuple[Rat, ...]             # y-coefficients, degree n+1
    q1: tuple[Rat, ...]             # y-coefficients, degree n+1
    q2: tuple[Poly, ...]            # Poly-in-x coefficients by power of y
    weights: tuple[Poly, ...]       # w_{n,0} .. w_{n,n+2}
    scale: Rat                      # (w_{n,n+2}, w_{n,n+1}, w_{n,n}) = scale*(p,q,r)


def rational_nullspace(rows: Sequence[Sequence[Rat]], ncols: int) -> list[list[int]]:
    """Primitive integer nullspace basis of a rational matrix, one vector per
    free column f, positive at f: Gauss-Jordan over Z of the integer-scaled
    rows leaves every pivot d, so d at f and minus each pivot row's entry at
    f in its pivot column annihilate the rows."""
    int_rows = []
    for row in rows:
        scale = denominator_lcm(row)
        int_rows.append([int(v * scale) for v in row])
    reduced, pivots, _ = gauss_jordan(int_rows, INT)
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


def _weight_base_series(family: FamilyId, order: int) -> list[Rat]:
    """eta = 2t - 3 for the (3,1) construction; t itself for (2,1)."""
    if family == F31:
        vals = [2 * c.coefficient(0) for c in t_series(3, order).coeffs]
        vals[0] -= 3
        return vals
    if family == F21:
        return [c.coefficient(0) for c in t_series(2, order).coeffs]
    raise ValueError("weights are constructed for the (3,1) and (2,1) families")


def weight_nullspace(family: FamilyId, n: int) -> WeightSolution:
    """Solve the truncation system for Q0 and assemble Q1, Q2 and the weights.

    Q0 (degree n+1) is fixed by demanding the y^{n+2}..y^{2n+2} coefficients
    of base*Q0 vanish; the nullspace must be exactly 1-dimensional.  Q0 is
    normalized so its lowest-index nonzero coefficient is 1.
    """
    if n < 1:
        raise ValueError("weight construction needs n >= 1")
    order = 2 * n + 2
    s = _weight_base_series(family, order)
    ncols = n + 2
    rows = [
        [s[r - i] if 0 <= r - i <= order else Rat(0) for i in range(ncols)]
        for r in range(n + 2, 2 * n + 3)
    ]
    basis = rational_nullspace(rows, ncols)
    if len(basis) != 1:
        raise WeightError(
            f"nullspace dimension {len(basis)} != 1 for family {family} n={n}"
        )
    lead = next(v for v in basis[0] if v != 0)
    q0 = [Rat(v, lead) for v in basis[0]]
    prod = [
        sum(
            (q0[i] * s[k - i] for i in range(ncols) if 0 <= k - i <= order),
            Rat(0),
        )
        for k in range(order + 1)
    ]
    for k in range(n + 2, 2 * n + 3):
        if prod[k] != 0:
            raise WeightError(f"truncation equation failed at y^{k}")
    q1 = prod[: n + 2]

    def at(seq, idx):
        return seq[idx] if 0 <= idx < len(seq) else Rat(0)

    q2: list[Poly] = []
    if family == F31:
        p1 = _p(9, -15, 4)  # (x-3)(4x-3)
        pm = _p(-1, 1)
        for mdeg in range(n + 3):
            q2.append(
                p1 * at(q1, mdeg - 1)
                - pm * (27 * at(q0, mdeg - 1) - 4 * at(q0, mdeg))
            )
    else:
        p1 = _p(-2, 1)
        for mdeg in range(n + 3):
            q2.append(
                p1 * at(q1, mdeg - 1)
                + Poly.const(at(q0, mdeg))
                - _p(0, 2) * at(q0, mdeg - 1)
            )
    weights = tuple(q2[n + 2 - j] for j in range(n + 3))

    for i in range(n + 1):
        acc = Poly.zero()
        for j in range(n + 3):
            acc = acc + weights[j] * a_poly(family, i + j)
        if not acc.is_zero():
            raise WeightError(f"weight annihilation failed at row i={i}")

    p, q, r = pnqnrn_31(n) if family == F31 else pnqnrn_21(n)
    scale = _proportionality_scale(
        (weights[n + 2], weights[n + 1], weights[n]), (p, q, r)
    )
    if scale is None:
        raise WeightError("top-three weights not proportional to (p_n, q_n, r_n)")

    sol = WeightSolution(
        family=family,
        n=n,
        q0=tuple(q0),
        q1=tuple(q1),
        q2=tuple(q2),
        weights=weights,
        scale=scale,
    )
    _check_coefficient_system(sol)
    return sol


def _proportionality_scale(
    got: Sequence[Poly], want: Sequence[Poly]
) -> Optional[Rat]:
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


def _check_coefficient_system(sol: WeightSolution) -> None:
    """The comparison-of-coefficients consequences of the construction.

    For (3,1): the Csystem relations linking C_k(Q1), C_k(Q2) to C_k(Q0),
    and the parametric solution for (C_2, C_1, C_0)(Q0).  For (2,1): the
    analogous relations.  All are hard assertions given a valid Q0.
    """
    n = sol.n
    q0, q1, q2 = sol.q0, sol.q1, sol.q2
    if sol.family == F31:
        if q1[0] != -q0[0] or q1[1] != 2 * q0[0] - q0[1]:
            raise WeightError("Q1 low-order coefficients violate the eta system")
        p1 = _p(9, -15, 4)
        pm = _p(-1, 1)
        if q2[0] != 4 * pm * q0[0]:
            raise WeightError("C_0(Q2) mismatch")
        if q2[1] != p1 * q1[0] - 27 * pm * q0[0] + 4 * pm * q0[1]:
            raise WeightError("C_1(Q2) mismatch")
        if q2[2] != p1 * q1[1] - 27 * pm * q0[1] + 4 * pm * q0[2]:
            raise WeightError("C_2(Q2) mismatch")
        # Parametric solution with alpha fixed by C_0(Q0) = 8(4n+3)(4n+5) alpha.
        alpha = q0[0] / Rat(8 * (4 * n + 3) * (4 * n + 5))
        if q0[1] != -12 * (1 + n) * (30 + 67 * n + 36 * n * n) * alpha:
            raise WeightError("C_1(Q0) parametric form mismatch")
        if q0[2] != 3 * (50 * n + 343 * n**2 + 540 * n**3 + 243 * n**4) * alpha:
            raise WeightError("C_2(Q0) parametric form mismatch")
    else:
        if q1[0] != q0[0] or q1[1] != q0[0] + q0[1]:
            raise WeightError("Q1 low-order coefficients violate the t system")
        p1 = _p(-2, 1)
        if q2[0] != Poly.const(q0[0]):
            raise WeightError("C_0(Q2) mismatch")
        if q2[1] != p1 * q1[0] - _p(0, 2) * q0[0] + Poly.const(q0[1]):
            raise WeightError("C_1(Q2) mismatch")
        if q2[2] != p1 * q1[1] - _p(0, 2) * q0[1] + Poly.const(q0[2]):
            raise WeightError("C_2(Q2) mismatch")
        alpha = q0[0]
        if q0[1] != -2 * (n + 1) * alpha:
            raise WeightError("C_1(Q0) parametric form mismatch")
        if q0[2] != n * (2 * n + 1) * alpha:
            raise WeightError("C_2(Q0) parametric form mismatch")


def ciden_check(family: FamilyId, n: int) -> bool:
    """C_0(Q2) N_n + C_1(Q2) K_n + C_2(Q2) H_n = 0 (a nontrivial identity)."""
    sol = weight_nullspace(family, n)
    q = quartet(family, n)
    acc = sol.q2[0] * q.N + sol.q2[1] * q.K + sol.q2[2] * q.H
    return acc.is_zero()


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
        acc = Poly.zero()
        for i in range(0, min(n + 1 - j, half_cap) + 1):
            acc = acc + _abc31(n, i, j) * _u31(n, i, j)
        for i in range(0, min(n + 2 - j, half_cap) + 1):
            acc = acc + _def31(n, i, j) * _v31(n, i, j)
        out.append(acc)
    return out


def explicit_weights(family: FamilyId, n: int) -> list[Poly]:
    if family == F21:
        return explicit_weights_21(n)
    if family == F31:
        return explicit_weights_31(n)
    raise ValueError("explicit weights exist for the (3,1) and (2,1) families")


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
