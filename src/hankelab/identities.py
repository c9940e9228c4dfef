"""Determinant-level relations: stated once, checked over Z[x] and screened
at rational points (the point relations, the Table-1 trace check and the
third-identity weights are `identity_checks.py`; the sequence-level lemmas
and the Table-1 trace rules are `lemmas.py`).

The determinant-level relations tie H, K, M, N and the derivatives of H
together at fixed n.  Each symbolic relation is stated once, as terms
(symbol, Poly coefficient): the symbolic check sums them against the
determinants over Z[x] (one `poly.lin_comb` per residual), and the point
screen sums the same terms at x0 over Z, against integer-jet values, with
one division per residual.  This module holds only what the screen runs,
with the symbolic check beside it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .hankel import cached_ladder, quartet
from .jet import JET, terms_at
from .odes import ODES
from .poly import Poly, lin_comb
from .sequences import F21, F31, FamilyId


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
# asserted at their special points by `identity_checks.relation_point_ok`
POINT_RELATIONS = tuple(rid for rid in RelationId if rid not in _RELATIONS)


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


def check_relation(rid: RelationId, n: int) -> bool:
    if rid in _RELATIONS:
        return all(r.is_zero() for r in relation_residuals(rid, n))
    # imported here: the relation screen asserts no point relation
    from .identity_checks import relation_point_ok

    return relation_point_ok(rid, n)


def jet_quartet(family: FamilyId, n: int, x0) -> tuple:
    """(H, K, M, N, d_xH, d_x^2 H) at x0 = p/q as integers, each times the
    same power of q.

    Read off the family's ladder over integer length-3 jets: each distinct
    entry a_k is expanded at x0 = p/q once, times q^k, so a determinant on
    columns c_0..c_n carries q^(n(n+1)/2 + sum c_j).  The ladder gives H
    as a 3-jet and K, M and N as values: the relations read no derivative
    of those three.  Each value is then lifted to the identical factor
    q^((2n+2)(n+1)), which is harmless to the linear homogeneous relations
    screened against these values.  Where a pivot of the ladder vanishes at
    x0, each determinant is eliminated on its own with row pivoting, which
    raises ``JetNotInvertible`` when a pivot it must divide by is not a
    unit.
    """
    if n < 1:
        raise ValueError("the jet quartet needs n >= 1: M_0 and N_0 are undefined")
    x0 = Fraction(x0)
    q = x0.denominator
    lad = cached_ladder(family, x0, JET, n)
    h, k, m, nn = (lad.det(n, name) for name in "HKMN")
    # the columns of K sum to one more than H's, and M's and N's to two more
    lift = q ** ((2 * n + 2) * (n + 1) - n * (n + 1) - 2)
    values = (h[0] * q * q, k * q, m, nn, h[1] * q * q, 2 * h[2] * q * q)
    return tuple(v * lift for v in values)


def relation_residuals_at(rid: RelationId, n: int, x0) -> list[Fraction]:
    """Cheap screen: a symbolic relation's residuals evaluated at a rational x.

    The same terms as `relation_residuals`, read at x0 against integer-jet
    values of the determinants and of H's first two derivatives; no
    symbolic determinant is formed, and each residual is one integer sum
    (`jet.terms_at`) divided once.  Each residual comes out times the
    jets' common x0-denominator power.
    """
    family, residuals = _relation_terms(rid, n)
    x = Fraction(x0)
    return terms_at(residuals, dict(zip(_SYMBOLS, _screen_quartet(family, n, x))), x)


@lru_cache(maxsize=2)
def _screen_quartet(family: FamilyId, n: int, x0: Fraction) -> tuple:
    """`jet_quartet`, read once for all the relations of a family at (n, x0).

    The screen asks for one family's relations in turn at the same point,
    so two entries cover it.  The call goes through the module global, so
    a wrapper bound to `jet_quartet` still sees each read.
    """
    return jet_quartet(family, n, x0)


