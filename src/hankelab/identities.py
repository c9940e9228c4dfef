"""Determinant-level relations: stated once, checked over Z[x] and read
at rational points (the point relations and the third-identity weights
are `identity_checks.py`; the sequence-level lemmas and the Table-1 trace
rules are `lemmas.py`).

The determinant-level relations tie H, K, M, N and the derivatives of H
together at fixed n.  Each symbolic relation is stated once, in
`_RELATIONS` under its check id ("r_det01"), as terms
(symbol, coefficient), each coefficient a polynomial in (n, x) written as
int tables (`forms`): the symbolic check sums them against the
determinants over Z[x] (one `poly.lin_comb` per residual), and the point
screen reads those same residuals at x0.  This module holds only what the
screen runs, with the symbolic check beside it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .forms import nx_poly
from .hankel import quartet
from .odes import ODES
from .poly import Poly, lin_comb
from .sequences import F21, F31


# ---------------------------------------------------------------------------
# Determinant-level relations
# ---------------------------------------------------------------------------
#
# Every symbolic relation is linear in H, K, M, N, H' and H'' and is stated
# once, as data: residuals, each a tuple of (symbol, coefficient) terms,
# with _SYMBOLS naming the values in the order `_combine` takes them.  A
# coefficient is a polynomial in (n, x), a tuple of tables whose product
# it is (`forms.nx_poly`), and `_relation_terms` reads it at n as a Poly.
# `relation_residuals` sums coefficient times determinant over Z[x], and
# `relation_residuals_at` reads those residuals at x0.


_SYMBOLS = ("H", "K", "M", "N", "dH", "d2H")

# factors in (n, x) that several coefficients share
_XM1 = ((-1,), (1,))                    # x - 1
_2X3 = ((-3,), (2,))                    # 2x - 3
_4X3 = ((-3,), (4,))                    # 4x - 3
_DH31 = ((-27,), (63,), (-42,), (8,))   # (x-3)(2x-3)(4x-3): H' in r_det01
_2XX2 = ((0,), (-4,), (2,))             # 2x(x-2)
_1NX = ((1,), (0, 1))                   # 1 + nx
# (2n+1)(1 + 2n + 2n(n+1)x), negated: N's coefficient in r_21_second and
# the third identity's multiplier in r_21_factored
_NEG_W21 = (((-1, -2),), ((1, 2), (0, 2, 2)))

# The third-identity anchor weights (p_n, q_n, r_n), and the identity
# p_n N + q_n K + r_n H = 0 they state.
_PQR31 = (
    (((-24, -32),), ((5, 4),), _XM1),
    (((12, 16),), ((-75, -93, -27), (60, 81, 27), (10, 8))),
    (((1080, 4236, 6015, 3564, 729), (-180, -1722, -3777, -2916, -729),
      (-600, -1676, -1492, -432)),),
)
_PQR21 = ((((1,),),), (((-4, -2), (-1,)),), (((2, 5, 2), (3, 2)),))
_THIRD31 = (("N", _PQR31[0]), ("K", _PQR31[1]), ("H", _PQR31[2]))
_THIRD21 = (("N", _PQR21[0]), ("K", _PQR21[1]), ("H", _PQR21[2]))

# The equations r_rhs and r_21_factored scale, read from the ODE table.
_DE1, _DE2NP1 = ODES["de1"].table, ODES["de2np1"].table
_W_RHS = (_DH31, _2X3, _4X3)            # (x-3)(2x-3)^2(4x-3)^2
_W_21 = (_2XX2, _1NX)                   # 2x(x-2)(1+nx)
_4N1 = ((4, 16),)                       # 4(4n+1)


def pnqnrn_31(n: int) -> tuple[Poly, Poly, Poly]:
    """The (3,1) third-identity anchor weights (p_n, q_n, r_n)."""
    return tuple(nx_poly(c, n) for c in _PQR31)


def pnqnrn_21(n: int) -> tuple[Poly, Poly, Poly]:
    """The (2,1) third-identity anchor weights."""
    return tuple(nx_poly(c, n) for c in _PQR21)


# check id -> (family, residuals)
_RELATIONS = {
    "r_det01": (F31, ((
        ("dH", (_DH31,)), ("H", (((24, 39, 27), (6, 30), (0, -8)),)), ("K", (((-6, -8),),))),)),
    "r_linear": (F31, ((
        ("N", (((-20, -16), (20, 16)),)), ("M", (((-4, -16), (4, 16)),)),
        ("K", (((186, 324), (-216, -540), (56, 288), (-16, -64)),)),
        ("H", (((-324, -1083, -729), (378, 1770, 1458), (-108, -800, -972), (-12, -24, 216),
                (16, 64)),))),)),
    "r_secondder": (F31, ((
        ("d2H", (_4N1, _XM1, _DH31, _DH31)),
        ("H", (_4N1, ((3024, 9420, 11037, 5022, 729), (-4446, -12873, -15576, -6318, -729),
                      (1668, 3796, 6644, 1836), (96, 780, -1956, -432), (-192, -768, 288),
                      (0, 64, -64)))),
        ("K", (_4N1, ((6, 8),), ((-231, -240, -54), (318, 288, 54), (-124, -68), (32, 16)))),
        ("N", (_4N1, *_PQR31[0]))),)),
    # the right side of the differential-equation derivation is the third
    # identity: both its vanishing and the full displayed equation, de1
    # times (x-3)(2x-3)^2(4x-3)^2 plus it, are asserted
    "r_rhs": (F31, (_THIRD31, (
        ("H", _W_RHS + _DE1[0]), ("dH", _W_RHS + _DE1[1]), ("d2H", _W_RHS + _DE1[2]),
        *_THIRD31))),
    "r_21_first": (F21, (
        (("dH", (_2XX2,)), ("H", (((3, 8, 4), (1,)),)), ("K", (((-1, -2),),))),
        (("H", (((-8, -4), (12, 10), (8, 12, 8), (0, 2)),)),
         ("K", (((-4,), (-12, -8), (-2, -4)),)), ("M", (((2,), (0, 2)),)),
         ("N", (((2,), (2, 2)),))))),
    "r_21_second": (F21, ((
        ("d2H", (_2XX2, ((0,), (-2,), (1,)), _1NX)),
        ("dH", (_2XX2, ((3, 10, 4), (3, 9, 12, 4), (0, 4, 2)))),
        ("H", (((10, 49, 78, 44, 8), (4, 34, 86, 98, 48, 8), (1, 8, 14, 8), (0, 2, 0, -2)),)),
        ("N", _NEG_W21)),)),
    # de2np1 times 2x(x-2)(1+nx) equals the third identity times w21
    "r_21_factored": (F21, ((
        ("H", _W_21 + _DE2NP1[0]), ("dH", _W_21 + _DE2NP1[1]), ("d2H", _W_21 + _DE2NP1[2]),
        ("N", _NEG_W21 + _PQR21[0]), ("K", _NEG_W21 + _PQR21[1]),
        ("H", _NEG_W21 + _PQR21[2])),)),
    "r_21_third": (F21, (_THIRD21,)),
}

SYMBOLIC_RELATIONS = tuple(_RELATIONS)


def _require_n(rid: str, n: int) -> None:
    if n < 1:
        raise ValueError(f"{rid} needs n >= 1: M_0, N_0 and H_-1 are undefined")


@lru_cache(maxsize=None)
def _relation_terms(rid: str, n: int) -> tuple:
    """(family, residuals) of a symbolic relation, built once per (rid, n)."""
    if rid not in _RELATIONS:
        raise ValueError(f"{rid} is a point relation; use relation_point_ok")
    _require_n(rid, n)
    family, residuals = _RELATIONS[rid]
    return family, tuple(tuple((s, nx_poly(c, n)) for s, c in terms) for terms in residuals)


def _combine(residuals, values) -> list:
    """Each residual's sum of coefficient times value, values in _SYMBOLS order."""
    named = dict(zip(_SYMBOLS, values))
    return [lin_comb((c, named[s]) for s, c in terms) for terms in residuals]


def relation_residuals(rid: str, n: int) -> list[Poly]:
    """Symbolic relations: list of Poly residuals, all zero iff it holds."""
    family, residuals = _relation_terms(rid, n)
    q = quartet(family, n)
    dh = q.H.derivative()
    return _combine(residuals, (q.H, q.K, q.M, q.N, dh, dh.derivative()))


def check_relation(rid: str, n: int) -> bool:
    if rid in _RELATIONS:
        return all(r.is_zero() for r in relation_residuals(rid, n))
    # imported here: the relation screen asserts no point relation
    from .identity_checks import relation_point_ok

    return relation_point_ok(rid, n)


def relation_residuals_at(rid: str, n: int, x0) -> list[Fraction]:
    """A symbolic relation's residuals at a rational x0: those of
    `relation_residuals`, formed on the family's shared Z[x] ladder and
    evaluated exactly, unscaled."""
    return [r(x0) for r in relation_residuals(rid, n)]
