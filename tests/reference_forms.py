"""The n-dependent forms as function bodies: the oracles of the tables.

Before they became int tables (`hankelab.forms`), the ODE coefficients,
the symbolic relations, the third-identity anchor weights, the product
formulas, the almost-product coefficients, the (3,1) three-term
coefficients, the point multipliers, the squared-ratio recursions and
the parametric (C_0, C_1, C_2)(Q0), Chebyshev U_n, Jacobi
P_n^(1/2,-1/2), their scale, ap21at1's stated sign and the Table-1 trace
rules were written as the functions and lambdas below, with Poly and
Fraction arithmetic.  `test_forms.py` requires every table to equal its
function here.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from hankelab.closed_forms import AlmostProductId, ProductFormulaId
from hankelab.hankel import quartet
from hankelab.identities import RelationId
from hankelab.poly import Poly
from hankelab.sequences import F21, F31, a_poly, conv_poly


def _p(*cs) -> Poly:
    return Poly(cs)


# -- the ODE coefficients: coeffs(n)[k] multiplies d_x^k y -----------------


def _de1_coeffs(n: int) -> list[Poly]:
    return [
        _p(-3 * n * (n + 1)),
        _p(2 * (n + 2) * -3 + 3, 2 * (n + 2)),
        _p(3, -4, 1),
    ]


def _de2np1_coeffs(n: int) -> list[Poly]:
    return [_p(-n * (n + 1)), _p(-1, 2), _p(0, -2, 1)]


def _de2np2ak_coeffs(n: int) -> list[Poly]:
    return [_p(-n * (n + 1)), _p(1, 2), _p(-1, 0, 1)]


def _thme1_coeffs(n: int) -> list[Poly]:
    c2 = _p(-3, 1) * _p(-3, 2) * _p(-3, 5)
    c1 = -2 * _p(-9 * (n + 5), -9 * (3 * n - 4), 10 * (n - 1))
    c0 = _p(-3 * n * (n - 7), 10 * n * (n - 1))
    return [c0, c1, c2]


def _thme2_coeffs(n: int) -> list[Poly]:
    c2 = _p(3, 2) * _p(-9, 2)
    c1 = 4 * _p(-9 * (n + 1), 2 * (n + 2))
    c0 = _p(-12 * n * (n + 1))
    return [c0, c1, c2]


def _thme3_coeffs(n: int) -> list[Poly]:
    c2 = _p(-1, 3) * _p(-1, 1) * _p(-3, 1)
    c1 = -2 * _p(-3 * (n + 4), -8 * n, 3 * n)
    c0 = 3 * n * (n + 1) * _p(-1, 1)
    return [c0, c1, c2]


def _thme4_coeffs(n: int) -> list[Poly]:
    c2 = _p(-2, 1) * _p(-1, 2) * _p(2, 5)
    c1 = -2 * _p(-26 * n - 19, -(7 * n - 16), 10 * (n - 1))
    c0 = n * _p(7 * n + 11, 10 * (n - 1))
    return [c0, c1, c2]


def _fig4_coeffs(n: int) -> list[Poly]:
    x3 = _p(-3, 1)
    threexm1 = _p(-1, 3)
    c4 = (
        2
        * threexm1**2
        * x3**3
        * _p(0, 1)
        * _p(-1, 8 * n * n + 20 * n + 11, 4 * (n + 2) * (2 * n + 1))
    )
    c3 = (
        x3**2
        * threexm1
        * _p(
            -15,
            72 * n**2 + 252 * n + 319,
            -(576 * n**3 + 3016 * n**2 + 4756 * n + 2269),
            -3 * (128 * n**3 + 568 * n**2 + 724 * n + 161),
            12 * (n + 2) * (2 * n + 1) * (8 * n + 27),
        )
    )
    c2 = (
        3
        * x3
        * _p(
            15 * (9 * n + 20),
            -6 * (108 * n**3 + 540 * n**2 + 972 * n + 679),
            2 * (816 * n**4 + 6744 * n**3 + 19358 * n**2 + 23069 * n + 9809),
            800 * n**4 + 2944 * n**3 + 564 * n**2 - 7580 * n - 7078,
            -(736 * n**4 + 6704 * n**3 + 19628 * n**2 + 21289 * n + 5814),
            12 * (8 * n**4 + 118 * n**3 + 427 * n**2 + 533 * n + 174),
        )
    )
    c1 = -3 * _p(
        -(783 * n**2 + 3105 * n + 3102),
        12 * (318 * n**4 + 1995 * n**3 + 4670 * n**2 + 4928 * n + 2058),
        1728 * n**5 + 6624 * n**4 - 5832 * n**3 - 55690 * n**2 - 80626 * n - 36004,
        4 * (144 * n**5 - 4 * n**4 - 2300 * n**3 - 4657 * n**2 - 2040 * n + 838),
        -(960 * n**5 + 3104 * n**4 - 3080 * n**3 - 20993 * n**2 - 23419 * n - 6450),
        12 * (16 * n**5 + 62 * n**4 - 7 * n**3 - 293 * n**2 - 378 * n - 120),
    )
    c0 = (
        -3
        * n
        * (n + 1)
        * _p(
            -3 * (120 * n**2 + 507 * n + 538),
            3 * (576 * n**4 + 3816 * n**3 + 9182 * n**2 + 9533 * n + 3666),
            720 * n**4 + 2304 * n**3 + 280 * n**2 - 4547 * n - 3338,
            -(864 * n**4 + 4488 * n**3 + 8158 * n**2 + 5887 * n + 1222),
            12 * (12 * n**4 + 68 * n**3 + 137 * n**2 + 113 * n + 30),
        )
    )
    return [c0, c1, c2, c3, c4]


ODE_COEFFS = {
    "de1": _de1_coeffs, "de2np1": _de2np1_coeffs, "de2np2ak": _de2np2ak_coeffs,
    "thme1": _thme1_coeffs, "thme2": _thme2_coeffs, "thme3": _thme3_coeffs,
    "thme4": _thme4_coeffs, "fig4": _fig4_coeffs,
}


# -- the symbolic relations: residuals of (symbol, Poly coefficient) terms ---


# (x-3)(2x-3)(4x-3): the coefficient of H_n' in R_DET01
_S31 = _p(-3, 1) * _p(-3, 2) * _p(-3, 4)


def pnqnrn_31(n: int) -> tuple[Poly, Poly, Poly]:
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
    return (
        Poly.one(),
        -_p(4 + 2 * n, 1),
        _p(2 + 5 * n + 2 * n * n, 3 + 2 * n),
    )


def _scaled(weight, terms) -> tuple:
    return tuple((s, weight * c) for s, c in terms)


def _third(pqr) -> tuple:
    p, q, r = pqr
    return (("N", p), ("K", q), ("H", r))


def _ode(name: str, n: int, weight: Poly) -> tuple:
    return _scaled(weight, zip(("H", "dH", "d2H"), ODE_COEFFS[name](n)))


def _w21(n: int) -> Poly:
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
    lhs = _ode("de2np1", n, 2 * _p(-2, 1) * _p(0, 1) * _p(1, n))
    return (lhs + _scaled(-_w21(n), _third(pnqnrn_21(n))),)


RELATIONS = {
    RelationId.R_DET01: _det01,
    RelationId.R_LINEAR: _linear,
    RelationId.R_SECONDDER: _secondder,
    RelationId.R_RHS: _rhs,
    RelationId.R_21_FIRST: _21_first,
    RelationId.R_21_SECOND: _21_second,
    RelationId.R_21_FACTORED: _21_factored,
    RelationId.R_21_THIRD: lambda n: (_third(pnqnrn_21(n)),),
}
PNQNRN = {F31: pnqnrn_31, F21: pnqnrn_21}


# -- product formulas and almost products ---------------------------------


def _prod(n: int, term, start: int = 1) -> Fraction:
    acc = Fraction(1)
    for i in range(start, n + 1):
        acc *= term(i)
    return acc


_f = factorial
_P = ProductFormulaId
PRODUCT_VALUES = {
    _P.P32: lambda n: _prod(
        n, lambda i: Fraction(_f(6 * i + 4) * _f(2 * i + 1),
                              2 * _f(4 * i + 2) * _f(4 * i + 3))),
    _P.P30: lambda n: _prod(
        n, lambda i: Fraction(3 * (3 * i + 1) * _f(6 * i) * _f(2 * i),
                              _f(4 * i) * _f(4 * i + 1))),
    _P.P31AT3: lambda n: (-1) ** n * _prod(
        n, lambda i: Fraction(_f(6 * i - 3) * _f(3 * i + 2) * _f(2 * i - 1),
                              _f(4 * i - 1) * _f(4 * i + 1) * _f(3 * i - 2))),
    _P.P31AT3HALF: lambda n: _prod(
        n, lambda i: Fraction(_f(2 * i - 1) * _f(6 * i) * (3 * i + 1),
                              2 * _f(4 * i - 1) * _f(4 * i + 1))),
    _P.P31AT3QUARTER: lambda n: _prod(
        n, lambda i: Fraction(_f(2 * i - 1) * _f(6 * i + 1),
                              2 * _f(4 * i - 1) * _f(4 * i + 1))),
    _P.P30AT3: lambda n: Fraction(
        _f(3 * n) * _f(3 * n + 2), 2 * _f(n) ** 2) * _prod(
        n, lambda i: Fraction(3 * _f(6 * i - 5) * _f(2 * i) * (2 * i - 1),
                              _f(4 * i + 1) * _f(4 * i - 1))),
    _P.P30AT3HALF: lambda n: _prod(
        n, lambda i: Fraction(27 * _f(6 * i - 5) * (3 * i - 1) * (3 * i - 2) * _f(2 * i - 1),
                              2 * _f(4 * i - 1) * (4 * i - 3) * _f(4 * i - 4))),
    _P.PAEXAT3SEVENTHS: lambda n: _prod(
        n, lambda i: Fraction(2 * _f(6 * i + 7) * _f(2 * i + 1),
                              7 * _f(4 * i + 5) * _f(4 * i + 3)), start=0),
    _P.P21AT0: lambda n: Fraction(1),
    _P.P21AT2: lambda n: Fraction((-1) ** n * (2 * n + 1)),
}

_A = AlmostProductId
ALMOST_COEFFS = {
    _A.AP31: lambda n, i: Fraction(
        _f(n) * _f(3 * n + i + 2) * 2**i, _f(3 * n + 2) * _f(n - i) * _f(2 * i + 1)),
    _A.AP31ALT: lambda n, i: Fraction(
        (-1) ** i * _f(n) * prod(range(4 * n + 3, 0, -2)) * _f(3 * n + i + 2),
        _f(3 * n + 2) * _f(i) * _f(n - i) * prod(range(4 * n + 2 * i + 3, 0, -2))),
    _A.AP21: lambda n, i: Fraction(
        _f(n + i) * 2**i, _f(n - i) * _f(2 * i + 1)),
}


def three_term_31_pq(n: int) -> tuple[Poly, Poly]:
    f = factorial
    pc = Fraction(
        4 * f(4 * n - 3) ** 2 * f(4 * n - 1) ** 2,
        9
        * (3 * n - 2) ** 2
        * (3 * n - 1) ** 2
        * f(2 * n - 1) ** 2
        * f(6 * n - 5) ** 2,
    )
    p = Poly([1, -2, 1]) * pc
    qc = Fraction(
        4 * (n - 1) * f(4 * n - 5) * f(4 * n - 1),
        3 * (3 * n - 2) * (3 * n - 1) * (4 * n + 1) * f(2 * n - 1) * f(6 * n - 5),
    )
    q = (
        Poly(
            [
                -3 * (108 * n**2 - 54 * n - 19),
                6 * (126 * n**2 - 63 * n - 23),
                -36 * (4 * n - 3) * (4 * n + 1),
                8 * (4 * n - 3) * (4 * n + 1),
            ]
        )
        * qc
    )
    return p, q


# -- the point relations and the weight construction ----------------------


POINT_MULTIPLIERS = {
    RelationId.R_CREC: {},
    RelationId.R_X3: {
        "K": lambda n: Fraction(3 * (9 * n * n + 19 * n + 14), 2 * (4 * n + 3)),
        "N": lambda n: Fraction(
            3 * (243 * n**4 + 1512 * n**3 + 3605 * n**2 + 4144 * n + 1920),
            8 * (4 * n + 3) * (4 * n + 5),
        ),
        "M": lambda n: Fraction(
            -3 * n * (243 * n**3 + 540 * n**2 + 559 * n + 58),
            8 * (4 * n + 1) * (4 * n + 3),
        ),
    },
    RelationId.R_X3HALF: {
        "K": lambda n: Fraction(3 * (9 * n * n + 22 * n + 11), 2 * (4 * n + 3)),
        "N": lambda n: Fraction(
            3 * (243 * n**4 + 1674 * n**3 + 4031 * n**2 + 3934 * n + 1290),
            8 * (4 * n + 3) * (4 * n + 5),
        ),
        "M": lambda n: Fraction(
            -3 * n * (243 * n**3 + 702 * n**2 + 547 * n + 118),
            8 * (4 * n + 1) * (4 * n + 3),
        ),
    },
    RelationId.R_X3QUARTER: {
        "K": lambda n: Fraction(3 * (18 * n * n + 38 * n + 19), 4 * (4 * n + 3)),
        "N": lambda n: Fraction(
            3 * (486 * n**4 + 3024 * n**3 + 6724 * n**2 + 6290 * n + 2085),
            16 * (4 * n + 3) * (4 * n + 5),
        ),
        "M": lambda n: Fraction(
            -3 * n * (243 * n**3 + 540 * n**2 + 316 * n + 31),
            8 * (4 * n + 1) * (4 * n + 3),
        ),
    },
    RelationId.R_21_X0: {
        "K": lambda n: Fraction(3 + 8 * n + 4 * n * n, 2 * n + 1),
        "N": lambda n: Fraction(
            10 + 49 * n + 78 * n * n + 44 * n**3 + 8 * n**4, (2 * n + 1) ** 2
        ),
        "M": lambda n: Fraction(-(3 * n + 2 * n * n)),
    },
    RelationId.R_21_X2: {
        "K": lambda n: Fraction(5 + 8 * n + 4 * n * n, 2 * n + 1),
        "N": lambda n: Fraction(22 + 33 * n + 20 * n * n + 4 * n**3, 2 * n + 1),
        "M": lambda n: Fraction(-n * (7 + 8 * n + 4 * n * n), 2 * n + 1),
    },
}

RECURSION_RATIOS = {
    RelationId.R_CREC: lambda n: Fraction(
        9 * (3 * n + 4) * (3 * n + 5) * (6 * n - 1) * (6 * n + 1),
        4 * (4 * n + 1) * (4 * n + 3) ** 2 * (4 * n + 5),
    ),
    RelationId.R_X3HALF: lambda n: Fraction(
        9 * (3 * n + 2) * (3 * n + 4) * (6 * n + 1) * (6 * n + 5),
        4 * (4 * n + 1) * (4 * n + 3) ** 2 * (4 * n + 5),
    ),
    RelationId.R_X3QUARTER: lambda n: Fraction(
        9 * (3 * n + 1) * (3 * n + 2) * (6 * n + 5) * (6 * n + 7),
        4 * (4 * n + 1) * (4 * n + 3) ** 2 * (4 * n + 5),
    ),
}

Q0_PARAMS = {
    F31: lambda n: (
        8 * (4 * n + 3) * (4 * n + 5),
        -12 * (1 + n) * (30 + 67 * n + 36 * n * n),
        3 * (50 * n + 343 * n**2 + 540 * n**3 + 243 * n**4),
    ),
    F21: lambda n: (1, -2 * (n + 1), n * (2 * n + 1)),
}


# -- the Chebyshev/Jacobi forms of the (2,1) determinant ---------------------


def chebyshev_u(n: int) -> Poly:
    """Chebyshev U_n by its three-term recurrence; U_{-1} = 0."""
    if n < 0:
        return Poly.zero()
    prev, cur = Poly.one(), Poly([0, 2])
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, Poly([0, 2]) * cur - prev
    return cur


def jacobi_half(n: int) -> Poly:
    """Jacobi P_n^{(1/2, -1/2)} by its rational three-term recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p0 = Poly.one()
    if n == 0:
        return p0
    p1 = Poly([Fraction(1, 2), 1])
    if n == 1:
        return p1
    prev, cur = p0, p1
    for k in range(2, n + 1):
        # k(k-1) P_k = (2k-1)(k-1) x P_{k-1} - (k-1/2)(k-3/2) P_{k-2}
        a = (2 * k - 1) * (k - 1)
        c = Fraction((2 * k - 1) * (2 * k - 3), 4)
        nxt = (Poly([0, a]) * cur - c * prev) * Fraction(1, k * (k - 1))
        prev, cur = cur, nxt
    return cur


def chebjac_scale(n: int) -> Fraction:
    return Fraction((-4) ** n * factorial(n) ** 2, factorial(2 * n))


def ap21at1_sign(n: int) -> int:
    return (-1) ** ((n * (n + 1)) // 2)


# -- Table 1: the trace transformation rules ------------------------------


def table1_rules(family, n: int) -> list:
    """(name, x, value) for Tr(A^{-1} X) H_n = value, X = [x(i + j)]."""
    if n < 1:
        raise ValueError("trace rules need n >= 1 (M, N enter)")
    q = quartet(family, n)
    h, k, m, nn = q.H, q.K, q.M, q.N
    a0 = a_poly(family, 0)
    a1 = a_poly(family, 1)

    def a(shift):
        return lambda s: a_poly(family, s + shift) if s + shift >= 0 else Poly.zero()

    def s_a(shift):
        x = a(shift)
        return lambda s: s * x(s)

    def c(shift):
        return lambda s: conv_poly(family, s + shift)

    return [
        ("dx_an", lambda s: a_poly(family, s).derivative(), h.derivative()),
        ("n_an_minus1", s_a(-1), Poly.zero()),
        ("an", a(0), (n + 1) * h),
        ("n_an", s_a(0), n * (n + 1) * h),
        ("c_nminus1", c(-1), Poly.zero()),
        ("cn", c(0), (2 * n + 1) * a0 * h),
        ("a_nplus1", a(1), k),
        ("n_a_nplus1", s_a(1), 2 * n * k),
        ("c_nplus1", c(1), 2 * a0 * k + 2 * n * a1 * h),
        ("a_nplus2", a(2), m + nn),
        ("n_a_nplus2", s_a(2), 2 * (n - 1) * m + 2 * n * nn),
    ]
