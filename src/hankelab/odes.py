"""The ordinary differential equations the determinant families satisfy.

Each ``OdeSpec`` states one equation as its coefficient functions:
``coeffs(n)[k]`` multiplies d_x^k y.  The table is data only, so the
relations of ``identities`` that scale an equation (R_RHS, R_21_FACTORED)
read it without loading the closed-form evaluations; ``closed_forms``
re-exports it with the residuals that check it against the determinants.
"""

from __future__ import annotations

from collections import namedtuple

from .poly import Poly
from .sequences import F21, F30, F31, F32, F3K2M, FAEX, FSHIFT22, FSHIFT31


class OdeSpec(namedtuple("OdeSpec", "name family order coeffs proven", defaults=(True,))):
    """coeffs(n)[k] multiplies d_x^k y in the residual; an ODE that is not
    proven is reported, not asserted."""

    __slots__ = ()


def _p(*cs) -> Poly:
    return Poly(cs)


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
    # Fourth-order equation for the (3,2) determinant; stated without proof
    # in its source and checked there numerically to large n.
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


ODES: dict[str, OdeSpec] = {
    "de1": OdeSpec("de1", F31, 2, _de1_coeffs),
    "de2np1": OdeSpec("de2np1", F21, 2, _de2np1_coeffs),
    "de2np2ak": OdeSpec("de2np2ak", FSHIFT22, 2, _de2np2ak_coeffs),
    "thme1": OdeSpec("thme1", F30, 2, _thme1_coeffs),
    "thme2": OdeSpec("thme2", F3K2M, 2, _thme2_coeffs),
    "thme3": OdeSpec("thme3", FAEX, 2, _thme3_coeffs),
    "thme4": OdeSpec("thme4", FSHIFT31, 2, _thme4_coeffs),
    "fig4": OdeSpec("fig4", F32, 4, _fig4_coeffs, proven=False),
}
