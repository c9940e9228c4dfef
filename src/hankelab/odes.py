"""The ordinary differential equations the determinant families satisfy.

Each ``OdeSpec`` states one equation as data: ``table[k]`` is the
coefficient of d_x^k y, a polynomial in (n, x) written as a tuple of
tables whose product it is (`forms.nx_poly`), and ``coeffs(n)`` reads
them at n.  The table is data only, so the relations of ``identities``
that scale an equation (R_RHS, R_21_FACTORED) read its entries without
loading the closed-form evaluations; ``closed_forms`` re-exports it with
the residuals that check it against the determinants.
"""

from __future__ import annotations

from collections import namedtuple

from .forms import nx_poly
from .poly import Poly
from .sequences import F21, F30, F31, F32, F3K2M, FAEX, FSHIFT22, FSHIFT31


class OdeSpec(namedtuple("OdeSpec", "name family table proven", defaults=(True,))):
    """table[k] multiplies d_x^k y in the residual; an ODE that is not
    proven is reported, not asserted."""

    __slots__ = ()

    def coeffs(self, n: int) -> list[Poly]:
        return [nx_poly(c, n) for c in self.table]


# linear factors in x, shared by the tables below
_X3 = ((-3,), (1,))
_3X1 = ((-1,), (3,))

ODES: dict[str, OdeSpec] = {
    "de1": OdeSpec("de1", F31, (
        (((0, -3, -3),),),
        (((-9, -6), (4, 2)),),
        (((3,), (-4,), (1,)),))),
    "de2np1": OdeSpec("de2np1", F21, (
        (((0, -1, -1),),), (((-1,), (2,)),), (((0,), (-2,), (1,)),))),
    "de2np2ak": OdeSpec("de2np2ak", FSHIFT22, (
        (((0, -1, -1),),), (((1,), (2,)),), (((-1,), (0,), (1,)),))),
    "thme1": OdeSpec("thme1", F30, (
        (((0, 21, -3), (0, -10, 10)),),
        (((90, 18), (-72, 54), (20, -20)),),
        (_X3, ((-3,), (2,)), ((-3,), (5,))))),
    "thme2": OdeSpec("thme2", F3K2M, (
        (((0, -12, -12),),),
        (((-36, -36), (16, 8)),),
        (((3,), (2,)), ((-9,), (2,))))),
    "thme3": OdeSpec("thme3", FAEX, (
        (((0, -3, -3), (0, 3, 3)),),
        (((24, 6), (0, 16), (0, -6)),),
        (_3X1, ((-1,), (1,)), _X3))),
    "thme4": OdeSpec("thme4", FSHIFT31, (
        (((0, 11, 7), (0, -10, 10)),),
        (((38, 52), (-32, 14), (20, -20)),),
        (((-2,), (1,)), ((-1,), (2,)), ((2,), (5,))))),
    # Fourth-order equation for the (3,2) determinant; stated without proof
    # in its source and checked there numerically to large n.
    "fig4": OdeSpec("fig4", F32, (
        (((0, -3, -3),), (
            (-1614, -1521, -360), (10998, 28599, 27546, 11448, 1728),
            (-3338, -4547, 280, 2304, 720), (-1222, -5887, -8158, -4488, -864),
            (360, 1356, 1644, 816, 144))),
        (((-3,),), (
            (-3102, -3105, -783), (24696, 59136, 56040, 23940, 3816),
            (-36004, -80626, -55690, -5832, 6624, 1728),
            (3352, -8160, -18628, -9200, -16, 576),
            (6450, 23419, 20993, 3080, -3104, -960),
            (-1440, -4536, -3516, -84, 744, 192))),
        (((-9,), (3,)), (
            (300, 135), (-4074, -5832, -3240, -648), (19618, 46138, 38716, 13488, 1632),
            (-7078, -7580, 564, 2944, 800), (-5814, -21289, -19628, -6704, -736),
            (2088, 6396, 5124, 1416, 96))),
        (_X3, _X3, _3X1, (
            (-15,), (319, 252, 72), (-2269, -4756, -3016, -576),
            (-483, -2172, -1704, -384), (648, 1812, 1128, 192))),
        (((0,), (2,)), _3X1, _3X1, _X3, _X3, _X3, ((-1,), (11, 20, 8), (8, 20, 8)))),
        proven=False),
}
