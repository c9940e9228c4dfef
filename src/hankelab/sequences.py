"""The binomial polynomial families, their convolutions, and generating functions.

Each family lifts an integer sequence C(beta*k + alpha, k)-style sequence to
monic-in-x polynomials a_k(x); the Hankel machinery downstream consumes these.
a_k is one list of `math.comb` integers over one denominator (k + 1 for aex,
else 1), with C(t, j) = (-1)^j C(j - t - 1, j) for a negative top t.
Generating functions come in a "direct" rational form in the algebraic series
t (t^beta * y = t - 1) and in per-family "closed" forms; both expand to the
same truncated series and the expansion is checked against a_k coefficient by
coefficient.  Each (form, family, order) fraction is built once per process.
"""

from __future__ import annotations

from _thread import allocate_lock
from collections import namedtuple
from enum import Enum
from math import comb

from .poly import Poly, from_int_scaled, int_poly_add_into, int_poly_mul, to_int_scaled
from .rat import Rat, factorial

# The series layer is imported by the generating-function functions below
# when they run: a determinant query never expands a series.
TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .series import SeriesYX


class FamilyId(namedtuple("FamilyId", "kind beta alpha", defaults=(0, 0))):
    """Tagged name of a sequence family.

    kind "binom" carries the (beta, alpha) pair; the named variants
    ("3k-2m", "aex", "3k+1-shift", "2k+2-shift") carry no parameters.
    Equal and hashed as the tuple (kind, beta, alpha).
    """

    __slots__ = ()

    def __new__(cls, kind: str, beta: int = 0, alpha: int = 0):
        if kind == "binom" and beta < 1:
            raise ValueError("binomial family needs beta >= 1")
        return super().__new__(cls, kind, beta, alpha)

    @property
    def name(self) -> str:
        if self.kind == "binom":
            return f"{self.beta},{self.alpha}"
        return self.kind

    def __str__(self) -> str:
        return self.name


F31 = FamilyId("binom", 3, 1)
F21 = FamilyId("binom", 2, 1)
F30 = FamilyId("binom", 3, 0)
F32 = FamilyId("binom", 3, 2)
F3K2M = FamilyId("3k-2m")
FAEX = FamilyId("aex")
FSHIFT31 = FamilyId("3k+1-shift")
FSHIFT22 = FamilyId("2k+2-shift")

ALL_FAMILIES = (F31, F21, F30, F32, F3K2M, FAEX, FSHIFT31, FSHIFT22)


def family_from_name(name: str) -> FamilyId:
    name = name.strip()
    for fam in ALL_FAMILIES:
        if fam.name == name:
            return fam
    try:
        beta, alpha = map(int, name.split(","))
    except ValueError:
        raise ValueError(f"unknown family {name!r}") from None
    return FamilyId("binom", beta, alpha)


# The determinants of a family at each n: H_n on columns 0..n, and K_n, M_n,
# N_n on shifted columns (hankel.py).
VARIANTS = ("H", "K", "M", "N")


# ---------------------------------------------------------------------------
# a_k(x) and convolutions
# ---------------------------------------------------------------------------

_a_memo: dict[tuple[FamilyId, int], Poly] = {}
_conv_memo: dict[tuple[FamilyId, int], Poly] = {}
_memo_lock = allocate_lock()  # threading.Lock, without importing threading


def a_poly(family: FamilyId, k: int) -> Poly:
    """The k-th polynomial of the family, a dense Poly in x."""
    if k < 0:
        raise ValueError(f"sequence index must be >= 0, got {k}")
    key = (family, k)
    hit = _a_memo.get(key)
    if hit is not None:
        return hit
    p = _a_poly_raw(family, k)
    with _memo_lock:
        _a_memo.setdefault(key, p)
    return p


def _a_poly_raw(family: FamilyId, k: int) -> Poly:
    """a_k from one integer coefficient list over one denominator: the
    binomials are `math.comb` integers, and only aex divides (by k + 1)."""
    kind = family.kind
    ms = range(k + 1)
    if kind == "binom":
        top = family.beta * k + family.alpha
        return from_int_scaled([_comb(top - m, k - m) for m in ms], 1)
    if kind == "3k-2m":
        return from_int_scaled([comb(3 * k - 2 * m, k - m) for m in ms], 1)
    if kind == "aex":
        return from_int_scaled(
            [(m + 1) * (m + 2) * comb(3 * k - m, k - m) for m in ms], k + 1
        )
    if kind == "3k+1-shift":
        return from_int_scaled([comb(3 * k + 1, k - m) for m in ms], 1)
    if kind == "2k+2-shift":
        return from_int_scaled([comb(2 * k + 2, k - m) for m in ms], 1)
    raise ValueError(f"unknown family kind {kind!r}")


def _comb(top: int, j: int) -> int:
    """C(top, j) for an integer top of either sign: C(t, j) = (-1)^j C(j - t - 1, j)."""
    if top >= 0:
        return comb(top, j)
    return -comb(j - top - 1, j) if j & 1 else comb(j - top - 1, j)


def conv_poly(family: FamilyId, k: int) -> Poly:
    """Self-convolution c_k = sum a_m a_{k-m}, with c_{-1} = 0."""
    if k < -1:
        raise ValueError(f"convolution index must be >= -1, got {k}")
    if k == -1:
        return Poly.zero()
    key = (family, k)
    hit = _conv_memo.get(key)
    if hit is not None:
        return hit
    # Over Z with one common scale; the sum is symmetric in m <-> k - m.
    ints, scale = to_int_scaled([a_poly(family, m) for m in range(k + 1)])
    total: list[int] = []
    for m in range(k // 2 + 1):
        weight = 1 if 2 * m == k else 2
        int_poly_add_into(total, int_poly_mul(ints[m], ints[k - m]), weight)
    acc = from_int_scaled(total, scale * scale)
    with _memo_lock:
        _conv_memo.setdefault(key, acc)
    return acc


# ---------------------------------------------------------------------------
# t, tau, and the generating-function forms
# ---------------------------------------------------------------------------


def t_series(beta: int, order: int) -> SeriesYX:
    """Lagrange-inversion solution of t^beta * y = t - 1 with t(0) = 1.

    Coefficient of y^k is (beta*k)! / (((beta-1)*k + 1)! * k!), a positive
    integer for integer beta >= 1.
    """
    from .series import SeriesYX

    if beta < 1:
        raise ValueError("t-series needs beta >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    vals = [
        Rat(factorial(beta * k), factorial((beta - 1) * k + 1) * factorial(k))
        for k in range(order + 1)
    ]
    return SeriesYX.from_rats(order, vals)


def t_residual(beta: int, order: int) -> SeriesYX:
    """t^beta * y - t + 1 at the given truncation; zero iff t is correct."""
    from .series import SeriesYX

    t = t_series(beta, order)
    tb = SeriesYX.one(order)
    for _ in range(beta):
        tb = tb * t
    return tb.shift_y(1) - t + SeriesYX.one(order)


def tau_series(order: int) -> SeriesYX:
    """The series with coefficients (3k)! / ((2k)! (k+1)!)."""
    from .series import SeriesYX

    if order < 0:
        raise ValueError("order must be >= 0")
    vals = [
        Rat(factorial(3 * k), factorial(2 * k) * factorial(k + 1))
        for k in range(order + 1)
    ]
    return SeriesYX.from_rats(order, vals)


class GfForm(Enum):
    """Which written form of the generating function to expand."""

    DIRECT = "direct"
    CLOSED31 = "closed31"
    CLOSED21 = "closed21"
    CLOSED30 = "closed30"
    CLOSED3K2M = "closed3k2m"
    CLOSEDAEX = "closedaex"


_CLOSED_FOR_FAMILY = {
    F31: GfForm.CLOSED31,
    F21: GfForm.CLOSED21,
    F30: GfForm.CLOSED30,
    F3K2M: GfForm.CLOSED3K2M,
    FAEX: GfForm.CLOSEDAEX,
}


def closed_form_for(family: FamilyId) -> GfForm | None:
    return _CLOSED_FOR_FAMILY.get(family)


def _x(c0, c1=0, c2=0, c3=0) -> Poly:
    return Poly([c0, c1, c2, c3])


# (form, family, order) -> (num, den): the series are immutable, so `gfequiv`,
# `fcoeffs` and the weight construction share one pair per key.
_gf_memo: dict[tuple[GfForm, FamilyId, int], tuple[SeriesYX, SeriesYX]] = {}


def gf_fraction(form: GfForm, family: FamilyId, order: int) -> tuple[SeriesYX, SeriesYX]:
    """Numerator and denominator of the requested form as truncated series.

    Occurrences of the algebraic series t (or tau) are substituted by their
    expansions, so the pair lives entirely in Q[x][[y]].  Raises ValueError
    for an incompatible form/family pair.  Built once per key in a process.
    """
    key = (form, family, order)
    hit = _gf_memo.get(key)
    if hit is None:
        hit = _gf_memo.setdefault(key, _gf_fraction(form, family, order))
    return hit


def _gf_fraction(form: GfForm, family: FamilyId, order: int) -> tuple[SeriesYX, SeriesYX]:
    from .series import SeriesYX

    one = SeriesYX.one(order)
    y = SeriesYX.y(order)

    if form is GfForm.DIRECT:
        return _direct_fraction(family, order)

    if form is GfForm.CLOSED31:
        if family != F31:
            raise ValueError("closed31 only applies to the 3,1 family")
        t = t_series(3, order)
        num = _x(-6, 4) * one + 2 * t
        den = (_x(9, -15, 4) * y) * (2 * t - 3 * one) - _x(-1, 1) * (
            27 * y - 4 * one
        )
        return num, den

    if form is GfForm.CLOSED21:
        if family != F21:
            raise ValueError("closed21 only applies to the 2,1 family")
        t = t_series(2, order)
        num = t
        den = (_x(-2, 1) * y) * t + one - _x(0, 2) * y
        return num, den

    if form is GfForm.CLOSED30:
        if family != F30:
            raise ValueError("closed30 only applies to the 3,0 family")
        t = t_series(3, order)
        num = -(_x(-3, 2) * t) - _x(0, 3) * one
        den = (_x(0, 0, 9) * y + _x(-6, 10, -4) * one) * t + _x(9, -15, 4) * one
        return num, den

    if form is GfForm.CLOSED3K2M:
        if family != F3K2M:
            raise ValueError("closed3k2m only applies to the 3k-2m family")
        t = t_series(3, order)
        num = 3 * t + _x(0, 2) * one
        den = (_x(0, -9, 4) * y - 6 * one) * t + _x(9, 2) * one - _x(0, 0, 6) * y
        return num, den

    if form is GfForm.CLOSEDAEX:
        if family != FAEX:
            raise ValueError("closedaex only applies to the aex family")
        tau = tau_series(order)
        xm1sq = _x(1, -2, 1)
        num = 2 * (xm1sq * tau) - 2 * xm1sq * one - 2 * _x(-1, 3) * one
        den = (
            -(_x(0, 0, -3, 1) * (2 * y)) * tau
            + _x(0, 0, -3, 1) * (2 * y)
            + _x(0, 0, 6) * y
            + _x(1, -3) * one
        )
        return num, den

    raise ValueError(f"unknown generating-function form {form!r}")


def _direct_fraction(family: FamilyId, order: int) -> tuple[SeriesYX, SeriesYX]:
    from .series import SeriesYX

    one = SeriesYX.one(order)
    y = SeriesYX.y(order)
    xpoly = Poly.x()

    if family.kind == "binom":
        beta, alpha = family.beta, family.alpha
        if alpha < -1:
            raise ValueError("direct form needs alpha >= -1 (t-power)")
        t = t_series(beta, order)
        num = SeriesYX.one(order)
        for _ in range(alpha + 1):
            num = num * t
        tbm1 = SeriesYX.one(order)
        for _ in range(beta - 1):
            tbm1 = tbm1 * t
        den = (beta * one + (1 - beta) * t) * (one - (xpoly * y) * tbm1)
        return num, den

    if family.kind == "3k-2m":
        # Reindexing the defining double sum gives t / ((3-2t)(1-x*y*t)).
        t = t_series(3, order)
        num = t
        den = (3 * one - 2 * t) * (one - (xpoly * y) * t)
        return num, den

    if family.kind in ("3k+1-shift", "2k+2-shift"):
        base = F30 if family.kind == "3k+1-shift" else F21
        num, den = _direct_fraction(base, order)
        shift = lambda p: p.compose_affine(1, 1)
        return num.map_x(shift), den.map_x(shift)

    if family.kind == "aex":
        # No rational form in t exists in this case; the direct form is the
        # literal truncated sum of the defining polynomials.
        num = SeriesYX(order, [a_poly(family, k) for k in range(order + 1)])
        return num, SeriesYX.one(order)

    raise ValueError(f"no direct form for family {family}")


def f_series(form: GfForm, family: FamilyId, order: int) -> SeriesYX:
    """Expand a generating-function form to a truncated series.

    The y^0 term of a denominator need not be a unit; expansion divides
    exactly in Q[x] per coefficient and any nonzero remainder aborts.
    """
    num, den = gf_fraction(form, family, order)
    return num.divide_exact(den)


def gf_form_equiv(
    form_a: GfForm, form_b: GfForm, family: FamilyId, order: int
) -> tuple[bool, SeriesYX]:
    """Cross-multiplied equality of two forms, avoiding series division.

    Returns (equal, residual) where residual = num_a*den_b - num_b*den_a
    truncated at the given order; both forms are reduced through the
    defining relation of t by substituting its expansion.
    """
    num_a, den_a = gf_fraction(form_a, family, order)
    num_b, den_b = gf_fraction(form_b, family, order)
    residual = num_a * den_b - num_b * den_a
    return residual.is_zero(), residual
