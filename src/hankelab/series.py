"""The generating functions of the families as truncated power series in y
with Poly coefficients: a series of order m is the tuple of its y^0..y^m
coefficients.

A generating function is a fraction whose numerator and denominator are
term tables: a term (c, a, b) is c(x) y^a s^b, c an int row in x
(ascending, a Poly's ``num``) and s the base series, t = t_beta of
t^beta y = t - 1 or tau.  `CLOSED_FORMS` holds the five closed forms and
`_direct_form` the direct form in t of every family but aex, whose direct
form is the literal sum of its a_k.  `_evaluate` expands a table with one
`poly.lin_comb` per coefficient, so no series is multiplied to build a
form; `mul` and `divide_exact` compare and expand the forms over Z.  A
closed form is asked for by (family, order, closed), so it is only read
for its own family.  Each part is built once per process, at the largest
order asked, and a lower order is its prefix.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, lcm

from .poly import InexactDivision, Poly, from_int_scaled, int_poly_addmul, lin_comb, to_int_scaled
from .sequences import F21, F30, F31, F3K2M, FAEX, FamilyId, a_poly


def t_series(beta: int, order: int) -> tuple[int, ...]:
    """Coefficients of the Lagrange-inversion solution of t^beta y = t - 1
    with t(0) = 1: y^k has C(beta k, k) / ((beta - 1) k + 1), an integer
    for integer beta >= 1 (a remainder raises ``InexactDivision``)."""
    if beta < 1:
        raise ValueError("t-series needs beta >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    out = [divmod(comb(beta * k, k), (beta - 1) * k + 1) for k in range(order + 1)]
    if any(r for _q, r in out):
        raise InexactDivision(f"a coefficient of t_{beta} is not an integer")
    return tuple(q for q, _r in out)


def tau_series(order: int) -> tuple[Fraction, ...]:
    """Coefficients (3k)! / ((2k)! (k+1)!) of tau."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return tuple(Fraction(comb(3 * k, k), k + 1) for k in range(order + 1))


def _scalar_mul(a, b) -> tuple:
    """The product of two scalar series of one order, truncated at it."""
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a)))


def t_residual(beta: int, order: int) -> tuple:
    """t^beta y - t + 1 at the given truncation; zero iff t is correct."""
    t = t_series(beta, order)
    tb = (1,) + (0,) * order
    for _ in range(beta):
        tb = _scalar_mul(tb, t)
    return tuple(u - v + (k == 0) for k, (u, v) in enumerate(zip((0, *tb[:order]), t)))


# family -> its closed form: a name, the base series (beta of t_beta, None
# for tau) and the numerator and denominator term tables.
ClosedForm = namedtuple("ClosedForm", "name beta num den")

CLOSED_FORMS = {
    F31: ClosedForm("closed31", 3, (((-6, 4), 0, 0), ((2,), 0, 1)),
                    (((18, -30, 8), 1, 1), ((0, 18, -12), 1, 0), ((-4, 4), 0, 0))),
    F21: ClosedForm("closed21", 2, (((1,), 0, 1),),
                    (((-2, 1), 1, 1), ((1,), 0, 0), ((0, -2), 1, 0))),
    F30: ClosedForm("closed30", 3, (((3, -2), 0, 1), ((0, -3), 0, 0)),
                    (((0, 0, 9), 1, 1), ((-6, 10, -4), 0, 1), ((9, -15, 4), 0, 0))),
    F3K2M: ClosedForm("closed3k2m", 3, (((3,), 0, 1), ((0, 2), 0, 0)),
                      (((0, -9, 4), 1, 1), ((-6,), 0, 1), ((9, 2), 0, 0), ((0, 0, -6), 1, 0))),
    FAEX: ClosedForm("closedaex", None, (((2, -4, 2), 0, 1), ((0, -2, -2), 0, 0)),
                     (((0, 0, 6, -2), 1, 1), ((0, 0, 0, 2), 1, 0), ((1, -3), 0, 0))),
}

# Reindexing the defining double sum of 3k-2m gives t / ((3 - 2t)(1 - x y t)).
_DIRECT_3K2M = (3, (((1,), 0, 1),),
                (((3,), 0, 0), ((-2,), 0, 1), ((0, -3), 1, 1), ((0, 2), 1, 2)))


def _direct_form(family: FamilyId):
    """(beta, num, den) of the family's direct form, a fraction in t_beta."""
    if family.kind == "binom":
        beta, alpha = family.beta, family.alpha
        if alpha < -1:
            raise ValueError("direct form needs alpha >= -1 (t-power)")
        # t^(alpha+1) / ((beta + (1 - beta) t)(1 - x y t^(beta-1)))
        return beta, (((1,), 0, alpha + 1),), (((beta,), 0, 0), ((1 - beta,), 0, 1),
                                                ((0, -beta), 1, beta - 1), ((0, beta - 1), 1, beta))
    if family.kind == "3k-2m":
        return _DIRECT_3K2M
    if family.kind in ("3k+1-shift", "2k+2-shift"):
        # x -> x + 1 in every coefficient of the base family's form
        beta, *parts = _direct_form(F30 if family.kind == "3k+1-shift" else F21)
        return beta, *(tuple((Poly(c).compose_affine(1, 1).num, a, b) for c, a, b in part)
                       for part in parts)
    raise ValueError(f"no direct form for family {family}")


def _evaluate(terms, s, order: int) -> tuple[Poly, ...]:
    """The sum of c(x) y^a s^b over the table's terms through y^order, for
    s given by its scalar coefficients."""
    powers = [(1,) + (0,) * order]
    for _ in range(max(b for _c, _a, b in terms)):
        powers.append(_scalar_mul(powers[-1], s))
    polys = [(from_int_scaled(c, 1), a, powers[b]) for c, a, b in terms]
    return tuple(lin_comb((sb[k - a], c) for c, a, sb in polys if a <= k)
                 for k in range(order + 1))


# (form, family, part) -> the numerator (part 0) or denominator (part 1) at
# the largest order built, form "direct" or the family's closed form name.
# Coefficient k reads only coefficients 0..k of s, so a lower order is a
# prefix, and `gfequiv`, `fcoeffs` and the weight solve share one per key.
_gf_memo: dict[tuple[str, FamilyId, int], tuple[Poly, ...]] = {}


def gf_fraction(family: FamilyId, order: int, closed: bool) -> tuple[tuple, tuple]:
    """Numerator and denominator of the family's direct or closed form;
    ValueError for a closed form of a family that has none."""
    return _gf_part(family, order, closed, 0), gf_denominator(family, order, closed)


def gf_denominator(family: FamilyId, order: int, closed: bool) -> tuple[Poly, ...]:
    """The denominator of `gf_fraction`, without expanding the numerator."""
    return _gf_part(family, order, closed, 1)


def _gf_part(family: FamilyId, order: int, closed: bool, part: int) -> tuple[Poly, ...]:
    if closed and family not in CLOSED_FORMS:
        raise ValueError(f"family {family.name} has no closed form")
    key = (CLOSED_FORMS[family].name if closed else "direct", family, part)
    got = _gf_memo.get(key)
    if got is None or len(got) <= order:
        if not closed and family == FAEX:
            # No rational form in tau exists here: the literal sum of the a_k.
            got = ((Poly.one(),) + (Poly.zero(),) * order if part
                   else tuple(a_poly(family, k) for k in range(order + 1)))
        else:
            beta, *parts = CLOSED_FORMS[family][1:] if closed else _direct_form(family)
            s = tau_series(order) if beta is None else t_series(beta, order)
            got = _evaluate(parts[part], s, order)
        _gf_memo[key] = got
    return got[: order + 1]


def mul(a, b) -> tuple[Poly, ...]:
    """The product of two series of one order, truncated at it, over Z."""
    (ia, sa), (ib, sb) = to_int_scaled(a), to_int_scaled(b)
    out: list[list[int]] = [[] for _ in ia]
    for i, ca in enumerate(ia):
        if ca:
            for j, cb in enumerate(ib[: len(ib) - i], i):
                if cb:
                    int_poly_addmul(out[j], ca, cb)
    return tuple(from_int_scaled(c, sa * sb) for c in out)


def divide_exact(num, den) -> tuple[Poly, ...]:
    """num / den for series of one order, den's y^0 term a nonzero Poly.

    With den = d / sd over Z, out_k = (sd num_k - sum_j d_j out_{k-j}) / d_0,
    the sum over Z on its terms' common denominator; each step divides in
    Q[x] and must be remainder-free (``InexactDivision`` otherwise)."""
    d, sd = to_int_scaled(den)
    if not d[0]:
        raise ZeroDivisionError("series division by y-multiple")
    d0 = from_int_scaled(d[0], 1)
    out: list[Poly] = []
    for k, c in enumerate(num):
        terms = [(d[j], out[k - j]) for j in range(1, k + 1) if d[j] and out[k - j]]
        scale = lcm(c.den, *(o.den for _, o in terms))
        acc = [v * sd * (scale // c.den) for v in c.num]
        for dj, o in terms:
            int_poly_addmul(acc, dj, o.num, -(scale // o.den))
        out.append(from_int_scaled(acc, scale).exact_div(d0))
    return tuple(out)


def f_series(family: FamilyId, order: int, closed: bool) -> tuple[Poly, ...]:
    """The family's direct or closed generating form expanded; the y^0 term
    of its denominator need not be a unit, and any remainder aborts."""
    return divide_exact(*gf_fraction(family, order, closed))


def gf_form_equiv(family: FamilyId, order: int) -> tuple[bool, tuple[Poly, ...]]:
    """(equal, residual) of the family's direct form num_a / den_a and its
    closed form num_b / den_b, residual = num_a den_b - num_b den_a."""
    num_a, den_a = gf_fraction(family, order, False)
    num_b, den_b = gf_fraction(family, order, True)
    residual = tuple(p - q for p, q in zip(mul(num_a, den_b), mul(num_b, den_a)))
    return not any(residual), residual
