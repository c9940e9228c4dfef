"""Truncated power series in y whose coefficients are polynomials in x, and
the generating functions of the families as such series.

A ``SeriesYX`` of order m keeps the coefficients of y^0 .. y^m.  Ring
operations truncate consistently: coefficient k of a product depends only
on coefficients 0..k of the factors, so all results are exact through the
stated order.  Products and quotients run over Z on the int-list Z[x]
kernel of ``poly.py``, and each output coefficient is normalised once.

Generating functions come in a "direct" rational form in the algebraic series
t (t^beta * y = t - 1) and, for the five families of `CLOSED_FORMS`, in a
"closed" form of their own; a form is asked for by (family, order, closed),
so a closed form is only ever read for its own family.  Both expand to the
same truncated series and the expansion is checked against a_k coefficient by
coefficient.  Each part of a (form, family) fraction is built once per
process, at the largest order asked, and a lower order is its prefix.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import factorial, lcm

from .poly import Poly, as_poly, from_int_scaled, int_poly_addmul, to_int_scaled
from .sequences import F21, F30, F31, F3K2M, FAEX, FamilyId, a_poly


class SeriesYX:
    """Immutable truncated element of Q[x][[y]]."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = [as_poly(c) for c in coeffs][: order + 1]
        cs += [Poly.zero()] * (order + 1 - len(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("SeriesYX is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(order: int) -> "SeriesYX":
        return SeriesYX(order)

    @staticmethod
    def one(order: int) -> "SeriesYX":
        return SeriesYX(order, [Poly.one()])

    @staticmethod
    def y(order: int) -> "SeriesYX":
        return SeriesYX(order, [Poly.zero(), Poly.one()])

    @staticmethod
    def from_rats(order: int, values: Sequence) -> "SeriesYX":
        return SeriesYX(order, [Poly.const(Fraction(v)) for v in values])

    # -- structure -----------------------------------------------------

    def coefficient(self, k: int) -> Poly:
        if 0 <= k <= self.order:
            return self.coeffs[k]
        raise IndexError(f"coefficient {k} beyond truncation order {self.order}")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesYX):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "SeriesYX":
        other = self._align(other)
        return SeriesYX(
            self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "SeriesYX":
        return SeriesYX(self.order, [-c for c in self.coeffs])

    def __sub__(self, other) -> "SeriesYX":
        return self + (-self._align(other))

    def __mul__(self, other) -> "SeriesYX":
        if isinstance(other, (int, Fraction, Poly)):
            return SeriesYX(self.order, [c * other for c in self.coeffs])
        other = self._align(other)
        (a, sa), (b, sb) = to_int_scaled(self.coeffs), to_int_scaled(other.coeffs)
        out: list[list[int]] = [[] for _ in a]
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b[: len(b) - i], i):
                    if cb:
                        int_poly_addmul(out[j], ca, cb)
        return SeriesYX(self.order, [from_int_scaled(c, sa * sb) for c in out])

    __rmul__ = __mul__

    def shift_y(self, k: int) -> "SeriesYX":
        """Multiply by y^k (coefficients past the order fall off)."""
        if k < 0:
            raise ValueError("negative y-shift")
        return SeriesYX(self.order, [Poly.zero()] * k + list(self.coeffs))

    def divide_exact(self, den: "SeriesYX") -> "SeriesYX":
        """Divide by a series whose y^0 term is a nonzero Poly.

        Each step divides in Q[x] and must be remainder-free; this is how
        closed generating forms with non-unit constant terms are expanded.
        With den = d / sd over Z, out_k = (sd self_k - sum_j d_j out_{k-j}) /
        d_0, the sum taken over Z on its terms' common denominator.
        """
        den = self._align(den)
        d, sd = to_int_scaled(den.coeffs)
        if not d[0]:
            raise ZeroDivisionError("series division by y-multiple")
        d0 = from_int_scaled(d[0], 1)
        out: list[Poly] = []
        for k, c in enumerate(self.coeffs):
            terms = [(d[j], out[k - j]) for j in range(1, k + 1) if d[j] and out[k - j]]
            scale = lcm(c.den, *(o.den for _, o in terms))
            acc = [v * sd * (scale // c.den) for v in c.num]
            for dj, o in terms:
                int_poly_addmul(acc, dj, o.num, -(scale // o.den))
            out.append(from_int_scaled(acc, scale).exact_div(d0))
        return SeriesYX(self.order, out)

    def map_x(self, fn) -> "SeriesYX":
        """Apply ``fn`` to every Poly coefficient (e.g. an x-substitution)."""
        return SeriesYX(self.order, [fn(c) for c in self.coeffs])

    def _align(self, other) -> "SeriesYX":
        if isinstance(other, (int, Fraction, Poly)):
            return SeriesYX(self.order, [as_poly(other)])
        if not isinstance(other, SeriesYX):
            raise TypeError(f"cannot combine SeriesYX with {other!r}")
        if other.order != self.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )
        return other

    def __repr__(self) -> str:
        terms = ", ".join(f"[{c}]" for c in self.coeffs)
        return f"SeriesYX(order={self.order}: {terms})"


# ---------------------------------------------------------------------------
# t, tau, and the generating-function forms
# ---------------------------------------------------------------------------


def t_series(beta: int, order: int) -> SeriesYX:
    """Lagrange-inversion solution of t^beta * y = t - 1 with t(0) = 1.

    Coefficient of y^k is (beta*k)! / (((beta-1)*k + 1)! * k!), a positive
    integer for integer beta >= 1.
    """
    if beta < 1:
        raise ValueError("t-series needs beta >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    vals = [
        Fraction(factorial(beta * k), factorial((beta - 1) * k + 1) * factorial(k))
        for k in range(order + 1)
    ]
    return SeriesYX.from_rats(order, vals)


def t_residual(beta: int, order: int) -> SeriesYX:
    """t^beta * y - t + 1 at the given truncation; zero iff t is correct."""
    t = t_series(beta, order)
    tb = SeriesYX.one(order)
    for _ in range(beta):
        tb = tb * t
    return tb.shift_y(1) - t + SeriesYX.one(order)


def tau_series(order: int) -> SeriesYX:
    """The series with coefficients (3k)! / ((2k)! (k+1)!)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    vals = [
        Fraction(factorial(3 * k), factorial(2 * k) * factorial(k + 1))
        for k in range(order + 1)
    ]
    return SeriesYX.from_rats(order, vals)


# family -> the name of its closed generating form; the other families
# have only the direct one.
CLOSED_FORMS = {F31: "closed31", F21: "closed21", F30: "closed30", F3K2M: "closed3k2m",
                FAEX: "closedaex"}


def _x(c0, c1=0, c2=0, c3=0) -> Poly:
    return Poly([c0, c1, c2, c3])


# (form, family, part) -> the numerator (part 0) or denominator (part 1) at
# the largest order built, form "direct" or the family's closed form.
# Coefficient k of a sum or product depends only on coefficients 0..k, so
# every lower order is a prefix of it, and `gfequiv`, `fcoeffs` and the
# weight construction share one series per key.
_gf_memo: dict[tuple[str, FamilyId, int], SeriesYX] = {}


def gf_fraction(family: FamilyId, order: int, closed: bool) -> tuple[SeriesYX, SeriesYX]:
    """Numerator and denominator of the family's direct or closed form as
    truncated series.

    Occurrences of the algebraic series t (or tau) are substituted by their
    expansions, so the pair lives entirely in Q[x][[y]].  Raises ValueError
    for a closed form of a family that has none.  Each part is built once
    per process at the largest order asked; a lower order is its prefix.
    """
    return _gf_part(family, order, closed, 0), gf_denominator(family, order, closed)


def gf_denominator(family: FamilyId, order: int, closed: bool) -> SeriesYX:
    """The denominator of `gf_fraction`; a closed form's numerator is not
    expanded."""
    return _gf_part(family, order, closed, 1)


def _gf_part(family: FamilyId, order: int, closed: bool, part: int) -> SeriesYX:
    form = CLOSED_FORMS.get(family) if closed else "direct"
    if form is None:
        raise ValueError(f"family {family.name} has no closed form")
    got = _gf_memo.get((form, family, part))
    if got is None or got.order < order:
        if closed:
            built = [(part, _closed_part(family, order, part))]
        else:  # the direct form's two parts share their powers of t
            built = enumerate(_direct_fraction(family, order))
        _gf_memo.update(((form, family, p), s) for p, s in built)
        got = _gf_memo[form, family, part]
    return got if got.order == order else SeriesYX(order, got.coeffs)


def _closed_part(family: FamilyId, order: int, part: int) -> SeriesYX:
    """The numerator (part 0) or the denominator (part 1) of a closed form."""
    one = SeriesYX.one(order)
    y = SeriesYX.y(order)

    if family == FAEX:
        tau = tau_series(order)
        xm1sq = _x(1, -2, 1)
        if not part:
            return 2 * (xm1sq * tau) - 2 * xm1sq * one - 2 * _x(-1, 3) * one
        return (
            -(_x(0, 0, -3, 1) * (2 * y)) * tau
            + _x(0, 0, -3, 1) * (2 * y)
            + _x(0, 0, 6) * y
            + _x(1, -3) * one
        )

    t = t_series(2 if family == F21 else 3, order)
    if family == F31:
        if not part:
            return _x(-6, 4) * one + 2 * t
        return (_x(9, -15, 4) * y) * (2 * t - 3 * one) - _x(-1, 1) * (27 * y - 4 * one)
    if family == F21:
        if not part:
            return t
        return (_x(-2, 1) * y) * t + one - _x(0, 2) * y
    if family == F30:
        if not part:
            return -(_x(-3, 2) * t) - _x(0, 3) * one
        return (_x(0, 0, 9) * y + _x(-6, 10, -4) * one) * t + _x(9, -15, 4) * one
    if not part:  # F3K2M
        return 3 * t + _x(0, 2) * one
    return (_x(0, -9, 4) * y - 6 * one) * t + _x(9, 2) * one - _x(0, 0, 6) * y


def _direct_fraction(family: FamilyId, order: int) -> tuple[SeriesYX, SeriesYX]:
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


def f_series(family: FamilyId, order: int, closed: bool) -> SeriesYX:
    """Expand the family's direct or closed generating form to a truncated
    series.

    The y^0 term of a denominator need not be a unit; expansion divides
    exactly in Q[x] per coefficient and any nonzero remainder aborts.
    """
    num, den = gf_fraction(family, order, closed)
    return num.divide_exact(den)


def gf_form_equiv(family: FamilyId, order: int) -> tuple[bool, SeriesYX]:
    """Cross-multiplied equality of the family's direct and closed forms,
    avoiding series division.

    Returns (equal, residual) where residual = num_a*den_b - num_b*den_a
    truncated at the given order; both forms are reduced through the
    defining relation of t by substituting its expansion.
    """
    num_a, den_a = gf_fraction(family, order, False)
    num_b, den_b = gf_fraction(family, order, True)
    residual = num_a * den_b - num_b * den_a
    return residual.is_zero(), residual
