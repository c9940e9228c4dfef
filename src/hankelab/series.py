"""Truncated power series in y whose coefficients are polynomials in x.

A ``SeriesYX`` of order m keeps the coefficients of y^0 .. y^m.  Ring
operations truncate consistently: coefficient k of a product depends only
on coefficients 0..k of the factors, so all results are exact through the
stated order.  Products and quotients run over Z on the int-list Z[x]
kernel of ``poly.py``, and each output coefficient is normalised once.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from collections.abc import Iterable, Sequence

from .poly import Poly, from_int_scaled, int_poly_add_into, int_poly_mul, to_int_scaled
from .rat import rat


class SeriesYX:
    """Immutable truncated element of Q[x][[y]]."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = [_as_poly(c) for c in coeffs][: order + 1]
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
        return SeriesYX(order, [Poly.const(rat(v)) for v in values])

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
                        int_poly_add_into(out[j], int_poly_mul(ca, cb))
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
                int_poly_add_into(acc, int_poly_mul(dj, o.num), -(scale // o.den))
            out.append(from_int_scaled(acc, scale).exact_div(d0))
        return SeriesYX(self.order, out)

    def map_x(self, fn) -> "SeriesYX":
        """Apply ``fn`` to every Poly coefficient (e.g. an x-substitution)."""
        return SeriesYX(self.order, [fn(c) for c in self.coeffs])

    def _align(self, other) -> "SeriesYX":
        if isinstance(other, (int, Fraction, Poly)):
            return SeriesYX(self.order, [_as_poly(other)])
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


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot coerce {value!r} to Poly")
