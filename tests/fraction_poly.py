"""Reference polynomial arithmetic on tuples of Fractions.

An independent oracle for ``hankelab.poly.Poly``, which stores integer
numerators over one denominator: every operation here works coefficient by
coefficient on ``fractions.Fraction`` values, with no shared code.  The
tests compare each ``Poly`` operation against it, and run the cofactor
expansion over it.
"""

from __future__ import annotations

from fractions import Fraction


class FractionPoly:
    """Dense polynomial in Q[x]: Fraction coefficients ascending by degree,
    no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"FractionPoly({[str(c) for c in self.coeffs]})"

    def __add__(self, other) -> "FractionPoly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "FractionPoly":
        return FractionPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> "FractionPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "FractionPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "FractionPoly":
        if isinstance(other, (int, Fraction)):
            return FractionPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FractionPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FractionPoly":
        out = FractionPoly([1])
        for _ in range(n):
            out = out * self
        return out

    def derivative(self, order: int = 1) -> "FractionPoly":
        p = self
        for _ in range(order):
            p = FractionPoly([m * c for m, c in enumerate(p.coeffs)][1:])
        return p

    def __call__(self, point) -> Fraction:
        """Horner's rule over Fractions."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose_affine(self, a, b) -> "FractionPoly":
        arg = FractionPoly([b, a])
        acc = FractionPoly()
        for c in reversed(self.coeffs):
            acc = acc * arg + FractionPoly([c])
        return acc

    def divmod(self, other: "FractionPoly") -> tuple["FractionPoly", "FractionPoly"]:
        """Long division over Q."""
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        d = len(other.coeffs) - 1
        if len(self.coeffs) - 1 < d:
            return FractionPoly(), self
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - d - 1, -1, -1):
            c = rem[i + d] / lead
            if c:
                quot[i] = c
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] -= c * oc
        return FractionPoly(quot), FractionPoly(rem)


def _coerce(value) -> FractionPoly:
    if isinstance(value, FractionPoly):
        return value
    return FractionPoly([value])


def ref(p) -> FractionPoly:
    """The reference form of a ``Poly``, read from its stored num / den."""
    return FractionPoly(Fraction(c, p.den) for c in p.num)
