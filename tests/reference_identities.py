"""Reference computations the sequence-level checks are compared against.

Each is the Fraction-`Poly` form a check ran before its sums moved onto
the integer kernel: ``fraction_a_poly`` builds a_k from one ``binom``
per coefficient, ``fraction_identity_residual`` states the ten L1/L2
identities as Poly expressions, ``table_identity_residual`` sums the
terms of ``lemmas.IDENTITIES`` with Poly `+` and `*`, ``e_matrix``,
``f_matrix`` and ``mat_mul`` form E_n A and F_n A as Poly matrix
products, and ``fraction_trace_values`` sums the Table-1 traces over the
Poly adjugate.
"""

from __future__ import annotations

import math
from fractions import Fraction

from reference_det import adjugate, power

from hankelab import lemmas
from hankelab.hankel import hankel_matrix
from hankelab.lemmas import table1_rules
from hankelab.poly import Poly
from hankelab.sequences import F21, F30, F31, F3K2M, FAEX, FamilyId, a_poly, conv_poly


def _p(*cs) -> Poly:
    return Poly(cs)


_S31 = _p(-3, 1) * _p(-3, 2) * _p(-3, 4)
IDENTITY_FAMILY = {
    "l1_31": F31, "l2_31": F31, "l1_21": F21, "l2_21": F21, "l1_30": F30,
    "l2_30": F30, "l1_3k2m": F3K2M, "l2_3k2m": F3K2M, "l1_aex": FAEX, "l2_aex": FAEX,
}


def binom(top, k: int) -> Fraction:
    """Generalized binomial coefficient via the falling factorial.

    ``binom(t, k) = t (t-1) ... (t-k+1) / k!`` for any rational ``t`` and
    integer ``k >= 0``.  Coincides with the ordinary binomial coefficient
    for integer ``t >= k`` and vanishes for integer ``t`` with
    ``0 <= t < k``.
    """
    if k < 0:
        raise ValueError(f"binom lower index must be >= 0, got {k}")
    top = Fraction(top)
    if top.denominator == 1:
        t = top.numerator
        if t >= 0:
            return Fraction(math.comb(t, k))
        # C(-t, k) = (-1)^k C(k - t - 1, k)
        return Fraction((-1) ** k * math.comb(k - t - 1, k))
    # t = p/q: one integer falling factorial over q^k k!, reduced once
    p, q = top.numerator, top.denominator
    return Fraction(math.prod(p - i * q for i in range(k)), q**k * math.factorial(k))


def fraction_a_poly(family: FamilyId, k: int) -> Poly:
    """a_k from one ``binom`` Fraction per coefficient."""
    kind = family.kind
    if kind == "binom":
        beta, alpha = family.beta, family.alpha
        return Poly([binom(beta * k + alpha - m, k - m) for m in range(k + 1)])
    if kind == "3k-2m":
        return Poly([binom(3 * k - 2 * m, k - m) for m in range(k + 1)])
    if kind == "aex":
        inv = Fraction(1, k + 1)
        return Poly(
            [inv * (m + 1) * (m + 2) * binom(3 * k - m, k - m) for m in range(k + 1)]
        )
    if kind == "3k+1-shift":
        return Poly([binom(3 * k + 1, k - m) for m in range(k + 1)])
    if kind == "2k+2-shift":
        return Poly([binom(2 * k + 2, k - m) for m in range(k + 1)])
    raise ValueError(f"unknown family kind {kind!r}")


def fraction_identity_residual(iid: str, k: int) -> Poly:
    """The stated combination of a_{k-1..k+2}, c_{k-1..k+2}, d_x a_k, summed
    term by term with Poly `+` and `*`."""
    fam = IDENTITY_FAMILY[iid]
    a = lambda i: a_poly(fam, i)
    c = lambda i: conv_poly(fam, i)
    da = a(k).derivative()

    if iid == "l1_31":
        return (
            _S31 * da
            - 2 * (2 * k + 3) * a(k + 1)
            + _p(27 * k + 36, -18, 8) * a(k)
            - 4 * _p(3, -6, 2) * c(k)
            + 27 * _p(3, -6, 2) * c(k - 1)
        )
    if iid == "l2_31":
        return (
            4 * (2 * k + 5) * _p(-1, 1) * a(k + 2)
            - (2 * k * _p(-81, 135, -72, 16) + 2 * _p(-117, 180, -92, 24)) * a(k + 1)
            + (27 * k * power(_p(-3, 2), 3) + 54 * _p(-3, 2) * _p(3, -4, 2)) * a(k)
            + 8 * _p(-1, 1) * _p(3, -6, 2) * c(k + 1)
            + 2 * _p(81, -297, 324, -114, 8) * c(k)
            - 27 * _p(0, 1) * _p(-3, 2) * _p(9, -12, 2) * c(k - 1)
        )
    if iid == "l1_21":
        return (
            2 * _p(0, 1) * _p(-2, 1) * da
            - (k + 1) * a(k + 1)
            + _p(4 * k + 2, 2) * a(k)
            - _p(-1, 1) * c(k)
            + 4 * _p(-1, 1) * c(k - 1)
        )
    if iid == "l2_21":
        return (
            _p(2, k + 2) * a(k + 2)
            - (2 * k * _p(0, 2, 1) + 2 * _p(4, 3, 2)) * a(k + 1)
            + 4 * (2 * k + 3) * _p(0, 0, 1) * a(k)
            + _p(-1, 1) * _p(-2, 1) * c(k + 1)
            - 4 * _p(-1, 1) * _p(-2, 1) * c(k)
        )
    if iid == "l1_30":
        return (
            3 * _p(-3, 1) * _p(0, 1) * _p(-3, 4) * da
            - (4 * k * _p(-3, 2) + 2 * _p(-5, 2)) * a(k + 1)
            + (27 * k * _p(-3, 2) + 3 * _p(-9, -3, 4)) * a(k)
            - 4 * _p(-1, 1) * c(k + 1)
            + 27 * _p(-1, 1) * c(k)
        )
    if iid == "l2_30":
        return (
            (4 * k * power(_p(-3, 2), 2) * _p(-3, 5) + 2 * _p(-3, 2) * _p(-3, 5) * _p(-11, 6))
            * a(k + 2)
            - (81 * k * _p(-9, 27, -24, 8) + 18 * _p(-54, 153, -123, 37)) * a(k + 1)
            + (729 * k + 486) * _p(0, 0, 0, 1) * a(k)
            + 4 * _p(-1, 1) * _p(-3, 2) * _p(-3, 5) * c(k + 2)
            - 3 * _p(-81, 270, -207, -30, 40) * c(k + 1)
            + 162 * _p(0, 0, 1) * _p(9, -15, 5) * c(k)
        )
    if iid == "l1_3k2m":
        return (
            _p(0, 1) * _p(-9, 2) * _p(9, 4) * da
            - (36 * k + 30) * a(k + 1)
            + _p(243 * k + 81, 18, 8) * a(k)
            - 12 * c(k + 1)
            - _p(-81, -36, 8) * c(k)
            + 27 * _p(0, 1) * _p(-9, 2) * c(k - 1)
        )
    if iid == "l2_3k2m":
        return (
            (36 * k + 66) * _p(3, 2) * a(k + 2)
            - (k * _p(729, 486, 0, 32) + 12 * _p(81, 54, 4, 4)) * a(k + 1)
            + (216 * k * _p(0, 0, 0, 1) + 108 * _p(0, 0, 1) * _p(3, 2)) * a(k)
            + 12 * _p(3, 2) * c(k + 2)
            + _p(-243, -378, -72, 16) * c(k + 1)
            + 2 * _p(0, 1) * _p(729, 243, -90, 8) * c(k)
            - 54 * _p(0, 0, 0, 1) * _p(-9, 2) * c(k - 1)
        )
    if iid == "l1_aex":
        return (
            _p(0, 1) * _p(-3, 1) * _p(-3, 7) * da
            - (4 * k + 14) * _p(-1, 1) * a(k + 1)
            + (27 * k * _p(-1, 1) + 3 * _p(-1, 1) * _p(3, 11)) * a(k)
            - 6 * power(_p(-1, 1), 2) * c(k)
            + 6 * _p(0, 0, 0, 1) * c(k - 1)
        )
    if iid == "l2_aex":
        return (
            (4 * k + 18) * power(_p(-1, 1), 2) * _p(-1, 3) * a(k + 2)
            + (k * _p(27, -135, 189, -113) - 4 * _p(-9, 39, -21, -19, 30)) * a(k + 1)
            + (216 * k * _p(0, 0, 0, 1) + 12 * _p(0, 0, 0, 1) * _p(15, -2, 7)) * a(k)
            + 6 * power(_p(-1, 1), 3) * _p(-1, 3) * c(k + 1)
            - 6 * _p(0, 0, 1) * _p(-1, 1) * _p(9, -17, 10) * c(k)
            + 6 * _p(0, 0, 0, 0, 0, 1) * _p(-9, 7) * c(k - 1)
        )
    raise ValueError(f"unknown identity {iid!r}")


def table_identity_residual(iid: str, k: int) -> Poly:
    """The residual of the identity's entry in ``lemmas.IDENTITIES`` at k,
    summed term by term with Poly `+` and `*`: each coefficient read row by
    row at k, times a_{k+offset}, c_{k+offset} or d_x a_{k+offset}."""
    fam, terms = lemmas.IDENTITIES[iid]
    total = Poly.zero()
    for table, kind, offset in terms:
        j = k + offset
        if kind == "c":
            seq = conv_poly(fam, j)
        else:
            seq = a_poly(fam, j) if j >= 0 else Poly.zero()
            seq = seq.derivative() if kind == "da" else seq
        total = total + Poly([sum(c * k**i for i, c in enumerate(row)) for row in table]) * seq
    return total


def e_matrix(family: FamilyId, n: int) -> list[list[Poly]]:
    """Lower-triangular E_n with its first column halved."""
    half = Fraction(1, 2)
    out = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            if j == 0:
                row.append(a_poly(family, i) * half)
            elif j <= i:
                row.append(a_poly(family, i - j))
            else:
                row.append(Poly.zero())
        out.append(row)
    return out


def f_matrix(family: FamilyId, n: int) -> list[list[Poly]]:
    """Strictly lower-triangular F_n with (i, j) entry a_{i-j-1}."""
    return [
        [
            a_poly(family, i - j - 1) if j < i else Poly.zero()
            for j in range(n + 1)
        ]
        for i in range(n + 1)
    ]


def mat_mul(a, b):
    n = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(n)), Poly.zero())
            for j in range(n)
        ]
        for i in range(n)
    ]


def fraction_trace_values(family: FamilyId, n: int) -> list[tuple[str, Poly, Poly]]:
    """(name, Tr(adj(A) X), stated value) of each Table-1 rule, as Poly sums.

    The left side is Tr(adj(A) X), the sum over s of x(s) times the s-th
    anti-diagonal sum of adj(A), one Gauss-Jordan elimination of A's own.
    """
    rules = table1_rules(family, n)
    adj = adjugate(hankel_matrix(family, n))
    sums = [
        sum((adj[i][s - i] for i in range(max(0, s - n), min(s, n) + 1)), Poly.zero())
        for s in range(2 * n + 1)
    ]
    return [
        (name, sum((t * x(s) for s, t in enumerate(sums)), Poly.zero()), expected)
        for name, x, expected in rules
    ]
