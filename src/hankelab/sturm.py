"""Sturm-sequence real-root counting and exact rational root isolation.

Everything is exact: the chain comes from polynomial division over Q, the
sign of each chain member at a rational point p/q is the sign of an integer
homogeneous Horner sum over its Z[x] int-list numerator, and intervals are
half-open (a, b] so counts add up exactly under bisection and no tolerance
parameter exists.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, int_poly_hom_eval
from .rat import Rat

Interval = tuple[Fraction, Fraction]


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of the squarefree part of p."""
    if p.is_zero():
        raise ValueError("zero polynomial has no Sturm chain")
    f = p.squarefree_part()
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        rem = chain[-2].divmod(chain[-1])[1]
        chain.append(-rem)
    chain.pop()
    return chain


def _count(chain: list[Poly], a, b) -> int:
    """Distinct real roots in (a, b] of the polynomial whose Sturm chain
    this is: the drop in sign variations from a to b.  f(p/q) has the sign
    of q^deg f(p/q) times den, an integer sum over f's numerator."""
    counts = []
    for t in (a, b):
        p, q = t.numerator, t.denominator
        signs = [v > 0 for v in (int_poly_hom_eval(f.num, p, q) for f in chain) if v]
        counts.append(sum(1 for u, v in zip(signs, signs[1:]) if u != v))
    return counts[0] - counts[1]


def root_bound(p: Poly) -> Rat:
    """Cauchy bound: all real roots lie in [-B, B]."""
    if p.degree <= 0:
        raise ValueError("constant polynomial has no root bound")
    lead = abs(p.leading)
    return 1 + max(abs(c) for c in p.coeffs) / lead


def isolate_real_roots(p: Poly, chain: list[Poly] | None = None) -> list[Interval]:
    """Disjoint rational intervals (a, b], one distinct real root in each.

    Bisection driven by Sturm counts on the squarefree part; the union of
    the intervals accounts for every real root of p.  ``chain`` is p's
    Sturm chain, when the caller has it already.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    chain = chain or sturm_chain(p)
    f = chain[0]  # the squarefree part of p
    if f.degree <= 0:
        return []
    bound = root_bound(f)
    out: list[Interval] = []
    stack: list[Interval] = [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        c = _count(chain, a, b)
        if c == 0:
            continue
        if c == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        stack.append((a, mid))
        stack.append((mid, b))
    out.sort()
    return out


def refine_interval(
    p: Poly, interval: Interval, width: Fraction, chain: list[Poly] | None = None
) -> Interval:
    """Shrink an isolating (a, b] below the given width by bisection.
    ``chain`` is p's Sturm chain, when the caller has it already."""
    a, b = interval
    chain = chain or sturm_chain(p)
    while b - a > width:
        mid = (a + b) / 2
        if _count(chain, a, mid) == 1:
            b = mid
        else:
            a = mid
    return a, b


def isolate_disjoint_from(
    p: Poly, other: Poly
) -> tuple[list[Interval], list[Interval]]:
    """Isolating intervals for p and other, refined to be pairwise disjoint.

    Useful for interlacing checks: once every interval of p is disjoint
    from every interval of other, the interleaving order of the roots can
    be read off the interval order.  The polynomials must not share a
    root, or refinement could never separate the intervals.  Each
    polynomial's Sturm chain is built once.
    """
    common = p.gcd(other)
    if common.degree > 0:
        raise ValueError("polynomials share a factor; intervals cannot disjoin")
    chains = (sturm_chain(p), sturm_chain(other))
    sides = (isolate_real_roots(p, chains[0]), isolate_real_roots(other, chains[1]))
    while True:
        merged = sorted(
            (iv, side, idx) for side in (0, 1) for idx, iv in enumerate(sides[side])
        )
        overlap = None
        for (iv1, s1, i1), (iv2, s2, i2) in zip(merged, merged[1:]):
            if iv2[0] < iv1[1]:  # (a2, b2] starts inside (a1, b1]
                overlap = ((iv1, s1, i1), (iv2, s2, i2))
                break
        if overlap is None:
            return sides
        for iv, side, idx in overlap:
            width = (iv[1] - iv[0]) / 4
            sides[side][idx] = refine_interval(
                (p, other)[side], iv, width, chains[side]
            )
