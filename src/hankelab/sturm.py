"""Sturm-sequence real-root counting and exact rational root isolation.

Everything is exact: the chain comes from polynomial division over Q, signs
are read from exact values at rational points, and intervals are half-open
(a, b] so counts add up exactly under bisection and no tolerance parameter
exists.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .poly import Poly
from .rat import Rat, rat

Interval = Tuple[Fraction, Fraction]


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


def _variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p: Poly, a, b) -> int:
    """Number of distinct real roots of p in the half-open interval (a, b]."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    a, b = rat(a), rat(b)
    if a > b:
        raise ValueError("empty interval: a > b")
    chain = sturm_chain(p)
    va = _variations([q(a) for q in chain])
    vb = _variations([q(b) for q in chain])
    return va - vb


def root_bound(p: Poly) -> Rat:
    """Cauchy bound: all real roots lie in [-B, B]."""
    if p.degree <= 0:
        raise ValueError("constant polynomial has no root bound")
    lead = abs(p.leading)
    return 1 + max(abs(c) for c in p.coeffs) / lead


def isolate_real_roots(p: Poly) -> list[Interval]:
    """Disjoint rational intervals (a, b], one distinct real root in each.

    Bisection driven by Sturm counts on the squarefree part; the union of
    the intervals accounts for every real root of p.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    f = p.squarefree_part()
    if f.degree <= 0:
        return []
    bound = root_bound(f)
    chain = sturm_chain(f)

    def count(a: Fraction, b: Fraction) -> int:
        va = _variations([q(a) for q in chain])
        vb = _variations([q(b) for q in chain])
        return va - vb

    out: list[Interval] = []
    stack: list[Interval] = [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        c = count(a, b)
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


def refine_interval(p: Poly, interval: Interval, width: Fraction) -> Interval:
    """Shrink an isolating (a, b] below the given width by bisection."""
    a, b = interval
    chain = sturm_chain(p)

    def count(lo, hi):
        return _variations([q(lo) for q in chain]) - _variations(
            [q(hi) for q in chain]
        )

    while b - a > width:
        mid = (a + b) / 2
        if count(a, mid) == 1:
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
    root, or refinement could never separate the intervals.
    """
    common = p.gcd(other)
    if common.degree > 0:
        raise ValueError("polynomials share a factor; intervals cannot disjoin")
    ips = isolate_real_roots(p)
    ios = isolate_real_roots(other)
    ps = p.squarefree_part()
    os_ = other.squarefree_part()
    while True:
        merged = [(iv, 0, idx) for idx, iv in enumerate(ips)] + [
            (iv, 1, idx) for idx, iv in enumerate(ios)
        ]
        merged.sort()
        overlap = None
        for (iv1, s1, i1), (iv2, s2, i2) in zip(merged, merged[1:]):
            if iv2[0] < iv1[1]:  # (a2, b2] starts inside (a1, b1]
                overlap = ((iv1, s1, i1), (iv2, s2, i2))
                break
        if overlap is None:
            return ips, ios
        for iv, side, idx in overlap:
            width = (iv[1] - iv[0]) / 4
            if side == 0:
                ips[idx] = refine_interval(ps, iv, width)
            else:
                ios[idx] = refine_interval(os_, iv, width)
