"""Strict interlacing of real roots, decided from one signed remainder sequence.

Sylvester's theorem (Basu, Pollack and Roy, *Algorithms in Real Algebraic
Geometry*, ch. 2): for nonzero p and q, the Cauchy index of q/p over the
real line, Ind(q/p), equals Var(-inf) - Var(+inf), the drop in sign
changes along the signed remainder sequence S_0 = p, S_1 = q,
S_{k+1} = -rem(S_{k-1}, S_k).  The index adds +1 or -1 at each real pole of
q/p where it changes sign, so |Ind(q/p)| = deg p exactly when p has deg p
simple real roots, none of them a root of q, and q/p jumps the same way at
each.  Since p' alternates in sign over consecutive simple roots, the last
condition says q changes sign between consecutive roots of p; with
deg q = deg p - 1 that places exactly one root of q in each gap, which is
strict interlacing.  Only degrees and leading signs are read, so the
sequence is built over Z: a pseudo-remainder step scales by |lc(S_k)| > 0
and each S_{k+1} is made primitive, a positive multiple of the rational one.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .poly import Poly


def _changes(signs: list[bool]) -> int:
    return sum(u != v for u, v in zip(signs, signs[1:]))


def signed_remainders(p: Sequence[int], q: Sequence[int]) -> list[Sequence[int]]:
    """S_0 = p, S_1 = q, S_{k+1} = -rem(S_{k-1}, S_k) over Z up to positive
    scalars, for nonzero stripped int lists, up to the first zero remainder."""
    seq = [p, q]
    while True:
        rem, div = list(seq[-2]), seq[-1]
        lead, low = div[-1], div[:-1]
        size = abs(lead)
        for i in range(len(rem) - len(div), -1, -1):
            top = rem.pop()
            if top:
                # size * rem - sign(lead) * top * x^i * div cancels the top
                rem = [c * size for c in rem]
                u = top if lead > 0 else -top
                for j, c in enumerate(low, i):
                    rem[j] -= u * c
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            return seq
        g = gcd(*rem)
        seq.append([-c // g for c in rem])


def strictly_interlace(p: Poly, q: Poly) -> bool:
    """Whether p has deg p distinct real roots and q, of degree deg p - 1,
    has exactly one root strictly between each two consecutive ones."""
    if not q or q.degree != p.degree - 1:
        return False
    seq = signed_remainders(p.num, q.num)
    at_plus = [s[-1] > 0 for s in seq]
    at_minus = [(s[-1] > 0) != (len(s) % 2 == 0) for s in seq]
    return abs(_changes(at_minus) - _changes(at_plus)) == p.degree
