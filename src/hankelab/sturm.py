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
strict interlacing.  Only leading coefficients are read, and the sign of a
Poly's leading coefficient is that of its integer numerator's last entry.
"""

from __future__ import annotations

from .poly import Poly


def _changes(signs: list[bool]) -> int:
    return sum(u != v for u, v in zip(signs, signs[1:]))


def strictly_interlace(p: Poly, q: Poly) -> bool:
    """Whether p has deg p distinct real roots and q, of degree deg p - 1,
    has exactly one root strictly between each two consecutive ones."""
    if not q or q.degree != p.degree - 1:
        return False
    seq = [p, q]
    while True:
        rem = seq[-2].divmod(seq[-1])[1]
        if not rem:
            break
        seq.append(-rem)
    at_plus = [s.num[-1] > 0 for s in seq]
    at_minus = [(s.num[-1] > 0) != (s.degree % 2 == 1) for s in seq]
    return abs(_changes(at_minus) - _changes(at_plus)) == p.degree
