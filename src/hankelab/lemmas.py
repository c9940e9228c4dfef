"""Sequence-level lemmas: identities among a_k, c_k and a_k' for every k,
and the matrix-level ones built on them.

The ten L1/L2 identities are one table, `IDENTITIES`, keyed by their
check ids ("l1_31" .. "l2_aex"), of terms (table, kind, offset): the
coefficient, a polynomial in (k, x) as an int table (`forms`), times
a_{k+offset}, c_{k+offset} or a_k'.  `check_identity` decides each
residual by one exact integer, its value at X = 2^s: one pass per family
packs den a_m(X) and den a_m'(X) (den clears the a_m's denominators) and
forms den^2 c_m(X) = sum A_i A_{m-i} from them, and no c_m or residual is
built as a polynomial.  s is sized from the operands' 1-norms, since
||fg||_1 <= ||f||_1 ||g||_1, and at each k the residual's 1-norm bound B
must satisfy 2B < 2^s: then its coefficients are all below 2^(s-1) in
absolute value, and a nonzero integer polynomial with such coefficients
does not vanish at 2^s (its lowest nonzero coefficient is not a multiple
of 2^s).  The zero test is exact, not a sample.  Each entry of the E/F
matrix convolution identities is one `poly.lin_comb` over Z.  The
Table-1 trace rules Tr(A^{-1} X) H_n = value are a table too, `TABLE1`:
per rule, the kind and offset of X and the value, polynomials in n (rows,
as in `forms`) times H', H, K, M, N, a_0 H, a_0 K or a_1 H.
`table1_rules` reads it at n, and `trace_values` sums each rule as one
`lin_comb` against the adjugate over Z[x] of [a_{i+j}], whose integer
rows come from `hankel.int_hankel` and which is read off one
Gauss-Jordan elimination per family.  The tables have a module of
their own: inside `identities.py` they raised the compile that peaks a
sweep's resident size (a tuple display costs the parser far more memory
than an int).
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import partial
from operator import mul

from .forms import index_poly
from .hankel import int_hankel, quartet
from .hankel_checks import int_adjugate, leading_adjugates
from .poly import (
    Poly,
    from_int_scaled,
    int_poly_add_into,
    int_poly_hom_eval,
    lin_comb,
    to_int_scaled,
)
from .sequences import F21, F30, F31, F3K2M, FAEX, FamilyId, a_poly, conv_poly


# check id -> (family, terms).  The residual at k is the sum over the terms
# (table, kind, offset) of the coefficient, a polynomial in (k, x) written
# as one table (as in `forms`: row j, the coefficient of x^j, is A_j + k B_j),
# times a_{k+offset} ("a"), c_{k+offset} ("c") or d_x a_k ("da", offset 0).
IDENTITIES: dict[str, tuple[FamilyId, tuple]] = {
    "l1_31": (F31, (
        (((-27,), (63,), (-42,), (8,)), "da", 0),
        (((-6, -4),), "a", 1),
        (((36, 27), (-18,), (8,)), "a", 0),
        (((-12,), (24,), (-8,)), "c", 0),
        (((81,), (-162,), (54,)), "c", -1))),
    "l2_31": (F31, (
        (((-20, -8), (20, 8)), "a", 2),
        (((234, 162), (-360, -270), (184, 144), (-48, -32)), "a", 1),
        (((-486, -729), (972, 1458), (-756, -972), (216, 216)), "a", 0),
        (((-24,), (72,), (-64,), (16,)), "c", 1),
        (((162,), (-594,), (648,), (-228,), (16,)), "c", 0),
        (((0,), (729,), (-1458,), (810,), (-108,)), "c", -1))),
    "l1_21": (F21, (
        (((0,), (-4,), (2,)), "da", 0),
        (((-1, -1),), "a", 1),
        (((2, 4), (2,)), "a", 0),
        (((1,), (-1,)), "c", 0),
        (((-4,), (4,)), "c", -1))),
    "l2_21": (F21, (
        (((2,), (2, 1)), "a", 2),
        (((-8,), (-6, -4), (-4, -2)), "a", 1),
        (((0,), (0,), (12, 8)), "a", 0),
        (((2,), (-3,), (1,)), "c", 1),
        (((-8,), (12,), (-4,)), "c", 0))),
    "l1_30": (F30, (
        (((0,), (27,), (-45,), (12,)), "da", 0),
        (((10, 12), (-4, -8)), "a", 1),
        (((-27, -81), (-9, 54), (12,)), "a", 0),
        (((4,), (-4,)), "c", 1),
        (((-27,), (27,)), "c", 0))),
    "l2_30": (F30, (
        (((-198, -108), (570, 324), (-472, -288), (120, 80)), "a", 2),
        (((972, 729), (-2754, -2187), (2214, 1944), (-666, -648)), "a", 1),
        (((0,), (0,), (0,), (486, 729)), "a", 0),
        (((-36,), (120,), (-124,), (40,)), "c", 2),
        (((243,), (-810,), (621,), (90,), (-120,)), "c", 1),
        (((0,), (0,), (1458,), (-2430,), (810,)), "c", 0))),
    "l1_3k2m": (F3K2M, (
        (((0,), (-81,), (-18,), (8,)), "da", 0),
        (((-30, -36),), "a", 1),
        (((81, 243), (18,), (8,)), "a", 0),
        (((-12,),), "c", 1),
        (((81,), (36,), (-8,)), "c", 0),
        (((0,), (-243,), (54,)), "c", -1))),
    "l2_3k2m": (F3K2M, (
        (((198, 108), (132, 72)), "a", 2),
        (((-972, -729), (-648, -486), (-48,), (-48, -32)), "a", 1),
        (((0,), (0,), (324,), (216, 216)), "a", 0),
        (((36,), (24,)), "c", 2),
        (((-243,), (-378,), (-72,), (16,)), "c", 1),
        (((0,), (1458,), (486,), (-180,), (16,)), "c", 0),
        (((0,), (0,), (0,), (486,), (-108,)), "c", -1))),
    "l1_aex": (FAEX, (
        (((0,), (9,), (-24,), (7,)), "da", 0),
        (((14, 4), (-14, -4)), "a", 1),
        (((-9, -27), (-24, 27), (33,)), "a", 0),
        (((-6,), (12,), (-6,)), "c", 0),
        (((0,), (0,), (0,), (6,)), "c", -1))),
    "l2_aex": (FAEX, (
        (((-18, -4), (90, 20), (-126, -28), (54, 12)), "a", 2),
        (((36, 27), (-156, -135), (84, 189), (76, -113), (-120,)), "a", 1),
        (((0,), (0,), (0,), (180, 216), (-24,), (84,)), "a", 0),
        (((6,), (-36,), (72,), (-60,), (18,)), "c", 1),
        (((0,), (0,), (54,), (-156,), (162,), (-60,)), "c", 0),
        (((0,), (0,), (0,), (0,), (0,), (-54,), (42,)), "c", -1))),
}


def _seq(family: FamilyId, kind: str, k: int) -> Poly:
    """a_k ("a"), c_k ("c") or d_x a_k ("da"), with a_k = 0 for k < 0."""
    if kind == "c":
        return conv_poly(family, k)
    if kind not in ("a", "da"):
        raise ValueError(f"unknown sequence kind {kind!r}")
    a = a_poly(family, k) if k >= 0 else Poly.zero()
    return a.derivative() if kind == "da" else a


# family -> (s, {kind: (values, 1-norm bounds)}): den^2 a_m, den^2 d_x a_m
# and den^2 c_m at X = 2^s for m = 0..K ("a", "da", "c"), den the lcm of the
# a_m's denominators.  One pass per family serves both of its identities; a
# larger K packs the family anew.
_packed: dict[FamilyId, tuple[int, dict]] = {}

# Bits of X above the largest operand's 1-norm, left for the coefficients'
# 1-norms and the sum over terms.  This only sizes s: each k checks its bound.
_HEADROOM = 32


def _slot(bound: int) -> int:
    """The least s with 2 bound < 2^s."""
    return (2 * bound).bit_length()


def _is_zero_at(value: int, bound: int, s: int) -> bool:
    """Whether a polynomial over Z of 1-norm at most ``bound`` is zero, read
    from its ``value`` at 2^s.  Raises ``ArithmeticError`` unless
    2 bound < 2^s: then every coefficient is below 2^(s-1) in absolute
    value, and a nonzero such polynomial does not vanish at 2^s."""
    if 2 * bound >= 1 << s:
        raise ArithmeticError(f"a 1-norm bound of {bound} needs more than {s} bits")
    return not value


def _pack(family: FamilyId, k_max: int) -> tuple[int, dict]:
    """The family's `_packed` sequences, to index k_max at least.

    s is sized from the operands alone: ||den a_m||_1 and
    ||den d_x a_m||_1 times den, and ||den^2 c_m||_1 <= sum over i of
    ||den a_i||_1 ||den a_{m-i}||_1, since ||fg||_1 <= ||f||_1 ||g||_1."""
    hit = _packed.get(family)
    if hit is not None and len(hit[1]["a"][0]) > k_max:
        return hit
    nums, den = to_int_scaled([a_poly(family, m) for m in range(k_max + 1)])
    dnums = [[i * c for i, c in enumerate(num)][1:] for num in nums]
    na = [sum(map(abs, num)) for num in nums]
    norms = {"a": [den * n for n in na],
             "da": [den * sum(map(abs, d)) for d in dnums],
             "c": [_self_conv(na, m) for m in range(k_max + 1)]}
    s = _slot(max(map(max, norms.values())) << _HEADROOM)
    x = 1 << s
    a = [int_poly_hom_eval(num, x, 1) for num in nums]
    values = {"a": [den * v for v in a],
              "da": [den * int_poly_hom_eval(d, x, 1) for d in dnums],
              "c": [_self_conv(a, m) for m in range(k_max + 1)]}
    packed = _packed[family] = (s, {kind: (values[kind], norms[kind]) for kind in values})
    return packed


def _self_conv(v: list[int], m: int) -> int:
    """The sum of v_i v_{m-i} over i = 0..m, as C-level integer products."""
    h = (m + 1) // 2
    acc = 2 * sum(map(mul, v[:h], v[m:m - h:-1]))
    return acc if m & 1 else acc + v[m // 2] ** 2


def check_identity(iid: str, k_max: int) -> list[int]:
    """Indices k in 0..k_max where the identity FAILS (empty = all pass).

    The residual at k is one integer, den^2 times its value at X = 2^s:
    the sum over the terms of the coefficient at (k, X) times the packed
    a, c or d_x a at k + offset (`_pack`), which reach k_max plus the
    table's largest offset.  k fails iff that integer is nonzero."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    fam, terms = IDENTITIES[iid]
    top = max(offset for _fam, ts in IDENTITIES.values() for _t, _kind, offset in ts)
    s, seqs = _pack(fam, k_max + max(top, 0))
    bad = []
    for k in range(k_max + 1):
        value = bound = 0
        for table, kind, offset in terms:
            v, norm = _packed_seq(seqs, kind, k + offset)
            for j, row in enumerate(table):  # the coefficient of x^j times X^j v
                c = index_poly(row, k)
                value += (c * v) << (s * j)
                bound += abs(c) * norm
        if not _is_zero_at(value, bound, s):
            bad.append(k)
    return bad


def _packed_seq(seqs: dict, kind: str, j: int) -> tuple[int, int]:
    """(value, 1-norm bound) of the packed a_j ("a"), c_j ("c") or d_x a_j
    ("da"), with a_j = 0 for j < 0 and c_{-1} = 0, as `_seq` reads them."""
    if kind not in seqs:
        raise ValueError(f"unknown sequence kind {kind!r}")
    if j < 0:
        if kind == "c" and j < -1:
            raise ValueError(f"convolution index must be >= -1, got {j}")
        return 0, 0
    values, norms = seqs[kind]
    return values[j], norms[j]


# (family, shift, i, j) -> entry (i, j) of L A + A L^T, which does not
# depend on n: the largest n of the E/F check forms every entry once.
_ef_memo: dict[tuple[FamilyId, int, int, int], Poly] = {}


def _ef_entries(family: FamilyId, n: int) -> list[tuple[int, int, int, Poly]]:
    """(shift, i, j, entry (i, j) of L A + A L^T) for j <= i, with A = [a_{i+j}]
    and L = E_n (shift 0) or F_n (shift -1).

    E_n is lower triangular with (r, k) entry a_{r-k} and its first column
    halved; F_n is strictly lower with (r, k) entry a_{r-k-1}.  A is
    symmetric, so A L^T is the transpose of L A, and entry (i, j) is one
    `lin_comb` of row i of L against column j of A and row j against column i.
    """
    a = [a_poly(family, s) for s in range(2 * n + 1)]
    out = []
    for shift in (0, -1):
        for i in range(n + 1):
            for j in range(i + 1):
                key = (family, shift, i, j)
                v = _ef_memo.get(key)
                if v is None:
                    terms = []
                    for r, col in ((i, j), (j, i)):
                        if not shift:
                            terms.append((a[r] * Fraction(1, 2), a[col]))
                        for k in range(1, r + 1):  # a_{r-k} = E[r][k] or F[r][k - 1]
                            terms.append((a[r - k], a[k + shift + col]))
                    v = _ef_memo[key] = lin_comb(terms)
                out.append((shift, i, j, v))
    return out


def check_matrix_convolution_identities(family: FamilyId, n: int) -> bool:
    """[c_{i+j}] = E A + A E^T and [c_{i+j-1}] = F A + A F^T, entrywise."""
    for shift, i, j, v in _ef_entries(family, n):
        if v != conv_poly(family, i + j + shift):
            return False
    return True


# -- Table 1: trace transformation rules ----------------------------------------


# The Table-1 rules Tr(A^{-1} X) H_n = value, X = [x(i + j)], one row
# (name, kind, offset, value) each: x(s) is `_table1_x`, and the value sums,
# over its (symbol, row), the row (a polynomial in n, as in `forms`) times
# the symbol: H', H, K, M, N, a_0 H, a_0 K or a_1 H.
TABLE1 = (
    ("dx_an", "da", 0, (("dH", (1,)),)),
    ("n_an_minus1", "sa", -1, ()),
    ("an", "a", 0, (("H", (1, 1)),)),
    ("n_an", "sa", 0, (("H", (0, 1, 1)),)),
    ("c_nminus1", "c", -1, ()),
    ("cn", "c", 0, (("a0H", (1, 2)),)),
    ("a_nplus1", "a", 1, (("K", (1,)),)),
    ("n_a_nplus1", "sa", 1, (("K", (0, 2)),)),
    ("c_nplus1", "c", 1, (("a0K", (2,)), ("a1H", (0, 2)))),
    ("a_nplus2", "a", 2, (("M", (1,)), ("N", (1,)))),
    ("n_a_nplus2", "sa", 2, (("M", (-2, 2)), ("N", (0, 2)))),
)


def table1_rules(family: FamilyId, n: int) -> list[tuple[str, Callable[[int], Poly], Poly]]:
    """(name, x, value) for each row of `TABLE1` at n."""
    if n < 1:
        raise ValueError("trace rules need n >= 1 (M, N enter)")
    q = quartet(family, n)
    a0, a1 = a_poly(family, 0), a_poly(family, 1)
    symbols = dict(dH=q.H.derivative(), H=q.H, K=q.K, M=q.M, N=q.N,
                   a0H=a0 * q.H, a0K=a0 * q.K, a1H=a1 * q.H)
    return [(name, partial(_table1_x, family, kind, offset),
             lin_comb((index_poly(row, n), symbols[symbol]) for symbol, row in value))
            for name, kind, offset, value in TABLE1]


def _table1_x(family: FamilyId, kind: str, offset: int, s: int) -> Poly:
    """x(s) of a Table-1 row: s a_{s+offset} ("sa"), else `_seq` of its
    kind at s + offset."""
    if kind == "sa":
        return s * _seq(family, "a", s + offset)
    return _seq(family, kind, s + offset)


# family -> the adjugates of every leading block of the largest Hankel
# matrix [a_{i+j}] whose traces were summed (`hankel_checks.leading_adjugates`):
# every smaller n reads its adjugate off that one elimination.
_adjugates: dict[FamilyId, list] = {}


def _adjugate(family: FamilyId, n: int) -> list[list[list[int]]]:
    """adj([a_{i+j}]_{0..n}) over Z[x], its rows read from `int_hankel`.
    The n-block is the leading block of every larger [a_{i+j}], so it is
    read off the elimination made for the largest n yet; past that
    elimination's first row swap it is eliminated on its own."""
    adjs = _adjugates.get(family, [])
    if n < len(adjs) and adjs[n] is not None:
        return adjs[n]
    rows = int_hankel(family, n)
    if n >= len(adjs):
        adjs = _adjugates[family] = leading_adjugates(rows)
    return adjs[n] if adjs[n] is not None else int_adjugate(rows)


def trace_values(family: FamilyId, n: int) -> list[tuple[str, Poly, Poly]]:
    """(name, Tr(adj(A) X), stated value) for each Table-1 rule.

    Tr(adj(A) X) is the sum over s of x(s) times the s-th anti-diagonal sum
    of adj(A), read off one Gauss-Jordan elimination per family
    (`_adjugate`): the anti-diagonal sums add its integer entries, and each
    rule is one `lin_comb` over s.
    """
    rows = _adjugate(family, n)
    sums = []
    for s in range(2 * n + 1):
        acc: list[int] = []
        for i in range(max(0, s - n), min(s, n) + 1):
            int_poly_add_into(acc, rows[i][s - i])
        sums.append(from_int_scaled(acc, 1))
    return [(name, lin_comb((t, x(s)) for s, t in enumerate(sums)), expected)
            for name, x, expected in table1_rules(family, n)]
