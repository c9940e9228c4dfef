"""The identity code only checks run: the point relations, the Table-1
trace check, and the third-identity weight machinery.

The point relations assert K, M and N as multiples of H at special points,
and squared-ratio recursions of H, each read off the family's ladder over
Z at the point.  The weight machinery reads the annihilating weights off
the closed generating-function denominator that `series.gf_fraction`
states, one code path for (3,1) and (2,1), and compares them with the
explicit closed forms.  `identities.check_relation` imports this module on
its first point relation, and the relation screen never does.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import comb, factorial, gcd, prod

from . import series
from .forms import term_value
from .hankel import INT, hankel_det_at, quartet, variant_det_at
from .hankel_checks import gauss_jordan
from .identities import _RELATIONS, RelationId, _require_n, pnqnrn_21, pnqnrn_31
from .lemmas import trace_values
from .poly import (
    Poly, denominator_lcm, from_int_scaled, int_poly_hom_eval, lin_comb, to_int_scaled,
)
from .sequences import F21, F31, FamilyId, a_poly


# ---------------------------------------------------------------------------
# Point relations
# ---------------------------------------------------------------------------


# rid -> (family, x0, {name: multiplier}), asserting V(x0) = mult(n) * H(x0)
# for each V named; R_CREC asserts only its recursion.  A multiplier is a
# hypergeometric term in n times a polynomial in n, one `forms` row.
_N = ("", 1, 0, 0)
_2N1 = ("", 2, 0, 1)
_4N1, _4N3, _4N5 = ("", 4, 0, 1), ("", 4, 0, 3), ("", 4, 0, 5)
_POINT_SPECS = {
    RelationId.R_CREC: (F31, Fraction(3), {}),
    RelationId.R_X3: (F31, Fraction(3), {
        "K": ((3, 2, (), (_4N3,)), (14, 19, 9)),
        "N": ((3, 8, (), (_4N3, _4N5)), (1920, 4144, 3605, 1512, 243)),
        "M": ((-3, 8, (_N,), (_4N1, _4N3)), (58, 559, 540, 243))}),
    RelationId.R_X3HALF: (F31, Fraction(3, 2), {
        "K": ((3, 2, (), (_4N3,)), (11, 22, 9)),
        "N": ((3, 8, (), (_4N3, _4N5)), (1290, 3934, 4031, 1674, 243)),
        "M": ((-3, 8, (_N,), (_4N1, _4N3)), (118, 547, 702, 243))}),
    RelationId.R_X3QUARTER: (F31, Fraction(3, 4), {
        "K": ((3, 4, (), (_4N3,)), (19, 38, 18)),
        "N": ((3, 16, (), (_4N3, _4N5)), (2085, 6290, 6724, 3024, 486)),
        "M": ((-3, 8, (_N,), (_4N1, _4N3)), (31, 316, 540, 243))}),
    RelationId.R_21_X0: (F21, Fraction(0), {
        "K": ((1, 1, (), (_2N1,)), (3, 8, 4)),
        "N": ((1, 1, (), (_2N1, _2N1)), (10, 49, 78, 44, 8)),
        "M": ((-1, 1, (), ()), (0, 3, 2))}),
    RelationId.R_21_X2: (F21, Fraction(2), {
        "K": ((1, 1, (), (_2N1,)), (5, 8, 4)),
        "N": ((1, 1, (), (_2N1,)), (22, 33, 20, 4)),
        "M": ((-1, 1, (_N,), (_2N1,)), (7, 8, 4))}),
}

# Squared-ratio recursions H_{n-1} H_{n+1} = ratio * H_n^2 at the three
# special points of the (3,1) family, each ratio a hypergeometric term.
_RATIO_DEN = (_4N1, _4N3, _4N3, _4N5)
_RECURSION_RATIOS = {
    RelationId.R_CREC: (9, 4, (("", 3, 0, 4), ("", 3, 0, 5), ("", 6, 0, -1), ("", 6, 0, 1)),
                        _RATIO_DEN),
    RelationId.R_X3HALF: (9, 4, (("", 3, 0, 2), ("", 3, 0, 4), ("", 6, 0, 1), ("", 6, 0, 5)),
                          _RATIO_DEN),
    RelationId.R_X3QUARTER: (9, 4, (("", 3, 0, 1), ("", 3, 0, 2), ("", 6, 0, 5), ("", 6, 0, 7)),
                             _RATIO_DEN),
}


def relation_family(rid: RelationId) -> FamilyId:
    """The family whose determinants the relation reads, symbolic or point."""
    return (_RELATIONS.get(rid) or _POINT_SPECS[rid])[0]


def relation_point_ok(rid: RelationId, n: int) -> bool:
    """Point relations: K/N/M multiples of H, and the squared recursions."""
    _require_n(rid, n)
    fam, x0, mults = _POINT_SPECS[rid]
    h = hankel_det_at(fam, n, x0)
    for name, (term, poly) in mults.items():
        mult = term_value(term, n) * int_poly_hom_eval(poly, n, 1)
        if variant_det_at(fam, n, name, x0) != mult * h:
            return False
    if rid in _RECURSION_RATIOS:
        hm = hankel_det_at(fam, n - 1, x0)
        hp = hankel_det_at(fam, n + 1, x0)
        if hm * hp != term_value(_RECURSION_RATIOS[rid], n) * h * h:
            return False
    return True


# ---------------------------------------------------------------------------
# Table-1 trace rules
# ---------------------------------------------------------------------------


def transform_rules(family: FamilyId, n: int) -> list[tuple[str, bool]]:
    """Table-1 rules as trace identities Tr(A^{-1} X) H_n = stated value.

    The rules and their traces are `lemmas.table1_rules` and
    `lemmas.trace_values`.
    """
    return [(name, got == want) for name, got, want in trace_values(family, n)]


# ---------------------------------------------------------------------------
# Third-identity weight machinery
# ---------------------------------------------------------------------------


class WeightError(AssertionError):
    """A structural property of the weight construction failed."""


class WeightSolution(namedtuple("WeightSolution", "family n q0 q2 weights scale")):
    """The third-identity weights of (family, n).

    q0: tuple of Fraction y-coefficients, degree n+1; q2: den*Q0 through y^{n+2},
    with den the closed generating-function denominator, as Poly-in-x
    coefficients by power of y; weights: w_{n,0} .. w_{n,n+2}, Q2 reversed;
    scale: (w_{n,n+2}, w_{n,n+1}, w_{n,n}) = scale*(p,q,r).
    """

    __slots__ = ()


def rational_nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[int]]:
    """Primitive integer nullspace basis of a rational matrix, one vector per
    free column f, positive at f: Gauss-Jordan over Z of the integer-scaled
    rows leaves every pivot d, so d at f and minus each pivot row's entry at
    f in its pivot column annihilate the rows.  Each row is first made
    primitive with a positive leading entry, and zero and repeated rows are
    dropped: the row space, and so the basis, is unchanged."""
    int_rows: dict[tuple[int, ...], None] = {}
    for row in rows:
        scale = denominator_lcm(row)
        ints = [int(v * scale) for v in row]
        g = gcd(*ints)
        if g:
            g = g if next(v for v in ints if v) > 0 else -g
            int_rows.setdefault(tuple(v // g for v in ints))
    reduced, pivots, _ = gauss_jordan(list(int_rows), INT)
    d = reduced[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = d
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[free]
        g = gcd(*vec) if d > 0 else -gcd(*vec)
        basis.append([v // g for v in vec])
    return basis


# (family, n) -> WeightSolution.  The solution is immutable (a frozen record
# of tuples of Fractions and Polys), so the weights, explicit-weights and ciden
# checks share one per process.  A construction that raises is not kept.
_weight_memo: dict[tuple[FamilyId, int], WeightSolution] = {}


def weight_nullspace(family: FamilyId, n: int) -> WeightSolution:
    """Read Q0, Q2 and the weights off the closed generating-function
    denominator den of `series.gf_denominator`.

    Q0 (degree n+1) is fixed by demanding the y^{n+3}..y^{2n+3} coefficients
    of den*Q0 vanish, one equation per power of y and of x; the nullspace
    must be exactly 1-dimensional.  Q0 is normalized so its lowest-index
    nonzero coefficient is 1, and Q2 is den*Q0 through y^{n+2}.  Built once
    per (family, n) in a process, every structural check included.
    """
    key = (family, n)
    sol = _weight_memo.get(key)
    if sol is None:
        sol = _weight_memo.setdefault(key, _solve_weights(family, n))
    return sol


def _solve_weights(family: FamilyId, n: int) -> WeightSolution:
    if n < 1:
        raise ValueError("weight construction needs n >= 1")
    form = _weight_form(family)
    order = 2 * n + 3
    den = series.gf_denominator(series.closed_form_for(family), family, order)
    # den over Z, one width: d[k][e] is scale times the y^k x^e coefficient
    d, scale = to_int_scaled(den.coeffs)
    width = max(map(len, d))
    d = [c + [0] * (width - len(c)) for c in d]
    ncols = n + 2
    # the y^r x^e coefficient of den*Q0, one row per r = n+3..2n+3 and e
    rows = [
        [d[r - i][e] for i in range(ncols)]
        for r in range(n + 3, order + 1)
        for e in range(width)
    ]
    basis = rational_nullspace(rows, ncols)
    if len(basis) != 1:
        raise WeightError(
            f"nullspace dimension {len(basis)} != 1 for family {family} n={n}"
        )
    vec = basis[0]
    lead = next(v for v in vec if v != 0)
    q0 = tuple(Fraction(v, lead) for v in vec)
    # den*Q0 through y^{2n+3}, times scale*lead: Q2 is its part through y^{n+2}
    q0_series = [
        [sum(vec[i] * d[k - i][e] for i in range(min(k, n + 1) + 1)) for e in range(width)]
        for k in range(order + 1)
    ]
    for k in range(n + 3, order + 1):
        if any(q0_series[k]):
            raise WeightError(f"truncation equation failed at y^{k}")
    q2 = tuple(from_int_scaled(c, scale * lead) for c in q0_series[: n + 3])
    weights = q2[::-1]

    for i in range(n + 1):
        if lin_comb((w, a_poly(family, i + j)) for j, w in enumerate(weights)):
            raise WeightError(f"weight annihilation failed at row i={i}")

    scale = _proportionality_scale(
        (weights[n + 2], weights[n + 1], weights[n]), form.anchor(n)
    )
    if scale is None:
        raise WeightError("top-three weights not proportional to (p_n, q_n, r_n)")

    # The parametric solution (C_0, C_1, C_2)(Q0) = alpha * q0_params at n.
    c0, c1, c2 = (int_poly_hom_eval(row, n, 1) for row in form.q0_params)
    alpha = q0[0] / c0
    if q0[1] != c1 * alpha:
        raise WeightError("C_1(Q0) parametric form mismatch")
    if q0[2] != c2 * alpha:
        raise WeightError("C_2(Q0) parametric form mismatch")

    return WeightSolution(
        family=family, n=n, q0=q0, q2=q2, weights=weights, scale=scale
    )


def _proportionality_scale(
    got: Sequence[Poly], want: Sequence[Poly]
) -> Fraction | None:
    scale = None
    for g, w in zip(got, want):
        if w.is_zero():
            if not g.is_zero():
                return None
            continue
        # Candidate scale from the leading coefficients, then exact match.
        cand = g.coefficient(int(w.degree)) / w.leading if not g.is_zero() else Fraction(0)
        if scale is None:
            scale = cand
        if g != w * scale:
            return None
    return scale


def ciden_check(family: FamilyId, n: int) -> bool:
    """C_0(Q2) N_n + C_1(Q2) K_n + C_2(Q2) H_n = 0 (a nontrivial identity)."""
    sol = weight_nullspace(family, n)
    q = quartet(family, n)
    return lin_comb(zip(sol.q2, (q.N, q.K, q.H))).is_zero()


# -- explicit closed-form weights -------------------------------------------


def explicit_weights_21(n: int) -> list[Poly]:
    """The (2,1) closed-form weights, all indices j = 0..n+2."""
    out = []
    for j in range(n + 3):
        sign = -1 if (n + j) % 2 else 1
        # C(n+j+1, k) for k = n-j .. n-j+2, zero where k < 0
        c = [comb(n + j + 1, k) if k >= 0 else 0 for k in range(n - j, n - j + 3)]
        const = 2 * c[1] + c[2]
        lin = 2 * c[0] + c[1]
        out.append(Poly([sign * const, sign * lin]))
    return out


# The double factorial m!! is prod(range(m, 0, -2)); every m below is >= 3,
# and every binomial top is >= 0, since 2i <= n + 2.
def _u31(n: int, i: int, j: int) -> Fraction:
    f = factorial
    num = (
        3
        * 2 ** (i + 1)
        * (4 * n + 3)
        * (4 * n + 5)
        * comb(n, 2 * i)
        * comb(j + 2 * (n - i + 1) + 1, 2 * (n - i - j + 1) + 1)
        * f(2 * n - i + 2)
        * prod(range(4 * n - 2 * i + 5, 0, -2))
        * prod(range(6 * n + 7, 0, -2))
    )
    den = (
        (2 * i + 1)
        * (3 * j + 1)
        * (3 * j + 2)
        * (2 * i - j - 2 * n - 3)
        * (2 * i - j - 2 * n - 2)
        * f(2 * n + 1)
        * prod(range(4 * n + 5, 0, -2))
        * prod(range(6 * n - 4 * i + 7, 0, -2))
    )
    return Fraction(num, den)


def _v31(n: int, i: int, j: int) -> Fraction:
    f = factorial
    num = (
        3
        * 2 ** (i + 3)
        * (2 * n - 2 * i - 2 * j + 5)
        * (4 * n + 3)
        * (4 * n + 5)
        * comb(n + 1, 2 * i)
        * comb(j + 2 * (n - i + 2) + 1, 2 * (n - i - j + 2) + 1)
        * f(2 * n - i + 3)
        * prod(range(4 * n - 2 * i + 5, 0, -2))
        * prod(range(6 * n + 7, 0, -2))
    )
    den = (
        (3 * j + 1)
        * (3 * j + 2)
        * (2 * i - j - 2 * n - 5)
        * (2 * i - j - 2 * n - 4)
        * (2 * i - j - 2 * n - 3)
        * f(2 * n + 2)
        * prod(range(4 * n + 5, 0, -2))
        * prod(range(6 * n - 4 * i + 9, 0, -2))
    )
    return Fraction(num, den)


def _abc31(n: int, i: int, j: int) -> Poly:
    alpha = (
        3
        * (9 * j * (j + 1) + 2)
        * (
            12 * i * i
            + 6 * (3 * j - 4 * n - 5) * i
            + 6 * (n + 1) * (2 * n + 3)
            - j * (18 * n + 19)
        )
    )
    beta = -3 * (3 * j + 2) * (
        24 * i**3
        + 8 * (12 * j - 9 * n - 8) * i * i
        + 2 * (36 * n * n - 96 * j * n + 64 * n + 9 * j * (5 * j - 11) + 23) * i
        - 2 * (n + 1) * (2 * n + 3) * (6 * n + 1)
        - j * j * (90 * n + 89)
        + 3 * j * (32 * n * n + 66 * n + 33)
    )
    gamma = (
        2
        * (2 * i + 2 * j - 2 * n - 3)
        * (i + j - n - 1)
        * (
            36 * i * i
            + 6 * (9 * j - 12 * n - 5) * i
            + 6 * n * (6 * n + 5)
            - 3 * j * (18 * n + 13)
            + 2
        )
    )
    return Poly([alpha, beta, gamma])


def _def31(n: int, i: int, j: int) -> Poly:
    delta = (
        3
        * (9 * j * (j + 1) + 2)
        * (
            6 * i * i
            + 3 * (3 * j - 4 * n - 7) * i
            + 3 * (n + 2) * (2 * n + 3)
            - j * (9 * n + 14)
        )
    )
    eps = -3 * (3 * j + 2) * (
        12 * i**3
        + (48 * j - 36 * n - 50) * i * i
        + (45 * j * j - 3 * (32 * n + 49) * j + 4 * (n + 1) * (9 * n + 16)) * i
        - 2 * (n + 2) * (2 * n + 3) * (3 * n + 2)
        - j * j * (45 * n + 67)
        + 3 * j * (n * (16 * n + 49) + 37)
    )
    theta = (
        2
        * (2 * i + 2 * j - 2 * n - 3)
        * (i + j - n - 2)
        * (
            18 * n * n
            - 9 * (4 * i + 3 * j) * n
            + 33 * n
            - 33 * j
            + 3 * i * (6 * i + 9 * j - 11)
            + 13
        )
    )
    return Poly([delta, eps, theta])


def explicit_weights_31(n: int) -> list[Poly]:
    """The conjectured (3,1) closed-form weights, all indices j = 0..n+2."""
    out = []
    half_cap = n // 2 + 1
    for j in range(n + 3):
        pairs = []
        for i in range(0, min(n + 1 - j, half_cap) + 1):
            pairs.append((_u31(n, i, j), _abc31(n, i, j)))
        for i in range(0, min(n + 2 - j, half_cap) + 1):
            pairs.append((_v31(n, i, j), _def31(n, i, j)))
        out.append(lin_comb(pairs))
    return out


# family -> the anchor weights (p_n, q_n, r_n), the parametric (C_0, C_1,
# C_2)(Q0) up to one scalar, as polynomials in n, and the explicit
# closed-form weights.
WeightForm = namedtuple("WeightForm", "anchor q0_params explicit")
_WEIGHT_FORMS = {
    F31: WeightForm(pnqnrn_31, ((120, 256, 128), (-360, -1164, -1236, -432),
                                (0, 150, 1029, 1620, 729)), explicit_weights_31),
    F21: WeightForm(pnqnrn_21, ((1,), (-2, -2), (0, 1, 2)), explicit_weights_21),
}


def _weight_form(family: FamilyId) -> WeightForm:
    form = _WEIGHT_FORMS.get(family)
    if form is None:
        raise ValueError("weights are constructed for the (3,1) and (2,1) families")
    return form


def explicit_weights(family: FamilyId, n: int) -> list[Poly]:
    return _weight_form(family).explicit(n)


def explicit_weights_match(family: FamilyId, n: int) -> tuple[bool, str]:
    """Compare closed-form weights with the nullspace weights up to one scalar.

    A mismatch is reported, not raised: the closed (3,1) form is conjectural
    in its source.
    """
    sol = weight_nullspace(family, n)
    explicit = explicit_weights(family, n)
    scale = _proportionality_scale(list(sol.weights), explicit)
    if scale is None:
        bad = [
            j
            for j in range(n + 3)
            if (sol.weights[j].is_zero()) != (explicit[j].is_zero())
        ]
        return False, f"no global scalar matches (structurally off at j={bad})"
    return True, f"proportional with scale {scale}"
