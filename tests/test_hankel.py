import random
from fractions import Fraction
from math import prod

import pytest
from fraction_poly import ref
from reference_det import (
    POLY,
    RATIONAL,
    cofactor_adjugate,
    cramer_trace,
    det_cofactor,
    fraction_nullspace,
)

from hankelab.poly import InexactDivision, Poly, denominator_lcm
from hankelab.rat import Rat
import hankelab.hankel as hankel_mod
from hankelab.hankel import (
    INT,
    INT_POLY,
    VARIANTS,
    _variant_columns,
    adjugate,
    degree_bound,
    det_bareiss,
    det_fraction_free,
    dodgson_check,
    gauss_jordan,
    general_degree_det,
    hankel_det,
    hankel_det_at,
    hankel_matrix,
    make_degree_instance,
    quartet,
    variant_det,
    variant_det_at,
)
from hankelab.jet import JET, JetNotInvertible, int_jets
from hankelab.sequences import ALL_FAMILIES, F21, F31, FAEX, a_poly


def test_hankel_matrix_examples():
    assert hankel_matrix(F31, 0) == [[Poly([1])]]
    m = hankel_matrix(F31, 1)
    assert m == [[Poly([1]), Poly([4, 1])], [Poly([4, 1]), Poly([21, 6, 1])]]
    m5 = hankel_matrix(F31, 5)
    for i in range(6):
        for j in range(6):
            assert m5[i][j] == m5[j][i]


def test_det_constant_examples():
    rows = [[Poly([1]), Poly([2])], [Poly([3]), Poly([4])]]
    assert det_fraction_free(rows) == Poly([-2])
    rank1 = [[Poly([1]), Poly([0, 1])], [Poly([0, 1]), Poly([0, 0, 1])]]
    assert det_fraction_free(rank1).is_zero()


def test_det_on_hankel_examples():
    assert det_fraction_free(hankel_matrix(F31, 1)) == Poly([5, -2])
    assert hankel_det(F31, 1) == Poly([5, -2])
    assert hankel_det(F21, 1) == Poly([1, -2])


def random_poly_matrix(rng, size, max_deg=3, max_den=1):
    return [
        [
            Poly(
                [
                    Fraction(rng.randint(-4, 4), rng.randint(1, max_den))
                    for _ in range(rng.randint(1, max_deg + 1))
                ]
            )
            for _ in range(size)
        ]
        for _ in range(size)
    ]


def vanish_leading_minor(rng, m):
    # row 1 := c * row 0 on the first two columns, so the 2x2 leading minor
    # is zero and elimination must swap rows at its second pivot
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    m[1][0], m[1][1] = c * m[0][0], c * m[0][1]


def cofactor_over_fractions(m):
    """The cofactor expansion over the Fraction-tuple reference polynomials,
    which share no arithmetic with Poly."""
    return det_cofactor([[ref(e) for e in row] for row in m])


def test_bareiss_agrees_with_cofactor_oracle():
    rng = random.Random(47)
    for _ in range(200):
        size = rng.randint(1, 5)
        m = random_poly_matrix(rng, size)
        assert det_fraction_free(m) == det_cofactor(m)
        assert ref(det_fraction_free(m)) == cofactor_over_fractions(m)
    # rational coefficients, with forced zero leading pivots, against both
    # the cofactor expansion and Fraction Bareiss over Poly
    rng = random.Random(48)
    for trial in range(200):
        size = rng.randint(1, 5)
        m = random_poly_matrix(rng, size, max_den=6)
        if trial % 2 and size >= 2:
            vanish_leading_minor(rng, m)
        if trial % 3 == 0:
            m[0][0] = Poly.zero()
        want = det_cofactor(m)
        assert det_bareiss(m, POLY) == want
        assert det_fraction_free(m) == want
        assert ref(want) == cofactor_over_fractions(m)


def test_det_rational():
    # a matrix of rationals: Bareiss over Fraction, and over Z on rows
    # scaled to integers, against the cofactor expansion
    rows = [[Rat(1), Rat(1, 2)], [Rat(1, 3), Rat(1, 4)]]
    assert det_bareiss(rows, RATIONAL) == Rat(1, 12)
    assert det_bareiss([[2, 1], [4, 3]], INT) == 2  # rows scaled by 2 and 12
    rng = random.Random(49)
    for trial in range(200):
        size = rng.randint(1, 6)
        m = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(size)]
            for _ in range(size)
        ]
        if trial % 2 and size >= 2:
            vanish_leading_minor(rng, m)
        want = det_cofactor(m)
        assert det_bareiss(m, RATIONAL) == want
        scales = [denominator_lcm(row) for row in m]
        int_rows = [[int(c * s) for c in row] for row, s in zip(m, scales)]
        assert Rat(det_bareiss(int_rows, INT), prod(scales)) == want


def test_integer_kernel_tripwire():
    assert INT.cross(-12, 1, 0, 0, 4) == -3
    assert INT.cross(3, 5, 2, 4, None) == 7
    with pytest.raises(InexactDivision):
        INT.cross(7, 1, 0, 0, 2)


def test_quartet_examples():
    q = quartet(F31, 1)
    assert q.H == Poly([5, -2])
    assert q.K == Poly([36, -9, -2])
    q0 = quartet(F31, 0)
    assert q0.H == Poly([1])
    assert q0.K == a_poly(F31, 1)
    assert q0.M is None and q0.N is None


def test_quartet_column_layouts():
    # K, M, N from their defining layouts via the cofactor oracle at n = 2
    fam, n = F31, 2
    a = lambda i: a_poly(fam, i)
    k_mat = [[a(0), a(1), a(3)], [a(1), a(2), a(4)], [a(2), a(3), a(5)]]
    m_mat = [[a(0), a(3), a(2)], [a(1), a(4), a(3)], [a(2), a(5), a(4)]]
    n_mat = [[a(0), a(1), a(4)], [a(1), a(2), a(5)], [a(2), a(3), a(6)]]
    q = quartet(fam, n)
    assert q.K == det_cofactor(k_mat)
    assert q.M == det_cofactor(m_mat)
    assert q.N == det_cofactor(n_mat)


def test_transpose_invariance():
    m = hankel_matrix(F21, 4)
    mt = [[m[j][i] for j in range(5)] for i in range(5)]
    assert det_fraction_free(m) == det_fraction_free(mt)


def test_dodgson_all_families():
    for fam in ALL_FAMILIES:
        for n in range(1, 7):
            assert dodgson_check(fam, n), (fam, n)
    with pytest.raises(ValueError):
        dodgson_check(F31, 0)


def test_point_evaluation_consistency():
    # H_1 of (3,1) is 5 - 2x and H_1 of (2,1) is 1 - 2x: at 5/2 and 1/2 the
    # second leading pivot of every n >= 2 matrix of those families vanishes
    assert hankel_det(F31, 1)(Rat(5, 2)) == 0
    assert hankel_det(F21, 1)(Rat(1, 2)) == 0
    points = [Rat(0), Rat(3, 7), Rat(-2), Rat(5, 2), Rat(1, 2), Rat(-11, 5)]
    for fam in ALL_FAMILIES:
        for n in range(0, 6):
            q = quartet(fam, n)
            names = [name for name in VARIANTS if getattr(q, name) is not None]
            assert names == list(VARIANTS if n else ("H", "K"))
            for x0 in points:
                assert hankel_det_at(fam, n, x0) == q.H(x0), (fam, n, x0)
                for name in names:
                    want = getattr(q, name)(x0)
                    assert variant_det_at(fam, n, name, x0) == want, (fam, n, name, x0)


def test_point_values_with_rational_coefficients(monkeypatch):
    # every family's a_k has integer coefficients and degree <= k, so
    # substitute a sequence with growing denominators and degree 2: the
    # entry scale D grows with n and the cached ladders are rebuilt
    def seq(_family, k):
        return Poly([Fraction(k + 1, 3), Fraction(-1, k + 2), Fraction(k, 5)])

    monkeypatch.setattr(hankel_mod, "a_poly", seq)
    monkeypatch.setattr(hankel_mod, "_ladders", {})
    for n in range(0, 5):
        q = quartet(F31, n)
        rows = [[seq(F31, i + j) for j in range(n + 1)] for i in range(n + 1)]
        assert q.H == det_cofactor(rows)
        for x0 in (Rat(0), Rat(2, 3), Rat(-7, 4)):
            for name in VARIANTS:
                sym = getattr(q, name)
                if sym is not None:
                    assert variant_det_at(F31, n, name, x0) == sym(x0), (n, name, x0)
    # n = 0 needs D = 60; the 7 and 11 of a_5 and a_9 came later and
    # rebuilt the ladders, at 2/3 also with the powers of 3 that a_0 and
    # a_1, of degree above k, need
    scales = {key[1]: scale for key, (scale, _) in hankel_mod._ladders.items()}
    assert scales[None] % (7 * 11) == 0 and scales[Rat(2, 3)] % (9 * 7 * 11) == 0


def outcome(thunk):
    try:
        return thunk()
    except JetNotInvertible:
        return JetNotInvertible


def test_ladder_extension_matches_single_eliminations(monkeypatch):
    # n asked out of order, so each cached ladder grows in place and is read
    # below its top; every H/K/M/N equals det_bareiss on its single matrix
    from test_jet import POINTS

    monkeypatch.setattr(hankel_mod, "_ladders", {})
    cases = [(None, INT_POLY)]
    cases += [(x0, INT) for x0 in (Rat(0), Rat(3, 7), Rat(5, 2), Rat(1, 2))]
    cases += [(x0, JET) for x0 in POINTS]
    vanishing = ((F31, Rat(5, 2)), (F21, Rat(1, 2)))  # where H_1 is zero
    for fam in ALL_FAMILIES:
        a = [a_poly(fam, k) for k in range(19)]
        for x0, ring in cases:
            for n in (5, 2, 8, 3, 0):
                names = VARIANTS if n else ("H", "K")
                for name in names:
                    cols = _variant_columns(n, name)
                    if ring is INT_POLY:
                        want = det_fraction_free([[a[c + i] for c in cols] for i in range(n + 1)])
                        assert variant_det(fam, n, name) == want, (fam, n, name)
                    elif ring is INT:
                        rows = [[a[c + i](x0) for c in cols] for i in range(n + 1)]
                        want = det_bareiss(rows, RATIONAL)
                        assert variant_det_at(fam, n, name, x0) == want, (fam, n, name, x0)
                    else:
                        jets = int_jets(a, x0)
                        rows = [[jets[c + i] for c in cols] for i in range(n + 1)]
                        want = outcome(lambda: det_bareiss(rows, JET))
                        got = outcome(
                            lambda: hankel_mod.cached_ladder(fam, x0, JET, n)[1].det(n, name)
                        )
                        assert got == want, (fam, n, name, x0)
            if (fam, x0) in vanishing and ring is not INT_POLY:
                # the ladder holds n <= 1, and the larger n came from the
                # single eliminations
                assert len(hankel_mod._ladders[fam, x0, ring][1].rows) == 2


def test_dodgson_fails_where_the_ladder_is_wrong(monkeypatch):
    # dodgson takes M_n and H_{n-1}, H_{n+1} from eliminations of their own,
    # so a K_n off by one in the ladder fails that n and no other
    from hankelab.checks import run_check

    read = hankel_mod.Ladder.det

    def off_by_one(lad, n, variant):
        value = read(lad, n, variant)
        if lad.ring is INT_POLY and n == 3 and variant == "K":
            return [value[0] + 1] + value[1:]
        return value

    monkeypatch.setattr(hankel_mod.Ladder, "det", off_by_one)
    rows = run_check("dodgson", F31, range(1, 8))
    assert [(r.n, r.status) for r in rows if r.status != "pass"] == [(3, "fail")]
    assert len(rows) == 7


def test_zero_pivot_swap():
    # leading principal minor vanishes; a row swap must rescue the run
    rows = [
        [Poly.zero(), Poly([1])],
        [Poly([1]), Poly([1])],
    ]
    assert det_fraction_free(rows) == Poly([-1])


def test_singular_matrix_gives_zero():
    rows = [[Poly([1]), Poly([2])], [Poly([2]), Poly([4])]]
    assert det_fraction_free(rows).is_zero()


def _trace(adj, x):
    size = len(adj)
    return sum((adj[i][j] * x[j][i] for i in range(size) for j in range(size)), Poly.zero())


def test_trace_adjugate_product_identity_matrix():
    a = hankel_matrix(F31, 3)
    # Tr(A^{-1} A) * det A = (n+1) det A
    got = _trace(adjugate(a), a)
    assert got == 4 * hankel_det(F31, 3)
    assert got == cramer_trace(a, a)


def test_adjugate_zero_leading_pivot():
    # the leading entry vanishes: the elimination swaps rows, and the sign
    # it returns must undo the swap
    rows = [
        [Poly.zero(), Poly([1]), Poly([2, 1])],
        [Poly([1]), Poly([1]), Poly([0, 3])],
        [Poly([0, 1]), Poly([5]), Poly([1])],
    ]
    assert adjugate(rows) == cofactor_adjugate(rows)
    ints = [[0, 1, 2], [1, 1, 3], [4, 5, 1]]
    reduced, pivots, sign = gauss_jordan(ints, INT)
    assert sign == -1 and pivots == [0, 1, 2]
    d = sign * det_cofactor(ints)
    assert reduced == [
        [d if i == j else 0 for j in range(3)] for i in range(3)
    ]


def test_adjugate_rows_with_different_denominators():
    # each row is scaled to Z[x] by its own lcm; the adjugate divides the
    # product of the scales back out once
    rng = random.Random(71)
    for _ in range(30):
        size = rng.randint(1, 4)
        rows = [
            [
                Poly([Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 7])) for _ in range(rng.randint(0, 3))])
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        if det_cofactor(rows).is_zero():
            with pytest.raises(ValueError, match="singular matrix"):
                adjugate(rows)
            continue
        assert adjugate(rows) == cofactor_adjugate(rows)


def test_adjugate_of_a_singular_matrix_raises():
    with pytest.raises(ValueError, match="singular matrix"):
        adjugate([[Poly([1]), Poly([2])], [Poly([2]), Poly([4])]])
    with pytest.raises(ValueError, match="singular matrix"):
        adjugate([[Poly.zero(), Poly([0, 1])], [Poly.zero(), Poly([1])]])


def test_gauss_jordan_integer_invariants():
    # every pivot ends equal to the last, d = sign * det on the leading
    # square, and the reduced rows span the same row space: as many pivots
    # as the rank, each reduced row orthogonal to the Fraction nullspace
    rng = random.Random(29)
    for _ in range(200):
        size = rng.randint(1, 5)
        width = size + rng.randint(0, 3)
        rank = rng.randint(0, size)
        left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(size)]
        right = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(rank)]
        rows = [
            [sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(width)]
            for i in range(size)
        ]
        reduced, pivots, sign = gauss_jordan(rows, INT)
        null = fraction_nullspace(rows, width)
        assert len(pivots) == width - len(null)
        assert all(sum(u * v for u, v in zip(row, vec)) == 0 for row in reduced for vec in null)
        if not pivots:
            assert all(v == 0 for row in reduced for v in row)
            continue
        d = reduced[len(pivots) - 1][pivots[-1]]
        for r, pc in enumerate(pivots):
            assert [row[pc] for row in reduced] == [d if i == r else 0 for i in range(size)]
        assert all(v == 0 for row in reduced[len(pivots) :] for v in row)
        square = [row[:size] for row in rows]
        if pivots[:size] == list(range(size)):
            assert d == sign * det_cofactor(square)
        else:
            assert det_cofactor(square) == 0


def test_degree_instance_examples():
    # the (3,1) Hankel determinant as a degree instance: p_i = q_i = i,
    # alpha_i = 3i + 1, beta_j = 3j, gamma = -1
    inst = make_degree_instance(
        [0, 1, 2, 3, 4],
        [0, 1, 2, 3, 4],
        [3 * i + 1 for i in range(5)],
        [3 * j for j in range(5)],
        -1,
    )
    det = general_degree_det(inst)
    assert degree_bound(inst) == 4
    assert det.degree <= 4
    assert det == hankel_det(F31, 4)


def test_degree_instance_trivial_cases():
    inst = make_degree_instance([2], [2], [5], [0], -1)
    assert degree_bound(inst) == 4
    assert general_degree_det(inst).degree <= 4
    # negative p_i + q_j exercises the empty-sum-zero entry
    inst2 = make_degree_instance([-2, 1], [0, 1], [1, 2], [0, 1], 1)
    general_degree_det(inst2)  # must not raise


def test_easylemma_shape_random():
    # entries sum a_{p_i+q_j-m} x^m for a fixed scalar sequence a
    rng = random.Random(53)
    for _ in range(50):
        size = rng.randint(1, 4)
        p = [rng.randint(0, 5) for _ in range(size)]
        q = [rng.randint(0, 5) for _ in range(size)]
        seq = [Fraction(rng.randint(-6, 6)) for _ in range(16)]
        rows = []
        for i in range(size):
            row = []
            for j in range(size):
                bound = p[i] + q[j]
                row.append(Poly([seq[bound - m] for m in range(bound + 1)]))
            rows.append(row)
        det = det_fraction_free(rows)
        bound = max(max(p) + max(q) - (size - 1), 0)
        assert det.degree <= bound


def test_degree_at_most_n_families():
    for fam in ALL_FAMILIES:
        cap = 9 if fam == FAEX else 8
        for n in range(0, 9):
            limit = n + 1 if fam == FAEX else n
            assert hankel_det(fam, n).degree <= limit, (fam, n)


def test_det_with_replaced_column():
    # Cramer: det A with column 1 replaced by b is entry 1 of adj(A) b, and
    # for the column (a_2, a_3) of F31 that is K_1
    a = hankel_matrix(F31, 1)
    col = [a_poly(F31, 2), a_poly(F31, 3)]
    adj = adjugate(a)
    got = adj[1][0] * col[0] + adj[1][1] * col[1]
    assert got == quartet(F31, 1).K
    assert got == det_cofactor([[a[0][0], col[0]], [a[1][0], col[1]]])
