import random
from fractions import Fraction
from math import prod

import pytest
from fraction_poly import ref
from reference_identities import binom
from reference_det import (
    POLY,
    RATIONAL,
    adjugate,
    cofactor_adjugate,
    cramer_trace,
    det_cofactor,
    fraction_nullspace,
    full_row_ladder,
)

from hankelab.poly import InexactDivision, Poly, denominator_lcm, from_int_scaled
import hankelab.hankel as hankel_mod
import hankelab.hankel_checks as checks_mod
import hankelab.lemmas as lemmas_mod
from hankelab.hankel import (
    INT,
    INT_POLY,
    VARIANTS,
    _variant_columns,
    det_bareiss,
    det_fraction_free,
    hankel_det,
    hankel_det_at,
    hankel_matrix,
    int_hankel,
    quartet,
    variant_det,
    variant_det_at,
)
from hankelab.hankel_checks import (
    degree_bound,
    dodgson_check,
    gauss_jordan,
    general_degree_det,
    make_degree_instance,
)
from hankelab.jet import JET, JetNotInvertible, int_jets
from hankelab.sequences import ALL_FAMILIES, F21, F31, FAEX, FamilyId, a_poly


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
    rows = [[Fraction(1), Fraction(1, 2)], [Fraction(1, 3), Fraction(1, 4)]]
    assert det_bareiss(rows, RATIONAL) == Fraction(1, 12)
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
        assert Fraction(det_bareiss(int_rows, INT), prod(scales)) == want


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
    assert hankel_det(F31, 1)(Fraction(5, 2)) == 0
    assert hankel_det(F21, 1)(Fraction(1, 2)) == 0
    points = [Fraction(0), Fraction(3, 7), Fraction(-2), Fraction(5, 2), Fraction(1, 2), Fraction(-11, 5)]
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


def test_every_entry_is_an_integer_polynomial_of_degree_at_most_k():
    # what lets the ladders' entries be a_k itself, and q^k a_k(p/q) or its
    # integer jet at a point: every family's a_k and several more (beta,
    # alpha) families' have denominator 1 and degree <= k
    more = [FamilyId("binom", b, a) for b, a in ((1, 0), (2, 0), (2, -3), (4, 1), (5, 7), (7, -2))]
    for fam in (*ALL_FAMILIES, *more):
        for k in range(201):
            f = a_poly(fam, k)
            assert f.den == 1 and len(f.num) <= k + 1, (fam, k)
        want = [list(a_poly(fam, k).num) for k in range(195, 201)]
        assert hankel_mod.int_entries(fam, 195, 201) == want, fam


def test_the_entry_tripwire_raises_on_every_ring(monkeypatch):
    # a substituted sequence whose a_3 has a rational coefficient, or a
    # degree above 3, stops every ladder, dodgson's own eliminations and the
    # Table-1 adjugates at a ValueError naming a_3; the entries before it
    # are accepted
    def rational(_family, k):
        return Poly([k + 1, 2, Fraction(1, 2)] if k == 3 else [k + 1, 2][: k + 1])

    def too_high(_family, k):
        return Poly([k + 1, 2, 0, 0, 1] if k == 3 else [k + 1, 2][: k + 1])

    for seq in (rational, too_high):
        monkeypatch.setattr(hankel_mod, "a_poly", seq)
        monkeypatch.setattr(hankel_mod, "_ladders", {})
        assert hankel_det(F31, 0) == Poly([1])
        for x0, ring in ((None, INT_POLY), (Fraction(2, 3), INT), (Fraction(2, 3), JET)):
            with pytest.raises(ValueError, match="a_3 of 3,1 is not an integer polynomial"):
                hankel_mod.cached_ladder(F31, x0, ring, 1)
        with pytest.raises(ValueError, match="a_3 of 3,1"):
            checks_mod.own_hankel_dets(F31, 2)
        monkeypatch.setattr(lemmas_mod, "_adjugates", {})
        with pytest.raises(ValueError, match="a_3 of 3,1 is not an integer polynomial"):
            lemmas_mod._adjugate(F31, 4)


def test_ladder_extension_matches_single_eliminations(monkeypatch):
    # n asked out of order, so each cached ladder grows in place (a jet
    # ladder is rebuilt) and is read below its top; every H/K/M/N equals
    # det_bareiss on its single matrix, over jets H in full and K, M, N as
    # the value part
    from test_jet import POINTS, outcome

    monkeypatch.setattr(hankel_mod, "_ladders", {})
    cases = [(None, INT_POLY)]
    cases += [(x0, INT) for x0 in (Fraction(0), Fraction(3, 7), Fraction(5, 2), Fraction(1, 2))]
    cases += [(x0, JET) for x0 in POINTS]
    vanishing = ((F31, Fraction(5, 2)), (F21, Fraction(1, 2)))  # where H_1 is zero
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
                        jets = int_jets([f.num for f in a], x0)
                        rows = [[jets[c + i] for c in cols] for i in range(n + 1)]
                        want = outcome(lambda: det_bareiss(rows, JET))
                        if name != "H" and want is not JetNotInvertible:
                            want = want[0]
                        got = outcome(
                            lambda: hankel_mod.cached_ladder(fam, x0, JET, n).det(n, name)
                        )
                        assert got == want, (fam, n, name, x0)
            if (fam, x0) in vanishing and ring is not INT_POLY:
                # the ladder holds n <= 1, and the larger n came from the
                # single eliminations
                assert len(hankel_mod._ladders[fam, x0, ring].rows) == 2


def test_symmetric_ladder_matches_the_full_row_ladder():
    # every entry of every row, the leads read off earlier rows included,
    # and every M_n (over jets, its value part) equal the full-row
    # elimination's, for each family to N = 12 over Z[x], and over Z and
    # jets at points where a leading pivot vanishes too; a ladder grown in
    # place through smaller N ends equal
    top = 12
    cases = [(None, INT_POLY)]
    cases += [(x0, ring) for ring in (INT, JET) for x0 in (Fraction(3, 7), Fraction(-2), Fraction(5, 2), Fraction(1, 2))]
    vanishing = ((F31, Fraction(5, 2)), (F21, Fraction(1, 2)))  # where H_1 is zero
    for fam in ALL_FAMILIES:
        for x0, ring in cases:
            e = hankel_mod.cached_ladder(fam, x0, ring, top).entries[: 2 * top + 3]
            refs = {}
            for chain in ((top,), (0, top), (3, 8, top), (1, 2, 5, 11, top)):
                lad = None
                for n in chain:
                    if n not in refs:
                        refs[n] = full_row_ladder(e[: 2 * n + 3], ring)
                    lad = hankel_mod.ladder(e[: 2 * n + 3], ring, lad)
                    want_m = refs[n].m if ring is not JET else [
                        m if m is None or type(m) is int else m[0] for m in refs[n].m]
                    assert (lad.rows, lad.m) == (refs[n].rows, want_m), (fam, x0, ring, chain, n)
            assert len(refs[top].rows) == (2 if (fam, x0) in vanishing else top + 1), (fam, x0)


def test_dodgson_fails_where_the_ladder_is_wrong(monkeypatch):
    # dodgson takes M_n and H_{n-1}, H_{n+1} from eliminations of their own,
    # so a K_n off by one in the ladder fails that n and no other
    from test_closed_forms import _ladder_k3_off_by_one

    from hankelab.checks import run_check

    _ladder_k3_off_by_one(monkeypatch)
    rows = run_check("dodgson", F31, range(1, 8))
    assert [(r.n, r.status) for r in rows if r.status != "pass"] == [(3, "fail")]
    assert len(rows) == 7


def test_dodgson_fails_where_its_own_h_is_wrong(monkeypatch):
    # the memo of independently eliminated H_j is what dodgson compares the
    # ladder with, so a wrong H_4 in it fails n = 3 and n = 5, which read it;
    # it holds H_0..H_8, all that n = 7 reads, so no n re-eliminates it
    from hankelab.checks import run_check

    own = [det_fraction_free(hankel_matrix(F31, j)) for j in range(9)]
    own[4] += Poly([1])
    monkeypatch.setattr(checks_mod, "_own_h", {F31: own})
    rows = run_check("dodgson", F31, range(1, 8))
    assert [(r.n, r.status) for r in rows if r.status != "pass"] == [(3, "fail"), (5, "fail")]


def test_dodgson_eliminates_each_of_its_own_h_once(monkeypatch):
    # per family over n = 1..10, walked from the top: M_10..M_1 (orders
    # 11..2), and H_0..H_11 as the pivots of one elimination of order 12,
    # where eliminating each H_j alone would take 12
    from hankelab.checks import acceptance_suite, run_check

    orders = []
    real = hankel_mod.det_bareiss

    def counted(rows, ring):
        orders.append(len(rows))
        return real(rows, ring)

    monkeypatch.setattr(checks_mod, "_own_h", {})
    monkeypatch.setattr(hankel_mod, "det_bareiss", counted)
    monkeypatch.setattr(checks_mod, "det_bareiss", counted)
    items = [item for item in acceptance_suite() if item[0] == "dodgson"]
    assert [(lo, hi) for _, _, lo, hi in items] == [(1, 10)] * 8
    for name, fam, lo, hi in items:
        del orders[:]
        assert {r.status for r in run_check(name, fam, range(lo, hi + 1))} == {"pass"}
        assert orders == [11, 12, *range(10, 1, -1)], fam


def polys(rows):
    """A matrix of integer coefficient lists as Poly entries."""
    return [[from_int_scaled(v, 1) for v in row] for row in rows]


def seq_with_head(head):
    """A stand-in for a_poly: ``head``, then seeded integer polynomials of
    degree 2."""
    rng = random.Random(len(head))
    tail = [Poly([rng.randint(-9, 9) for _ in range(3)]) for _ in range(40)]
    seq = [*head, *tail]
    return lambda _family, k: seq[k]


# heads whose Hankel matrices have a zero leading minor: H_1 = x^2 - x^2,
# then H_0 = 0, then a_0 = a_1 = a_2 = 0, where the first column of the
# order-3 matrix has no entry to swap in and its determinant is zero
ZERO_MINOR_HEADS = (
    (Poly([1]), Poly([0, 1]), Poly([0, 0, 1])),
    (Poly.zero(), Poly([1])),
    (Poly.zero(), Poly.zero(), Poly.zero()),
)


def test_own_h_are_the_pivots_of_one_elimination():
    # H_0..H_12 of every family, read off one elimination, against each
    # H_j eliminated alone; a smaller top gives their prefix
    for fam in ALL_FAMILIES:
        want = [det_fraction_free(hankel_matrix(fam, j)) for j in range(13)]
        assert checks_mod.own_hankel_dets(fam, 12) == want, fam
        assert checks_mod.own_hankel_dets(fam, 4) == want[:5], fam
        assert checks_mod.own_hankel_dets(fam, 0) == want[:1], fam


def test_own_h_past_a_zero_leading_minor_are_eliminated_alone(monkeypatch):
    # the pivots are read up to the first zero one; each H_j past it (the
    # elimination swaps rows there) comes from a det_bareiss of its own
    # rows of the same integer entries, and dodgson, which holds for any
    # sequence, still passes
    from hankelab.checks import run_check

    real = checks_mod.det_bareiss
    for head in ZERO_MINOR_HEADS:
        monkeypatch.setattr(hankel_mod, "a_poly", seq_with_head(head))
        monkeypatch.setattr(hankel_mod, "_ladders", {})
        monkeypatch.setattr(checks_mod, "_own_h", {})
        want = [det_cofactor(hankel_matrix(F31, j)) for j in range(7)]
        first_zero = next(j for j, h in enumerate(want) if h.is_zero())
        assert first_zero < 2 and not want[6].is_zero()
        orders = []

        def counted(rows, ring):
            orders.append(len(rows) - 1)
            return real(rows, ring)

        monkeypatch.setattr(checks_mod, "det_bareiss", counted)
        for top in (6, 2):
            del orders[:]
            assert checks_mod.own_hankel_dets(F31, top) == want[: top + 1], (head, top)
            assert orders == [top, *range(first_zero + 1, top)], (head, top)
        monkeypatch.setattr(checks_mod, "det_bareiss", real)
        rows = run_check("dodgson", F31, range(1, 6))
        assert [r.status for r in rows] == ["pass"] * 5, head


def test_leading_adjugates_match_each_adjugate(monkeypatch):
    # every leading block's adjugate, read off one elimination of integer
    # rows, against int_adjugate of the block alone, and at small n
    # against the cofactors
    for fam in ALL_FAMILIES:
        got = checks_mod.leading_adjugates(int_hankel(fam, 5))
        assert got == [checks_mod.int_adjugate(int_hankel(fam, k)) for k in range(6)], fam
        for k in range(3):
            assert polys(got[k]) == cofactor_adjugate(hankel_matrix(fam, k)), (fam, k)
    # past a singular leading block, where the elimination swaps rows,
    # every block is None: int_adjugate raises on the singular one and
    # swaps rows itself for the larger ones, folding the swap's sign in
    for head in ZERO_MINOR_HEADS[:2]:
        monkeypatch.setattr(hankel_mod, "a_poly", seq_with_head(head))
        zero = 1 if head[0] else 0
        got = checks_mod.leading_adjugates(int_hankel(F31, 4))
        assert [polys(adj) for adj in got[:zero]] == [
            cofactor_adjugate(hankel_matrix(F31, k)) for k in range(zero)]
        assert got[zero:] == [None] * (5 - zero)
        with pytest.raises(ValueError, match="singular matrix"):
            checks_mod.int_adjugate(int_hankel(F31, zero))
        for k in range(zero + 1, 4):
            want = cofactor_adjugate(hankel_matrix(F31, k))
            assert polys(checks_mod.int_adjugate(int_hankel(F31, k))) == want, (head, k)


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


def binom_entry(inst, i, j):
    """Oracle for DegreeInstance.entry: one reference ``binom`` per coefficient."""
    top, bound = inst.alphas[i] + inst.betas[j], inst.p[i] + inst.q[j]
    if bound < 0:
        return Poly.zero()
    return Poly([binom(top + inst.gamma * m, bound - m) for m in range(bound + 1)])


def test_degree_instance_entries_match_binomials():
    from hankelab.checks import random_degree_instances

    instances = list(random_degree_instances(200))
    assert len(instances) == 200
    # gamma = 0, negative gamma, and negative integer tops, on purpose
    instances += [
        make_degree_instance([3, 5], [2, 4], [-7, Fraction(-5, 2)], [0, -3], 0),
        make_degree_instance([4, 1, 6], [2, 3, 0], [-9, 2, Fraction(1, 3)],
                             [-4, Fraction(-7, 2), 5], Fraction(-3, 2)),
        make_degree_instance([6, -1], [5, 2], [-12, -1], [-6, -2], -2),
    ]
    for inst in instances:
        size = inst.n + 1
        for i in range(size):
            for j in range(size):
                assert inst.entry(i, j) == binom_entry(inst, i, j), (inst, i, j)


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
