import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from reference_det import adjugate, cofactor_adjugate, cramer_trace, fraction_nullspace
import reference_identities
from reference_identities import (
    e_matrix,
    f_matrix,
    fraction_identity_residual,
    fraction_trace_values,
    mat_mul,
    table_identity_residual,
)
from test_series import _bump, _paths

import hankelab.identities as identities_mod
import hankelab.identity_checks as identity_checks_mod
import hankelab.lemmas as lemmas_mod
from hankelab.checks import run_check
from hankelab.lemmas import (
    IDENTITIES,
    check_identity,
    check_matrix_convolution_identities,
    table1_rules,
    trace_values,
)
from hankelab.jet import terms_at
from hankelab.poly import Poly, int_poly_hom_eval
from hankelab.hankel import hankel_det, hankel_matrix, int_hankel, quartet
from hankelab.identities import (
    SYMBOLIC_RELATIONS,
    check_relation,
    jet_quartet,
    pnqnrn_21,
    pnqnrn_31,
    relation_residuals,
    relation_residuals_at,
)
from hankelab.identity_checks import (
    POINT_RELATIONS,
    ciden_check,
    explicit_weights,
    explicit_weights_match,
    rational_nullspace,
    weight_nullspace,
)
from hankelab.sequences import (
    ALL_FAMILIES,
    F21,
    F30,
    F31,
    FamilyId,
    a_poly,
    conv_poly,
)
from hankelab.series import gf_fraction, t_series


def test_identity_boundary_uses_c_minus1():
    # at k = 0 the c_{k-1} term vanishes by the c_{-1} = 0 convention
    assert fraction_identity_residual("l1_31", 0).is_zero()
    assert fraction_identity_residual("l1_21", 0).is_zero()
    assert check_identity("l1_31", 0) == check_identity("l1_21", 0) == []


def test_identities_hold():
    for iid in IDENTITIES:
        assert check_identity(iid, 12) == [], iid


def _failing_k(residual, iid, k_max):
    return [k for k in range(k_max + 1) if not residual(iid, k).is_zero()]


def test_identity_table_matches_the_poly_oracle(monkeypatch):
    # on the true sequences both residuals vanish; on seeded stand-ins for
    # a_k and c_k with rational coefficients neither does, and the table's
    # terms summed as Polys must still equal the written expression
    for iid in IDENTITIES:
        for k in range(31):
            assert table_identity_residual(iid, k) == fraction_identity_residual(iid, k) == 0
    rng = random.Random(1709)
    fake = {}

    def stand_in(kind):
        def seq(fam, i):
            if (kind, fam, i) not in fake:
                fake[kind, fam, i] = Poly([Fraction(rng.randint(-99, 99), rng.randint(1, 6))
                                           for _ in range(i + 2)])
            return Poly.zero() if i < 0 else fake[kind, fam, i]

        return seq

    monkeypatch.setattr(reference_identities, "a_poly", stand_in("a"))
    monkeypatch.setattr(reference_identities, "conv_poly", stand_in("c"))
    for iid in IDENTITIES:
        for k in range(41):
            got = table_identity_residual(iid, k)
            assert got == fraction_identity_residual(iid, k) and got, (iid, k)


def test_packed_identity_check_fails_exactly_where_the_oracle_does(monkeypatch):
    # on the true sequences no k <= 40 fails; with one a_m perturbed by a
    # seeded rational polynomial (c_k the convolution of the perturbed a),
    # the packed evaluation fails at exactly the k whose Poly residual
    # is nonzero, and no others
    for iid in IDENTITIES:
        assert check_identity(iid, 40) == _failing_k(fraction_identity_residual, iid, 40) == []
    rng = random.Random(3607)
    true_a, true_c = lemmas_mod.a_poly, reference_identities.conv_poly
    for m0 in (0, 17, 38):
        bump = Poly([Fraction(rng.randint(-99, 99), rng.randint(1, 6)) for _ in range(m0 + 2)])
        convs = {}

        def a(fam, i, m0=m0, bump=bump):
            return true_a(fam, i) + bump if i == m0 else true_a(fam, i)

        def c(fam, i):
            if (fam, i) not in convs:
                convs[fam, i] = (true_c(fam, i) if i < 0 else
                                 sum((a(fam, m) * a(fam, i - m) for m in range(i + 1)),
                                     Poly.zero()))
            return convs[fam, i]

        monkeypatch.setattr(lemmas_mod, "_packed", {})
        monkeypatch.setattr(lemmas_mod, "a_poly", a)
        monkeypatch.setattr(reference_identities, "a_poly", a)
        monkeypatch.setattr(reference_identities, "conv_poly", c)
        for iid in IDENTITIES:
            got = check_identity(iid, 40)
            assert got == _failing_k(fraction_identity_residual, iid, 40), (m0, iid)
            assert got and got[0] >= m0 - 2, (m0, iid, got)


def test_packed_sequences_and_their_bounds(monkeypatch):
    # each packed value is den^2 a_m, den^2 d_x a_m or den^2 c_m at 2^s,
    # den the lcm of the a_m's denominators, and each bound is at least
    # that polynomial's 1-norm: the bounds are what s is sized from.  The
    # a_m of the five families are integral, so a stand-in with
    # denominators checks the den factors too
    def with_dens(fam, m):
        return a_poly(fam, m) + Poly([Fraction(1, m + 2), Fraction(-1, 3)])

    for a in (a_poly, with_dens):
        monkeypatch.setattr(lemmas_mod, "_packed", {})
        monkeypatch.setattr(lemmas_mod, "a_poly", a)
        polys = {"a": a, "da": lambda fam, m: a(fam, m).derivative(),
                 "c": lambda fam, m: sum((a(fam, i) * a(fam, m - i) for i in range(m + 1)),
                                         Poly.zero())}
        for fam in {fam for fam, _terms in IDENTITIES.values()}:
            s, seqs = lemmas_mod._pack(fam, 14)
            den = lcm(*(a(fam, m).den for m in range(15)))
            for kind, poly in polys.items():
                values, bounds = seqs[kind]
                for m in range(15):
                    p = den**2 * poly(fam, m)
                    assert values[m] == p(1 << s), (a, fam, kind, m)
                    assert bounds[m] >= sum(map(abs, p.coeffs)), (a, fam, kind, m)


def test_the_packed_zero_test_refuses_a_slot_its_bound_does_not_fit(monkeypatch):
    # x - 2^s vanishes at X = 2^s, so its 1-norm 2^s + 1 must be refused
    # there; the least slot sized from that bound tells it from 0, and the
    # slot one bit short is refused too
    for s in (1, 8, 64, 200):
        f = [-(1 << s), 1]
        bound = sum(map(abs, f))
        assert int_poly_hom_eval(f, 1 << s, 1) == 0
        with pytest.raises(ArithmeticError):
            lemmas_mod._is_zero_at(0, bound, s)
        t = lemmas_mod._slot(bound)
        assert not lemmas_mod._is_zero_at(int_poly_hom_eval(f, 1 << t, 1), bound, t)
        with pytest.raises(ArithmeticError):
            lemmas_mod._is_zero_at(int_poly_hom_eval(f, 1 << (t - 1), 1), bound, t - 1)
    # every k checks its own bound: with X too small for the operands, the
    # check raises, and its row is a fail, where a false zero would pass
    monkeypatch.setattr(lemmas_mod, "_packed", {})
    monkeypatch.setattr(lemmas_mod, "_slot", lambda bound: 8)
    with pytest.raises(ArithmeticError):
        check_identity("l1_31", 5)
    [row] = run_check("l1_31", None, [5])
    assert row.status == "fail" and "ArithmeticError" in row.detail


def test_every_int_of_the_identity_table_is_load_bearing(monkeypatch):
    # each int of the coefficient tables and each offset, bumped by 1 in
    # turn on a copy, must make some k <= 30 fail, and exactly the k where
    # the bumped table's terms summed as Polys do not vanish; the packed
    # sequences start cold, so an offset bumped to 3 must widen them
    monkeypatch.setattr(lemmas_mod, "_packed", {})
    mutants = [(iid, fam, _bump(terms, path))
               for iid, (fam, terms) in IDENTITIES.items() for path in _paths(terms)]
    assert len(mutants) == 299
    wrong = []
    for iid, fam, terms in mutants:
        monkeypatch.setitem(IDENTITIES, iid, (fam, terms))
        got = check_identity(iid, 30)
        if not got or got != _failing_k(table_identity_residual, iid, 30):
            wrong.append((iid, terms, got))
    assert wrong == []


def test_relation_det01_hand_expansion():
    # n = 1: both sides equal -16x^3 + 84x^2 - 126x + 54
    q = quartet(F31, 1)
    assert q.K == Poly([36, -9, -2])
    lhs = Poly([-3, 1]) * Poly([-3, 2]) * Poly([-3, 4]) * q.H.derivative()
    assert lhs == Poly([54, -126, 84, -16])
    rhs = Poly([-90, -36, 8]) * q.H + 14 * q.K
    assert lhs == rhs
    (residual,) = relation_residuals("r_det01", 1)
    assert residual.is_zero()


def test_relations_symbolic():
    for rid in SYMBOLIC_RELATIONS:
        for n in range(2, 7):
            assert check_relation(rid, n), (rid, n)


def test_relations_at_points():
    for rid in POINT_RELATIONS:
        for n in range(2, 7):
            assert check_relation(rid, n), (rid, n)


def test_relation_x3_hand_values():
    # K_1(3) = 3*42/14 * H_1(3) = -9, directly 36 - 27 - 18
    q = quartet(F31, 1)
    assert q.K(3) == -9
    assert q.K(3) == Fraction(3 * 42, 14) * q.H(3)


def test_relation_screen_jets():
    for rid in SYMBOLIC_RELATIONS:
        for x0 in (Fraction(7, 5), Fraction(-2, 3)):
            vals = relation_residuals_at(rid, 11, x0)
            assert all(v == 0 for v in vals), (rid, x0)


def test_screen_reads_each_family_quartet_once_per_point(monkeypatch):
    x0 = Fraction(97, 5)
    want = {}
    for rid in SYMBOLIC_RELATIONS:
        family, terms = identities_mod._relation_terms(rid, 4)
        values = dict(zip(identities_mod._SYMBOLS, jet_quartet(family, 4, x0)))
        assert all(values.values()), rid
        want[rid] = terms_at(terms, values, x0)
    calls = []

    def counted(*args):
        calls.append(args)
        return jet_quartet(*args)

    monkeypatch.setattr(identities_mod, "jet_quartet", counted)
    identities_mod._screen_quartet.cache_clear()
    got = {rid: relation_residuals_at(rid, 4, x0) for rid in SYMBOLIC_RELATIONS}
    assert calls == [(F31, 4, x0), (F21, 4, x0)]
    assert got == want


def test_relation_entry_points_reject_the_same_input():
    # a point relation, and n = 0 where M_0 and N_0 are undefined
    for args in (("r_x3", 3), ("r_linear", 0), ("r_det01", -1)):
        with pytest.raises(ValueError, match="point relation|needs n >= 1"):
            relation_residuals(*args)
        with pytest.raises(ValueError, match="point relation|needs n >= 1"):
            relation_residuals_at(*args, Fraction(7, 5))
    with pytest.raises(ValueError, match="needs n >= 1"):
        jet_quartet(F31, 0, Fraction(7, 5))
    # point relations too, before H_{n-1} or N_n is formed
    for args in (("r_crec", 0), ("r_x3", 0), ("r_linear", 0)):
        with pytest.raises(ValueError, match="needs n >= 1"):
            check_relation(*args)


def test_e_f_matrix_shapes():
    e = e_matrix(F31, 2)
    assert e[0][0] == a_poly(F31, 0) * Fraction(1, 2)
    assert e[2][1] == a_poly(F31, 1)
    assert e[0][1].is_zero()
    f = f_matrix(F31, 2)
    assert f[0][0].is_zero()
    assert f[1][0] == a_poly(F31, 0)
    assert f[2][0] == a_poly(F31, 1)


def test_convolution_identity_n0():
    # 1x1 case: c_0 = a_0^2 = a_0/2*a_0 + a_0*a_0/2
    assert check_matrix_convolution_identities(F31, 0)


def test_convolution_identities():
    for fam in (F21, F31):
        for n in range(0, 5):
            assert check_matrix_convolution_identities(fam, n), (fam, n)


def test_ef_and_trace_sums_match_the_poly_oracle():
    # every entry of L A + A L^T and every Table-1 trace, against Poly
    # matrix products and the Poly adjugate, with the same verdicts
    for fam in ALL_FAMILIES:
        for n in range(0, 7):
            a = hankel_matrix(fam, n)
            want = {}
            for lower, shift in ((e_matrix(fam, n), 0), (f_matrix(fam, n), -1)):
                la = mat_mul(lower, a)
                want.update(((shift, i, j), la[i][j] + la[j][i])
                            for i in range(n + 1) for j in range(i + 1))
            got = {(shift, i, j): v for shift, i, j, v in lemmas_mod._ef_entries(fam, n)}
            assert got == want, (fam, n)
            verdict = all(v == conv_poly(fam, i + j + s) for (s, i, j), v in want.items())
            assert check_matrix_convolution_identities(fam, n) == verdict, (fam, n)
            if n:
                oracle = fraction_trace_values(fam, n)
                assert lemmas_mod.trace_values(fam, n) == oracle, (fam, n)
                assert ([(name, v == e) for name, v, e in trace_values(fam, n)]
                        == [(name, v == e) for name, v, e in oracle])


def test_transform_rules():
    for fam in (F21, F31):
        for n in range(1, 4):
            results = trace_values(fam, n)
            assert len(results) == 11
            assert all(got == want for _, got, want in results), (fam, n, results)


def test_transform_rules_match_the_cramer_oracle():
    # every Table-1 grid: the adjugate trace against n+1 column-replaced
    # determinants, and the adjugate itself against cofactors at small n
    for fam in ALL_FAMILIES:
        for n in range(1, 7):
            a = hankel_matrix(fam, n)
            adj = adjugate(a)
            size = n + 1
            if n <= 2:
                assert adj == cofactor_adjugate(a), (fam, n)
            for name, x, expected in table1_rules(fam, n):
                grid = [[x(i + j) for j in range(size)] for i in range(size)]
                got = sum((adj[i][j] * grid[j][i] for i in range(size) for j in range(size)), Poly.zero())
                assert got == cramer_trace(a, grid) == expected, (fam, n, name)
            assert all(got == want for _, got, want in trace_values(fam, n)), (fam, n)


def test_table1_singular_matrix_is_one_fail_row(monkeypatch):
    # the (1,0) family's H_n vanish from n = 2 on, so its Table-1 adjugates
    # there are of singular matrices: each such n is one fail row, and the
    # row before it is unaffected
    f10 = FamilyId("binom", 1, 0)
    assert [hankel_det(f10, n).is_zero() for n in range(5)] == [False, False, True, True, True]
    with pytest.raises(ValueError, match="singular matrix"):
        trace_values(f10, 2)
    rows = run_check("table1", f10, [1, 2, 3])
    assert [r.status for r in rows] == ["pass", "fail", "fail"]
    assert {r.detail for r in rows[1:]} == {"ValueError: singular matrix"}

    # F31 with its n = 3 matrix made singular (row 0 twice): the n run from
    # the top, so n = 3 fails first, and n = 2 and 1, whose blocks its
    # elimination stopped short of, are each eliminated alone and pass
    real = lemmas_mod.int_hankel

    def singular_at_3(family, n):
        rows = real(family, n)
        return [rows[0]] + rows[:-1] if n == 3 else rows

    monkeypatch.setattr(lemmas_mod, "_adjugates", {})
    monkeypatch.setattr(lemmas_mod, "int_hankel", singular_at_3)
    with pytest.raises(ValueError, match="singular matrix"):
        trace_values(F31, 3)
    rows = run_check("table1", F31, [1, 2, 3])
    assert [r.status for r in rows] == ["pass", "pass", "fail"]
    assert rows[2].detail == "ValueError: singular matrix"


def test_table1_adjugates_come_from_one_elimination_per_family(monkeypatch):
    # walked from the top, n = 5..1 read their adjugates off the elimination
    # made at n = 5, each equal to its own matrix's int_adjugate; past a
    # zero leading minor, where that elimination swaps rows, each n is
    # eliminated alone, and the singular block raises as int_adjugate does
    import hankelab.hankel as hankel_mod
    import hankelab.hankel_checks as checks_mod
    from test_hankel import ZERO_MINOR_HEADS, seq_with_head

    calls = []

    def spy(name, fn):
        def wrapped(rows):
            calls.append((name, len(rows) - 1))
            return fn(rows)

        return wrapped

    monkeypatch.setattr(lemmas_mod, "_adjugates", {})
    monkeypatch.setattr(lemmas_mod, "leading_adjugates", spy("one", lemmas_mod.leading_adjugates))
    monkeypatch.setattr(lemmas_mod, "int_adjugate", spy("alone", lemmas_mod.int_adjugate))
    for fam in (F31, F21):
        for n in range(5, 0, -1):
            assert lemmas_mod._adjugate(fam, n) == checks_mod.int_adjugate(int_hankel(fam, n))
    assert calls == [("one", 5), ("one", 5)]

    # a sequence with H_1 = 0 (its memo emptied, as a_k are fixed per
    # family): n = 4 is eliminated once for every block, and each n from
    # 4 down to 1 alone, n = 0 reads its block off the one elimination
    monkeypatch.setattr(hankel_mod, "a_poly", seq_with_head(ZERO_MINOR_HEADS[0]))
    monkeypatch.setattr(lemmas_mod, "_adjugates", {})
    del calls[:]
    for n in range(4, -1, -1):
        if n == 1:
            with pytest.raises(ValueError, match="singular matrix"):
                lemmas_mod._adjugate(F31, n)
            continue
        assert lemmas_mod._adjugate(F31, n) == checks_mod.int_adjugate(int_hankel(F31, n)), n
    assert calls == [("one", 4), *[("alone", n) for n in range(4, 0, -1)]]


def _same_nullspace(rows, ncols):
    """rational_nullspace against the Fraction oracle: one primitive integer
    vector per free column, proportional to the oracle's, annihilated."""
    basis = rational_nullspace(rows, ncols)
    want = fraction_nullspace(rows, ncols)
    assert len(basis) == len(want)
    for vec, ref in zip(basis, want):
        assert all(isinstance(v, int) for v in vec)
        assert gcd(*vec) == 1
        free = next(c for c, v in enumerate(ref) if v == 1 and vec[c])
        assert vec[free] > 0
        assert [Fraction(v, vec[free]) for v in vec] == ref
        for row in rows:
            assert sum(c * v for c, v in zip(row, vec)) == 0
    return basis


def test_rational_nullspace():
    rows = [[Fraction(1), Fraction(2), Fraction(3)]]
    assert _same_nullspace(rows, 3) == [[-2, 1, 0], [-3, 0, 1]]
    assert rational_nullspace([[0, 0]], 2) == [[1, 0], [0, 1]]
    assert rational_nullspace([[Fraction(1, 2), Fraction(-1, 3)]], 2) == [[2, 3]]


def test_rational_nullspace_rank_deficient():
    rng = random.Random(4099)
    for trial in range(150):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rank = rng.randint(0, min(nrows, ncols))
        if trial % 2:
            draw = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        else:
            draw = lambda: rng.randint(-4, 4)
        left = [[draw() for _ in range(rank)] for _ in range(nrows)]
        right = [[draw() for _ in range(ncols)] for _ in range(rank)]
        rows = [
            [sum((left[i][k] * right[k][j] for k in range(rank)), 0) for j in range(ncols)]
            for i in range(nrows)
        ]
        _same_nullspace(rows, ncols)


def _base_series(fam, order):
    """eta = 2t - 3 for (3,1) and t itself for (2,1): an independent
    statement of Q0, whose product with it vanishes at y^{n+2}..y^{2n+2}."""
    if fam == F31:
        eta = [2 * c for c in t_series(3, order)]
        eta[0] -= 3
        return eta
    return list(t_series(2, order))


def test_weight_nullspace_matches_the_fraction_oracle():
    for fam in (F21, F31):
        for n in range(1, 13):
            order = 2 * n + 2
            s = _base_series(fam, order)
            rows = [
                [s[r - i] if 0 <= r - i <= order else 0 for i in range(n + 2)]
                for r in range(n + 2, 2 * n + 3)
            ]
            (vec,) = _same_nullspace(rows, n + 2)
            q0 = weight_nullspace(fam, n).q0
            lead = next(v for v in vec if v)
            assert list(q0) == [Fraction(v, lead) for v in vec], (fam, n)


def test_q2_is_the_closed_denominator_times_q0():
    for fam in (F21, F31):
        for n in range(1, 13):
            sol = weight_nullspace(fam, n)
            order = 2 * n + 3
            _num, den = gf_fraction(fam, order, True)
            prod = [
                sum(
                    (den[k - i] * c for i, c in enumerate(sol.q0) if i <= k),
                    Poly.zero(),
                )
                for k in range(order + 1)
            ]
            assert list(sol.q2) == prod[: n + 3], (fam, n)
            assert all(p.is_zero() for p in prod[n + 3 :]), (fam, n)
            assert list(sol.weights) == prod[n + 2 :: -1], (fam, n)


def test_weight_checks_share_one_solution_per_key(monkeypatch):
    keys = [(F21, n) for n in range(1, 7)] + [(F31, n) for n in range(2, 6)]
    checks = ("weights", "explicit-weights", "ciden")
    # the rows each check gives when it builds its own solution
    alone = {}
    for name in checks:
        for fam, n in keys:
            monkeypatch.setattr(identity_checks_mod, "_weight_memo", {})
            alone[name, fam, n] = run_check(name, fam, [n])
    monkeypatch.setattr(identity_checks_mod, "_weight_memo", {})
    built = []
    solve = identity_checks_mod._solve_weights

    def counting(fam, n):
        built.append((fam, n))
        return solve(fam, n)

    monkeypatch.setattr(identity_checks_mod, "_solve_weights", counting)
    for name in checks:
        for fam, n in keys:
            assert run_check(name, fam, [n]) == alone[name, fam, n], (name, fam, n)
    assert built == keys
    # the shared solution cannot be changed by one check under another
    sol = weight_nullspace(F31, 3)
    assert sol is weight_nullspace(F31, 3)
    with pytest.raises(AttributeError):  # an immutable record
        sol.scale = Fraction(1)
    for field in (sol.q0, sol.q2, sol.weights):
        assert type(field) is tuple


def test_weight_nullspace_failure_is_not_memoized(monkeypatch):
    monkeypatch.setattr(identity_checks_mod, "_weight_memo", {})
    for _ in range(2):
        with pytest.raises(ValueError):
            weight_nullspace(F30, 2)
    assert identity_checks_mod._weight_memo == {}


def test_weight_nullspace_21():
    sol = weight_nullspace(F21, 1)
    assert sol.scale == 1
    p, q, r = pnqnrn_21(1)
    assert sol.weights[3] == p
    assert sol.weights[2] == q
    assert sol.weights[1] == r
    # annihilation rows were asserted inside; spot-check i = 0 independently
    acc = Poly.zero()
    for j, w in enumerate(sol.weights):
        acc = acc + w * a_poly(F21, j)
    assert acc.is_zero()


def test_weight_nullspace_31_top_three():
    n = 2
    sol = weight_nullspace(F31, n)
    p, q, r = pnqnrn_31(n)
    assert p == -8 * (4 * n + 3) * (4 * n + 5) * Poly([-1, 1])
    assert sol.weights[n + 2] == p * sol.scale
    assert sol.weights[n + 1] == q * sol.scale
    assert sol.weights[n] == r * sol.scale
    # under lowest-coefficient-1 normalization the scale is -1/(2(4n+3)(4n+5))
    assert sol.scale == Fraction(-1, 2 * (4 * n + 3) * (4 * n + 5))


def test_weight_nullspace_dimensions():
    for fam in (F21, F31):
        for n in range(1, 7):
            sol = weight_nullspace(fam, n)
            assert len(sol.q0) == n + 2


def test_ciden():
    for fam in (F21, F31):
        for n in range(1, 9):
            assert ciden_check(fam, n), (fam, n)


def test_third_identity_full_range():
    # the (2,1) determinantal third identity holds from n = 1 up
    for n in range(1, 13):
        assert check_relation("r_21_third", n), n


def test_explicit_weights_21_formula_values():
    # j = n+2, n+1, n top out at the anchor triple exactly
    n = 3
    w = explicit_weights(F21, n)
    p, q, r = pnqnrn_21(n)
    assert w[n + 2] == p and w[n + 1] == q and w[n] == r


def test_explicit_weights_match_nullspace():
    for n in range(1, 7):
        ok, msg = explicit_weights_match(F21, n)
        assert ok, (n, msg)
    for n in range(2, 6):
        ok, msg = explicit_weights_match(F31, n)
        assert ok, (n, msg)


def test_explicit_weights_31_reproduce_anchor_triple():
    # the closed-form (3,1) weights reproduce (p_n, q_n, r_n) verbatim
    n = 3
    w = explicit_weights(F31, n)
    p, q, r = pnqnrn_31(n)
    assert w[n + 2] == p and w[n + 1] == q and w[n] == r


def test_weight_errors():
    with pytest.raises(ValueError):
        weight_nullspace(F21, 0)
    with pytest.raises(ValueError):
        weight_nullspace(F30, 2)
