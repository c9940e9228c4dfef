"""The n-dependent forms as data: the two evaluators, and every table
against the function body it replaced (`reference_forms.py`).

A table and its oracle must agree at every n = 0..40, and at every
i = 0..n for a term in (n, i), or both must raise there: a factorial of
a negative number raises in both.  Table 1 is compared rule for rule on
the (3,1) and (2,1) quartets at n = 1..8.  The sequence-level identities of
`lemmas.IDENTITIES` are compared with their Poly oracle term for term in
`test_identities.test_identity_table_matches_the_poly_oracle`.
"""

from fractions import Fraction

import pytest

import reference_forms as ref
from hankelab import closed_forms, identities, identity_checks, lemmas
from hankelab.forms import nx_poly, term_sum, term_value
from hankelab.odes import ODES
from hankelab.poly import Poly, int_poly_hom_eval
from hankelab.sequences import F21, F31

NS = range(41)


def test_nx_poly_reads_rows_by_power_of_x_and_entries_by_power_of_n():
    # (1 + 2n) + (2n + 2n^2) x at n = 3 is 7 + 24x; times x - 3
    table = ((1, 2), (0, 2, 2))
    assert nx_poly((table,), 3) == Poly([7, 24])
    assert nx_poly((table, ((-3,), (1,))), 3) == Poly([-21, -65, 24])
    assert nx_poly((), 5) == Poly.one()
    assert nx_poly((((0, 1, -1),),), 1).is_zero()


def test_term_sum_sums_the_term_against_powers_of_t():
    # sum over i = 0..2 of (n + i) t^i at n = 2: 2 + 3t + 4t^2
    term = (1, 1, (("", 1, 1, 0),), ())
    assert term_sum(term, 2, Poly.x()) == Poly([2, 3, 4])
    assert term_sum(term, 2, Fraction(1, 2)) == Fraction(2 * 4 + 3 * 2 + 4, 4)
    # empty below n = 0, a zero of t's kind
    assert term_sum(term, -1, Poly.x()).is_zero()
    assert term_sum(term, -1, Fraction(3)) == 0


def test_term_value_reads_each_kind_of_factor():
    # 3/4 * (n + i) * (2n)! / (n + 2i + 1)!! * (-2)^i at n = 3, i = 2
    term = (3, 4, (("", 1, 1, 0), ("!", 2, 0, 0), (-2, 0, 1, 0)), (("!!", 1, 2, 1),))
    assert term_value(term, 3, 2) == Fraction(3 * 5 * 720 * 4, 4 * (8 * 6 * 4 * 2))
    # without i, a factor that reads i is refused, not read at i = 0
    with pytest.raises(ValueError, match="reads i"):
        term_value(term, 3)
    with pytest.raises(ValueError, match="reads i"):
        term_value((1, 1, (), (("!!", 1, 2, 1),)), 3)
    assert term_value((1, 1, (("!!", 1, 0, 0),), ()), 0) == 1  # m!! = 1 for m <= 0
    with pytest.raises(ValueError):
        term_value((1, 1, (("!", 1, 0, -2),), ()), 1)
    with pytest.raises(ValueError):
        term_value((1, 1, ((2, 1, 0, -2),), ()), 1)
    with pytest.raises(ZeroDivisionError):
        term_value((1, 1, (), (("", 1, 0, -1),)), 1)


def _agree(table, oracle):
    """Both give the same value, or both raise ValueError."""
    try:
        want = oracle()
    except ValueError:
        with pytest.raises(ValueError):
            table()
        return True
    return table() == want


def test_every_table_equals_its_oracle():
    for name, coeffs in ref.ODE_COEFFS.items():
        for n in NS:
            assert ODES[name].coeffs(n) == coeffs(n), (name, n)
    for rid, terms in ref.RELATIONS.items():
        family, residuals = identities._RELATIONS[rid]
        for n in NS:
            got = tuple(tuple((s, nx_poly(c, n)) for s, c in res) for res in residuals)
            assert got == terms(n), (rid, n)
    for fam, anchor in ref.PNQNRN.items():
        weights = identity_checks._WEIGHT_FORMS[fam]
        for n in NS:
            assert weights.anchor(n) == anchor(n), (fam, n)
            q0 = tuple(int_poly_hom_eval(row, n, 1) for row in weights.q0_params)
            assert q0 == ref.Q0_PARAMS[fam](n), (fam, n)
    for pid, value in ref.PRODUCT_VALUES.items():
        for n in NS:
            assert _agree(lambda: closed_forms.PRODUCTS[pid].value(n), lambda: value(n)), (pid, n)
    for aid, coeff in ref.ALMOST_COEFFS.items():
        form = closed_forms.ALMOST_PRODUCTS[aid]
        for n in NS:
            for i in range(n + 1):
                assert term_value(form.term, n, i) == coeff(n, i), (aid, n, i)
    for n in NS:
        assert _agree(lambda: closed_forms.three_term_pq("threeterm31", n),
                      lambda: ref.three_term_31_pq(n)), n
    for rid, mults in ref.POINT_MULTIPLIERS.items():
        _fam, _x0, got = identity_checks._POINT_SPECS[rid]
        assert set(got) == set(mults), rid
        for name, mult in mults.items():
            term, poly = got[name]
            for n in NS:
                assert term_value(term, n) * int_poly_hom_eval(poly, n, 1) == mult(n)
    for rid, ratio in ref.RECURSION_RATIOS.items():
        for n in NS:
            assert term_value(identity_checks._RECURSION_RATIOS[rid], n) == ratio(n), (rid, n)


def test_chebyshev_jacobi_tables_equal_their_oracles():
    # U_n and P_n are sums in t = y - 1; U_{-1} = 0 is the empty sum
    y_minus_1 = Poly([-1, 1])
    assert term_sum(closed_forms.CHEBYSHEV_U, -1, y_minus_1) == ref.chebyshev_u(-1)
    for n in NS:
        assert term_sum(closed_forms.CHEBYSHEV_U, n, y_minus_1) == ref.chebyshev_u(n), n
        assert term_sum(closed_forms.JACOBI_HALF, n, y_minus_1) == ref.jacobi_half(n), n
        assert term_value(closed_forms.CHEBJAC_SCALE, n) == ref.chebjac_scale(n), n
        assert closed_forms.AP21AT1_SIGN.value(n) == ref.ap21at1_sign(n), n


def test_table1_rows_equal_the_rules_they_replaced():
    for fam in (F31, F21):
        for n in range(1, 9):
            got, want = lemmas.table1_rules(fam, n), ref.table1_rules(fam, n)
            assert [name for name, _x, _v in got] == [name for name, _x, _v in want]
            for (name, x, value), (_name, x_ref, value_ref) in zip(got, want):
                assert value == value_ref, (fam, n, name)
                assert all(x(s) == x_ref(s) for s in range(2 * n + 1)), (fam, n, name)
    with pytest.raises(ValueError):
        lemmas.table1_rules(F31, 0)


def test_a_table1_row_of_unknown_kind_raises(monkeypatch):
    # X's kind is read by the decoder the L1/L2 identities use: a kind it
    # does not know is an error, not a_{s+o} read in its place
    monkeypatch.setattr(lemmas, "TABLE1", (("typo", "aa", 0, ()),))
    [(_name, x, _value)] = lemmas.table1_rules(F31, 1)
    with pytest.raises(ValueError, match="unknown sequence kind"):
        x(0)


def test_scaled_equations_read_the_ode_table_itself():
    # r_rhs and r_21_factored hold de1's and de2np1's coefficient tables
    # themselves, not copies: each formula is written once
    for rid, name in (("r_rhs", "de1"), ("r_21_factored", "de2np1")):
        _fam, (*_, residual) = identities._RELATIONS[rid]
        for (_symbol, factors), coeff in zip(residual, ODES[name].table):
            assert all(a is b for a, b in zip(factors[-len(coeff):], coeff)), rid
