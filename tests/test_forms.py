"""The n-dependent forms as data: the two evaluators, and every table
against the function body it replaced (`reference_forms.py`).

A table and its oracle must agree at every n = 0..40, and at every
i = 0..n for a term in (n, i), or both must raise there: a factorial of
a negative number raises in both.  The sequence-level identities of
`lemmas.IDENTITIES` are compared with their Poly oracle term for term in
`test_identities.test_identity_table_matches_the_poly_oracle`.
"""

from fractions import Fraction

import pytest

import reference_forms as ref
from hankelab import closed_forms, identities, identity_checks
from hankelab.forms import nx_poly, term_value
from hankelab.odes import ODES
from hankelab.poly import Poly

NS = range(41)


def test_nx_poly_reads_rows_by_power_of_x_and_entries_by_power_of_n():
    # (1 + 2n) + (2n + 2n^2) x at n = 3 is 7 + 24x; times x - 3
    table = ((1, 2), (0, 2, 2))
    assert nx_poly((table,), 3) == Poly([7, 24])
    assert nx_poly((table, ((-3,), (1,))), 3) == Poly([-21, -65, 24])
    assert nx_poly((), 5) == Poly.one()
    assert nx_poly((((0, 1, -1),),), 1).is_zero()


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
            q0 = tuple(identity_checks._n_poly(table, n) for table in weights.q0_params)
            assert q0 == ref.Q0_PARAMS[fam](n), (fam, n)
    for pid, value in ref.PRODUCT_VALUES.items():
        for n in NS:
            assert _agree(lambda: closed_forms.PRODUCTS[pid].value(n), lambda: value(n)), (pid, n)
    for aid, coeff in ref.ALMOST_COEFFS.items():
        form = closed_forms.ALMOST_PRODUCTS[aid]
        for n in NS:
            for i in range(n + 1):
                assert form.coeff(n, i) == coeff(n, i), (aid, n, i)
    for n in NS:
        assert _agree(lambda: closed_forms.three_term_31_pq(n),
                      lambda: ref.three_term_31_pq(n)), n
    for rid, mults in ref.POINT_MULTIPLIERS.items():
        _fam, _x0, got = identity_checks._POINT_SPECS[rid]
        assert set(got) == set(mults), rid
        for name, mult in mults.items():
            term, poly = got[name]
            for n in NS:
                assert term_value(term, n) * identity_checks._n_poly(poly, n) == mult(n)
    for rid, ratio in ref.RECURSION_RATIOS.items():
        for n in NS:
            assert term_value(identity_checks._RECURSION_RATIOS[rid], n) == ratio(n), (rid, n)


def test_scaled_equations_read_the_ode_table_itself():
    # R_RHS and R_21_FACTORED hold de1's and de2np1's coefficient tables
    # themselves, not copies: each formula is written once
    for rid, name in ((identities.RelationId.R_RHS, "de1"),
                      (identities.RelationId.R_21_FACTORED, "de2np1")):
        _fam, (*_, residual) = identities._RELATIONS[rid]
        for (_symbol, factors), coeff in zip(residual, ODES[name].table):
            assert all(a is b for a, b in zip(factors[-len(coeff):], coeff)), rid
