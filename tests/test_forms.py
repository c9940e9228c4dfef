"""The n-dependent forms as data: the evaluators, the shape of every
term, and every table against the function body it replaced
(`reference_forms.py`).

A table and its oracle must agree at every n = 0..40, and at every
i = 0..n for a term in (n, i), or both must raise there: a factorial of
a negative number raises in both.  The (3,1) closed-form weights, terms
and polynomials in (n, i, j), agree with theirs at n = 0..24 on every
(i, j) they sum.  Table 1 is compared rule for rule on
the (3,1) and (2,1) quartets at n = 1..8.  The sequence-level identities of
`lemmas.IDENTITIES` are compared with their Poly oracle term for term in
`test_identities.test_identity_table_matches_the_poly_oracle`.
"""

from fractions import Fraction
from importlib import import_module
from math import prod
from pathlib import Path

import pytest

import reference_forms as ref
from test_series import _bump, _paths
import hankelab
from hankelab import closed_forms, identities, identity_checks, lemmas
from hankelab.checks import run_check
from hankelab.forms import index_poly, nx_poly, term_sum, term_value
from hankelab.odes import ODES
from hankelab.poly import Poly
from hankelab.sequences import F21, F31

NS = range(41)


def test_index_poly_reads_nested_rows_ascending_in_each_index():
    # a row ascends in n, and each level around it in the next index
    assert index_poly((1, 2, 3), 2) == 1 + 2 * 2 + 3 * 4
    assert index_poly(((1, 2), (0, 3)), 2, 5) == 1 + 2 * 2 + 3 * 2 * 5
    # 1 + i + (2 - n) j + 4 j^2 at (n, i, j) = (4, 3, 5)
    assert index_poly((((1,), (1,)), ((2, -1),), ((4,),)), 4, 3, 5) == 1 + 3 - 2 * 5 + 4 * 25
    assert index_poly((), 7) == 0


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
    assert term_sum(term, 2, Poly([0, 1])) == Poly([2, 3, 4])
    assert term_sum(term, 2, Fraction(1, 2)) == Fraction(2 * 4 + 3 * 2 + 4, 4)
    # empty below n = 0, a zero of t's kind
    assert term_sum(term, -1, Poly([0, 1])).is_zero()
    assert term_sum(term, -1, Fraction(3)) == 0


def test_term_value_reads_each_kind_of_factor():
    # 3/4 * (n + i) * (2n)! / (n + 2i + 1)!! * (-2)^i at n = 3, i = 2
    term = (3, 4, (("", 1, 1, 0), ("!", 2, 0, 0), (-2, 0, 1, 0)), (("!!", 1, 2, 1),))
    assert term_value(term, 3, 2) == Fraction(3 * 5 * 720 * 4, 4 * (8 * 6 * 4 * 2))
    # (n + 2i - j)! 2^j / (j + 1) at (n, i, j) = (3, 1, 2), and 2n + 1 at n = 4
    term3 = (1, 1, (("!", 1, 2, -1, 0), (2, 0, 0, 1, 0)), (("", 0, 0, 1, 1),))
    assert term_value(term3, 3, 1, 2) == Fraction(6 * 4, 3)
    assert term_value((1, 1, (("", 2, 1),), ()), 4) == 9
    # a factor of another length than its indices is refused, not read
    # with the missing indices at 0 or its extra coefficients dropped
    with pytest.raises(ValueError, match="read at 2 indices, not 1"):
        term_value(term, 3)
    with pytest.raises(ValueError, match="read at 2 indices, not 1"):
        term_value((1, 1, (), (("!!", 1, 2, 1),)), 3)
    with pytest.raises(ValueError, match="read at 1 indices, not 2"):
        term_value((1, 1, (("", 2, 1),), ()), 4, 0)
    with pytest.raises(ValueError, match="read at 3 indices, not 2"):
        term_value(term3, 3, 1)
    assert term_value((1, 1, (("!!", 1, 0),), ()), 0) == 1  # m!! = 1 for m <= 0
    with pytest.raises(ValueError):
        term_value((1, 1, (("!", 1, -2),), ()), 1)
    with pytest.raises(ValueError):
        term_value((1, 1, ((2, 1, -2),), ()), 1)
    with pytest.raises(ZeroDivisionError):
        term_value((1, 1, (), (("", 1, -1),)), 1)


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
            q0 = tuple(index_poly(row, n) for row in weights.q0_params)
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
                assert term_value(term, n) * index_poly(poly, n) == mult(n)
    for rid, ratio in ref.RECURSION_RATIOS.items():
        for n in NS:
            assert term_value(identity_checks._RECURSION_RATIOS[rid], n) == ratio(n), (rid, n)


def _read_terms():
    """(term, the number of indices its reader passes) for every term table
    in src/: an outer term, a scale or ratio in n, an inner, almost-product
    or Chebyshev/Jacobi term in (n, i), a (3,1) weight term in (n, i, j)."""
    cf, ic = closed_forms, identity_checks
    for form in (*cf.PRODUCTS.values(), cf.AP21AT1_SIGN):
        yield form.outer, 1
        yield form.inner, 2
    yield from ((form.term, 2) for form in cf.ALMOST_PRODUCTS.values())
    yield from ((term, 1) for _fam, pq in cf.THREE_TERM.values() for term, _poly in pq)
    yield from ((cf.CHEBYSHEV_U, 2), (cf.JACOBI_HALF, 2), (cf.CHEBJAC_SCALE, 1))
    yield from ((term, 1) for _fam, _x0, mults in ic._POINT_SPECS.values()
                for term, _poly in mults.values())
    yield from ((ratio, 1) for ratio in ic._RECURSION_RATIOS.values())
    yield from ((term, 3) for _s, term, _coeffs in ic._WEIGHTS_31)


def _is_term(obj) -> bool:
    """(p, q, num, den): two ints, then two tuples of factors, each a kind
    (str or int) and ints."""
    return (type(obj) is tuple and len(obj) == 4
            and all(type(v) is int for v in obj[:2])
            and all(type(fs) is tuple and all(
                type(f) is tuple and f and type(f[0]) in (str, int)
                and all(type(v) is int for v in f[1:]) for f in fs) for fs in obj[2:]))


def _terms_in(obj):
    if _is_term(obj):
        yield obj
    elif isinstance(obj, (tuple, dict)):
        for value in (obj.values() if isinstance(obj, dict) else obj):
            yield from _terms_in(value)


def test_every_factor_has_one_coefficient_per_index_its_reader_passes():
    read = list(_read_terms())
    for term, width in read:
        for factor in (*term[2], *term[3]):
            assert len(factor) == width + 2, (term, factor)
    # every term in a table of src/ is one of them: a new table must be
    # read by a reader listed above, or this fails
    listed = {id(term) for term, _width in read}
    for path in sorted(Path(hankelab.__file__).parent.glob("[!_]*.py")):
        module = import_module(f"hankelab.{path.stem}")
        for name, value in vars(module).items():
            if name.lstrip("_").isupper():
                for term in _terms_in(value):
                    assert id(term) in listed, (path.stem, name, term)
    # the (3,1) weights' polynomials are (n, i, j) tables: ints at depth 3
    for _s, _term, coeffs in identity_checks._WEIGHTS_31:
        for table in (t for c in coeffs for t in c):
            for j_row in table:
                assert all(type(c) is int for i_row in j_row for c in i_row), table


def _weight_31_parts():
    """(s, table term, table coefficients, oracle term, oracle polynomial)."""
    return [(*part, *oracle)
            for part, oracle in zip(identity_checks._WEIGHTS_31, ref.WEIGHT_PARTS_31)]


def test_the_31_weight_tables_equal_the_bodies_they_replaced():
    # on every (i, j) the capped ranges of `explicit_weights_31` sum
    for s, term, coeffs, body, poly in _weight_31_parts():
        for n in range(25):
            for j in range(n + 3):
                for i in range(min(n + s - j, (n + s - 1) // 2) + 1):
                    assert term_value(term, n, i, j) == body(n, i, j), (s, n, i, j)
                    got = Poly([prod(index_poly(t, n, i, j) for t in c) for c in coeffs])
                    assert got == poly(n, i, j), (s, n, i, j)


def test_the_31_weight_caps_drop_only_zero_terms():
    # the bodies were summed to i = n // 2 + 1; past (n + s - 1) // 2 the
    # binomial C(n + s - 1, 2i) makes them 0
    for s, _term, _coeffs, body, _poly in _weight_31_parts():
        for n in range(1, 25):
            for j in range(n + 3):
                for i in range((n + s - 1) // 2 + 1, min(n + s - j, n // 2 + 1) + 1):
                    assert body(n, i, j) == 0, (s, n, i, j)
    # at n = 0 the old cap reached (i, j) = (1, 0), where u divides 0 by 0
    with pytest.raises(ZeroDivisionError):
        ref.WEIGHT_PARTS_31[0][0](0, 1, 0)


def test_the_31_weights_equal_the_sum_they_replaced():
    for n in range(2, 21):
        assert identity_checks.explicit_weights(F31, n) == ref.explicit_weights_31(n), n


def test_every_int_of_the_31_weight_tables_is_load_bearing(monkeypatch):
    # each int of the terms, the polynomial tables and the caps' s, bumped
    # by 1 in turn on a copy, must give explicit-weights a row that is not
    # a pass for (3,1) at n = 2 or 3
    table = identity_checks._WEIGHTS_31

    def flagged():
        return any(r.status != "pass" for r in run_check("explicit-weights", F31, [2, 3]))

    assert not flagged()
    survived = []
    for path in _paths(table):
        monkeypatch.setattr(identity_checks, "_WEIGHTS_31", _bump(table, path))
        if not flagged():
            survived.append(path)
    assert len(list(_paths(table))) == 212 and survived == []


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
