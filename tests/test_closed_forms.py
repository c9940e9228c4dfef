from fractions import Fraction

import pytest

from hankelab import checks, closed_forms, identities, lemmas, sequences, series
from hankelab.checks import REGISTRY, run_check
from hankelab.poly import Poly
from hankelab.rat import Rat
from hankelab.closed_forms import (
    ALMOST_PRODUCTS,
    AP_POINTS,
    ODES,
    PRODUCTS,
    AlmostProductId,
    ProductFormulaId,
    almost_product_eval,
    chebyshev_jacobi_check,
    chebyshev_u,
    interlace_check,
    jacobi_half,
    ode_residual,
    ode_residual_for_det,
    product_eval,
    product_matches_determinant,
    recursion_31at1,
    three_term_31_pq,
    three_term_check,
)
from hankelab.hankel import hankel_det, hankel_det_at
from hankelab.sequences import F21, F30, F31, F3K2M, FAEX
from hankelab.series import SeriesYX, closed_form_for


def test_product_values_hand_checked():
    P = ProductFormulaId
    assert product_eval(P.P31AT3, 0) == 1 and product_eval(P.P31AT3, 1) == -1
    assert product_eval(P.P31AT3HALF, 0) == 1 and product_eval(P.P31AT3HALF, 1) == 2
    assert product_eval(P.P32, 1) == 3
    assert product_eval(P.P21AT2, 3) == -7
    assert product_eval(P.P21AT0, 17) == 1
    # the source text labels this H_1(3/2), but the 3/4 context demands 7/2
    assert product_eval(P.P31AT3QUARTER, 1) == Fraction(7, 2)
    assert hankel_det_at(F31, 1, Fraction(3, 4)) == Fraction(7, 2)


def test_products_match_determinants():
    for pid in ProductFormulaId:
        for n in range(0, 7):
            assert product_matches_determinant(pid, n), (pid, n)


def test_almost_product_examples():
    A = AlmostProductId
    assert almost_product_eval(A.AP31, 1) == Poly([5, -2])
    assert almost_product_eval(A.AP21, 1, Rat(2)) == -3
    assert almost_product_eval(A.AP21AT1, 3) == 1
    assert almost_product_eval(A.AP31ALT, 2, Rat(1)) == hankel_det_at(F31, 2, 1)
    with pytest.raises(ValueError):
        almost_product_eval(A.AP21AT0, 2, Rat(1))


def test_almost_products_match_determinants():
    A = AlmostProductId
    for n in range(0, 8):
        assert almost_product_eval(A.AP31, n) == hankel_det(F31, n)
        assert almost_product_eval(A.AP31ALT, n) == hankel_det(F31, n)
        assert almost_product_eval(A.AP21, n) == hankel_det(F21, n)


def test_point_vs_symbolic_substitution():
    # substitute-then-sum equals sum-then-substitute
    A = AlmostProductId
    for n in (2, 5):
        for x0 in (Rat(0), Rat(7, 3)):
            assert almost_product_eval(A.AP31, n, x0) == almost_product_eval(A.AP31, n)(x0)


def test_ode_hand_instances():
    assert ode_residual(ODES["de1"], 1, Poly([5, -2])).is_zero()
    assert ode_residual(ODES["de2np1"], 1, Poly([1, -2])).is_zero()
    assert not ode_residual(ODES["de1"], 1, Poly([0, 1])).is_zero()


def test_ode_residuals_small():
    for name in ODES:
        for n in range(1, 6):
            assert ode_residual_for_det(name, n).is_zero(), (name, n)


def test_three_term_21_reproduces_h2():
    # H_2 = 2(1-x) H_1 - H_0 with H_1 = 1 - 2x
    h2 = Poly([2, -2]) * Poly([1, -2]) - Poly([1])
    assert h2 == Poly([1, -6, 4])
    assert h2 == hankel_det(F21, 2)
    assert three_term_check("c21", 2)


def test_three_term_31_coefficients():
    p2, q2 = three_term_31_pq(2)
    assert p2 == Poly([1, -2, 1]) * Fraction(4, 9)
    lhs = p2 * hankel_det(F31, 2) + q2 * hankel_det(F31, 1) + hankel_det(F31, 0)
    assert lhs.is_zero()
    for n in range(2, 8):
        assert three_term_check("c31", n)
    with pytest.raises(ValueError):
        three_term_check("c31", 1)


def test_recursion_31at1():
    assert recursion_31at1(0) == 1
    assert recursion_31at1(1) == 3
    for n in range(0, 8):
        assert recursion_31at1(n) == product_eval(ProductFormulaId.P32, n)


def test_chebyshev_values():
    assert chebyshev_u(0) == Poly([1])
    assert chebyshev_u(1) == Poly([0, 2])
    assert chebyshev_u(-1).is_zero()
    # U_1(1-x) - U_0 = 2(1-x) - 1 = 1 - 2x
    u = chebyshev_u(1).compose_affine(-1, 1) - chebyshev_u(0)
    assert u == Poly([1, -2])


def test_jacobi_values():
    assert jacobi_half(0) == Poly([1])
    assert jacobi_half(1) == Poly([Fraction(1, 2), 1])
    # scaled Jacobi at n = 2 matches the determinant
    scale = Fraction((-4) ** 2 * 2 * 2, 24)
    assert jacobi_half(2).compose_affine(1, -1) * scale == hankel_det(F21, 2)


def test_chebyshev_jacobi_check():
    for n in range(0, 8):
        assert chebyshev_jacobi_check(n), n


def test_interlace_small():
    # the single root 5/2 of H_1 lies between the two real roots of H_2
    assert interlace_check(1)
    assert interlace_check(2)
    with pytest.raises(ValueError):
        interlace_check(0)


def test_every_formula_id_has_exactly_one_table_entry():
    assert set(PRODUCTS) == set(ProductFormulaId)
    assert not set(ALMOST_PRODUCTS) & set(AP_POINTS)
    assert set(ALMOST_PRODUCTS) | set(AP_POINTS) == set(AlmostProductId)
    assert all(base in ALMOST_PRODUCTS for base, _x in AP_POINTS.values())


# Negative controls: each mutation breaks one written form, and every check
# that reads that form must then give a fail row on its first item.


def _double_product(pid):
    def mutate(monkeypatch):
        form = PRODUCTS[pid]
        monkeypatch.setitem(PRODUCTS, pid, form._replace(value=lambda n: 2 * form.value(n)))

    return mutate


def _top_coeff_doubled(aid):
    def mutate(monkeypatch):
        form = ALMOST_PRODUCTS[aid]

        def coeff(n, i):
            return form.coeff(n, i) * (2 if i == n else 1)

        monkeypatch.setitem(ALMOST_PRODUCTS, aid, form._replace(coeff=coeff))

    return mutate


def _q_perturbed(monkeypatch):
    pq = closed_forms.three_term_31_pq
    monkeypatch.setattr(closed_forms, "three_term_31_pq", lambda n: (pq(n)[0], pq(n)[1] + 1))


def _complex_h2(monkeypatch):
    h = closed_forms.hankel_det
    monkeypatch.setattr(closed_forms, "hankel_det",
                        lambda fam, n: Poly([1, 0, 1]) if n == 2 else h(fam, n))


def _de1_c0_perturbed(monkeypatch):
    spec = ODES["de1"]

    def coeffs(n):
        c = spec.coeffs(n)
        return [c[0] + 1, *c[1:]]

    monkeypatch.setitem(ODES, "de1", spec._replace(coeffs=coeffs))


def _degree_bound_lowered(monkeypatch):
    # 149 of the 200 instances sit exactly at the bound
    bound = checks.degree_bound
    monkeypatch.setattr(checks, "degree_bound", lambda inst: bound(inst) - 1)


def _t_coeff_perturbed(monkeypatch):
    t = series.t_series
    monkeypatch.setattr(series, "t_series",
                        lambda beta, order: t(beta, order) + SeriesYX(order, [0] * 5 + [1]))
    monkeypatch.setattr(series, "_gf_memo", {})


def _identity_entry_perturbed(iid):
    """The first int of the identity's first table entry plus 1."""
    def mutate(monkeypatch):
        fam, ((a, b, kind, offset), *rest) = lemmas.IDENTITIES[iid]
        entry = ((a[0] + 1, *a[1:]), b, kind, offset)
        monkeypatch.setitem(lemmas.IDENTITIES, iid, (fam, (entry, *rest)))

    return mutate


def _conv_entry_perturbed(monkeypatch):
    conv = lemmas.conv_poly
    monkeypatch.setattr(lemmas, "conv_poly",
                        lambda fam, k: conv(fam, k) + 1 if k == 3 else conv(fam, k))


def _rule_value_perturbed(monkeypatch):
    rules = identities.table1_rules

    def perturbed(family, n):
        (name, x, value), *rest = rules(family, n)
        return [(name, x, value + 1), *rest]

    monkeypatch.setattr(identities, "table1_rules", perturbed)


A = AlmostProductId
NEGATIVE_CONTROLS = [
    *((pid.value, _double_product(pid)) for pid in ProductFormulaId),
    *((aid.value, _top_coeff_doubled(A.AP31)) for aid in (A.AP31, A.AP31AT0, A.AP31AT1)),
    *((aid.value, _top_coeff_doubled(A.AP21)) for aid in (A.AP21, A.AP21AT0, A.AP21AT1)),
    ("ap31alt", _top_coeff_doubled(A.AP31ALT)),
    ("threeterm31", _q_perturbed),
    ("rec31at1", _q_perturbed),
    ("interlace", _complex_h2),
    ("de1", _de1_c0_perturbed),
    ("degree-random", _degree_bound_lowered),
    ("tseries", _t_coeff_perturbed),
    *((iid.value, _identity_entry_perturbed(iid)) for iid in lemmas.IdentityId),
    ("ef", _conv_entry_perturbed),
    ("table1", _rule_value_perturbed),
]


@pytest.mark.parametrize("check,mutate", NEGATIVE_CONTROLS,
                         ids=[c for c, _m in NEGATIVE_CONTROLS])
def test_check_fails_on_a_broken_form(check, mutate, monkeypatch):
    _fam, lo, hi = REGISTRY[check].default
    assert all(r.status == "pass" for r in run_check(check, None, range(lo, hi + 1)))
    mutate(monkeypatch)
    rows = run_check(check, None, range(lo, hi + 1))
    assert any(r.status == "fail" for r in rows), rows


# Negative controls of the weight construction: it reads Q0 and Q2 off the
# closed generating-function denominator and checks Q0 against its table's
# parametric (C_0, C_1, C_2), so breaking either must fail every check that
# reads the weights, and the closed denominator also feeds `gfequiv`.


def _closed_den_perturbed(family, power):
    """den + x y^power: y^1 reaches only Q2, y^2 the nullspace rows too."""
    def mutate(monkeypatch):
        form, gf = closed_form_for(family), series.gf_fraction

        def perturbed(f, fam, order):
            num, den = gf(f, fam, order)
            if f is form:
                den = den + Poly.x() * SeriesYX.y(order).shift_y(power - 1)
            return num, den

        monkeypatch.setattr(series, "gf_fraction", perturbed)  # identities reads it there too
        monkeypatch.setattr(identities, "_weight_memo", {})

    return mutate


def _c1_perturbed(family):
    def mutate(monkeypatch):
        form = identities._WEIGHT_FORMS[family]

        def q0_params(n):
            c0, c1, c2 = form.q0_params(n)
            return c0, c1 + 1, c2

        monkeypatch.setitem(identities._WEIGHT_FORMS, family, form._replace(q0_params=q0_params))
        monkeypatch.setattr(identities, "_weight_memo", {})

    return mutate


WEIGHT_CONTROLS = [
    *((check, fam, f"den-y{power}", _closed_den_perturbed(fam, power))
      for fam in (F31, F21) for power in (1, 2)
      for check in ("weights", "explicit-weights", "ciden", "gfequiv")),
    *((check, fam, "c1", _c1_perturbed(fam))
      for fam in (F31, F21) for check in ("weights", "explicit-weights", "ciden")),
]


def _family_item_fails(check, family, mutate, monkeypatch):
    ((*_, lo, hi),) = [item for item in REGISTRY[check].items
                       if item[:2] == ("acceptance", family)]
    assert all(r.status == "pass" for r in run_check(check, family, range(lo, hi + 1)))
    mutate(monkeypatch)
    rows = run_check(check, family, range(lo, hi + 1))
    assert any(r.status == "fail" for r in rows), rows


@pytest.mark.parametrize("check,family,mutate", [(c, f, m) for c, f, _k, m in WEIGHT_CONTROLS],
                         ids=[f"{c}-{f}-{k}" for c, f, k, _m in WEIGHT_CONTROLS])
def test_weight_checks_fail_on_a_broken_form(check, family, mutate, monkeypatch):
    _family_item_fails(check, family, mutate, monkeypatch)


# Negative controls of the generating-function checks: a wrong a_3 must fail
# `fcoeffs` for every family (for aex only since it expands the closed form:
# its direct form is the literal sum of the a_k, so it equals any a_k), and a
# perturbed closed denominator must fail `gfequiv`.


def _a3_perturbed(monkeypatch):
    raw = sequences._a_poly_raw
    monkeypatch.setattr(sequences, "_a_poly_raw",
                        lambda fam, k: raw(fam, k) + Poly([1, 0, 0, 1]) if k == 3 else raw(fam, k))
    monkeypatch.setattr(sequences, "_a_memo", {})
    monkeypatch.setattr(series, "_gf_memo", {})  # aex's direct form reads a_k


GENERATING = (F31, F21, F30, F3K2M, FAEX)
SERIES_CONTROLS = [
    *(("fcoeffs", fam, "a3", _a3_perturbed) for fam in GENERATING),
    *(("gfequiv", fam, "den-y1", _closed_den_perturbed(fam, 1)) for fam in (F30, F3K2M, FAEX)),
]


@pytest.mark.parametrize("check,family,mutate", [(c, f, m) for c, f, _k, m in SERIES_CONTROLS],
                         ids=[f"{c}-{f}-{k}" for c, f, k, _m in SERIES_CONTROLS])
def test_series_checks_fail_on_a_broken_form(check, family, mutate, monkeypatch):
    _family_item_fails(check, family, mutate, monkeypatch)
