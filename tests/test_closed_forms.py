from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

import pytest

from hankelab import (
    checks, closed_forms, hankel, identities, identity_checks, lemmas, sequences, series,
)
from hankelab.checks import REGISTRY, run_check
from hankelab.identities import POINT_RELATIONS, SYMBOLIC_RELATIONS, RelationId
from hankelab.poly import Poly
from hankelab.closed_forms import (
    ALMOST_PRODUCTS,
    AP_POINTS,
    CHEBJAC_SCALE,
    CHEBYSHEV_U,
    JACOBI_HALF,
    ODES,
    PRODUCTS,
    AlmostProductId,
    ProductFormulaId,
    almost_product_eval,
    chebyshev_jacobi_check,
    interlace_check,
    ode_residual,
    ode_residual_for_det,
    product_eval,
    product_matches_determinant,
    recursion_31at1,
    three_term_31_pq,
    three_term_check,
)
from hankelab.forms import term_sum, term_value
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
    assert almost_product_eval(A.AP21, 1, Fraction(2)) == -3
    assert almost_product_eval(A.AP21AT1, 3) == 1
    assert almost_product_eval(A.AP31ALT, 2, Fraction(1)) == hankel_det_at(F31, 2, 1)
    with pytest.raises(ValueError):
        almost_product_eval(A.AP21AT0, 2, Fraction(1))


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
        for x0 in (Fraction(0), Fraction(7, 3)):
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


# U_n(y) and P_n(y) are sums in t = y - 1: read at y, t is the Poly y - 1
Y_MINUS_1 = Poly([-1, 1])


def test_chebyshev_values():
    assert term_sum(CHEBYSHEV_U, 0, Y_MINUS_1) == Poly([1])
    assert term_sum(CHEBYSHEV_U, 1, Y_MINUS_1) == Poly([0, 2])
    assert term_sum(CHEBYSHEV_U, -1, Y_MINUS_1).is_zero()
    # U_1(1-x) - U_0 = 2(1-x) - 1 = 1 - 2x: at y = 1 - x, t = -x
    u = term_sum(CHEBYSHEV_U, 1, Poly([0, -1])) - term_sum(CHEBYSHEV_U, 0, Poly([0, -1]))
    assert u == Poly([1, -2])
    assert term_sum(CHEBYSHEV_U, 2, Fraction(1)) == 15  # U_2(2) = 4 * 4 - 1


def test_jacobi_values():
    assert term_sum(JACOBI_HALF, 0, Y_MINUS_1) == Poly([1])
    assert term_sum(JACOBI_HALF, 1, Y_MINUS_1) == Poly([Fraction(1, 2), 1])
    # scaled Jacobi at n = 2 matches the determinant: P_2(x - 1), t = x - 2
    scale = Fraction((-4) ** 2 * 2 * 2, 24)
    assert term_value(CHEBJAC_SCALE, 2) == scale
    assert term_sum(JACOBI_HALF, 2, Poly([-2, 1])) * scale == hankel_det(F21, 2)


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
# that reads that form must then give a fail row on its first item, or a
# finding row if it reports findings (the table is `CONTROLS` below).  A
# form stated as data (`hankelab.forms`) is broken in one table entry.


def _bumped(form):
    """An (n, x) table, a tuple of them or a hypergeometric term, with its
    first int plus 1: a term's rational constant p/q becomes (p + 1)/q."""
    first, *rest = form
    return (first + 1 if type(first) is int else _bumped(first), *rest)


def _product_perturbed(pid):
    def mutate(monkeypatch):
        form = PRODUCTS[pid]
        monkeypatch.setitem(PRODUCTS, pid, form._replace(outer=_bumped(form.outer)))

    return mutate


def _coeff_perturbed(aid):
    def mutate(monkeypatch):
        form = ALMOST_PRODUCTS[aid]
        monkeypatch.setitem(ALMOST_PRODUCTS, aid, form._replace(term=_bumped(form.term)))

    return mutate


def _q_perturbed(monkeypatch):
    """q_n of the (3,1) three-term recursion plus its hypergeometric term."""
    p, (term, q) = closed_forms.THREE_TERM_31
    monkeypatch.setattr(closed_forms, "THREE_TERM_31", (p, (term, _bumped(q))))


def _complex_h2(monkeypatch):
    h = closed_forms.hankel_det
    monkeypatch.setattr(closed_forms, "hankel_det",
                        lambda fam, n: Poly([1, 0, 1]) if n == 2 else h(fam, n))


def _shifted_h1(monkeypatch):
    """H_1(x + 100): real-rooted of degree 1, but its root lies far left of H_2's."""
    h = closed_forms.hankel_det
    monkeypatch.setattr(closed_forms, "hankel_det",
                        lambda fam, n: h(fam, 1).compose_affine(1, 100) if n == 1 else h(fam, n))


def _h21_3_plus_one(monkeypatch):
    h = closed_forms.hankel_det
    monkeypatch.setattr(closed_forms, "hankel_det",
                        lambda fam, n: h(fam, n) + 1 if (fam, n) == (F21, 3) else h(fam, n))


def _degree_raised(monkeypatch):
    """H_5 times x: degree 6 at n = 5."""
    h = checks.hankel_det
    monkeypatch.setattr(checks, "hankel_det",
                        lambda fam, n: h(fam, n) * Poly.x() if n == 5 else h(fam, n))


def _ode_c0_perturbed(name):
    """The first table entry of the equation's coefficient of y plus 1: the
    residual gains H_n times the other factors of that coefficient."""
    def mutate(monkeypatch):
        spec = ODES[name]
        c0, *rest = spec.table
        monkeypatch.setitem(ODES, name, spec._replace(table=(_bumped(c0), *rest)))

    return mutate


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
    """The first int of the identity's first table plus 1."""
    def mutate(monkeypatch):
        fam, ((table, kind, offset), *rest) = lemmas.IDENTITIES[iid]
        entry = (_bumped(table), kind, offset)
        monkeypatch.setitem(lemmas.IDENTITIES, iid, (fam, (entry, *rest)))

    return mutate


def _conv_entry_perturbed(monkeypatch):
    conv = lemmas.conv_poly
    monkeypatch.setattr(lemmas, "conv_poly",
                        lambda fam, k: conv(fam, k) + 1 if k == 3 else conv(fam, k))


def _rule_value_perturbed(monkeypatch):
    """The first int of Table 1's first value row plus 1: H' becomes 2H'."""
    (name, kind, offset, ((symbol, row), *terms)), *rules = lemmas.TABLE1
    rule = (name, kind, offset, ((symbol, _bumped(row)), *terms))
    monkeypatch.setattr(lemmas, "TABLE1", (rule, *rules))


def _chebyshev_u_perturbed(monkeypatch):
    """U_n's rational constant 1 made 2: U_n doubled, U_{-1} still 0."""
    monkeypatch.setattr(closed_forms, "CHEBYSHEV_U", _bumped(closed_forms.CHEBYSHEV_U))


def _relation_term_perturbed(rid):
    """The first table entry of the first coefficient of the relation's
    first residual plus 1, read through a memo of the relation terms of its
    own, which starts empty and goes with the mutation."""
    def mutate(monkeypatch):
        family, (((symbol, factors), *rest), *others) = identities._RELATIONS[rid]
        residuals = (((symbol, _bumped(factors)), *rest), *others)
        monkeypatch.setitem(identities._RELATIONS, rid, (family, residuals))
        monkeypatch.setattr(identities, "_relation_terms",
                            lru_cache(maxsize=None)(identities._relation_terms.__wrapped__))

    return mutate


def _point_multiplier_perturbed(rid):
    """The rational constant p/q of the point relation's first K/N/M
    multiplier made (p + 1)/q."""
    def mutate(monkeypatch):
        fam, x0, mults = identity_checks._POINT_SPECS[rid]
        name, mult = next(iter(mults.items()))
        monkeypatch.setitem(identity_checks._POINT_SPECS, rid,
                            (fam, x0, {**mults, name: _bumped(mult)}))

    return mutate


def _crec_ratio_perturbed(monkeypatch):
    """The squared-ratio recursion's constant 9/4 made 10/4."""
    ratio = identity_checks._RECURSION_RATIOS[RelationId.R_CREC]
    monkeypatch.setitem(identity_checks._RECURSION_RATIOS, RelationId.R_CREC, _bumped(ratio))


def _ladder_k3_off_by_one(monkeypatch):
    """K_3 read off a Z[x] ladder plus 1: dodgson takes M_n and H_{n-1},
    H_{n+1} from eliminations of their own, so only the ladder is wrong."""
    read = hankel.Ladder.det

    def off_by_one(lad, n, variant):
        value = read(lad, n, variant)
        if lad.ring is hankel.INT_POLY and n == 3 and variant == "K":
            return [value[0] + 1] + value[1:]
        return value

    monkeypatch.setattr(hankel.Ladder, "det", off_by_one)


# Negative controls of the weight construction: it reads Q0 and Q2 off the
# closed generating-function denominator and checks Q0 against its table's
# parametric (C_0, C_1, C_2), so breaking either must fail every check that
# reads the weights, and the closed denominator also feeds `gfequiv`.


def _closed_den_perturbed(family, power):
    """den + x y^power: y^1 reaches only Q2, y^2 the nullspace rows too."""
    def mutate(monkeypatch):
        form, gf = closed_form_for(family), series.gf_denominator

        def perturbed(f, fam, order):
            den = gf(f, fam, order)
            if f is form:
                den = den + Poly.x() * SeriesYX.y(order).shift_y(power - 1)
            return den

        # gf_fraction and the weight solve read it there
        monkeypatch.setattr(series, "gf_denominator", perturbed)
        monkeypatch.setattr(identity_checks, "_weight_memo", {})

    return mutate


def _c1_perturbed(family):
    """C_1 of the parametric (C_0, C_1, C_2)(Q0) plus 1, in its table."""
    def mutate(monkeypatch):
        form = identity_checks._WEIGHT_FORMS[family]
        c0, c1, c2 = form.q0_params
        monkeypatch.setitem(identity_checks._WEIGHT_FORMS, family,
                            form._replace(q0_params=(c0, _bumped(c1), c2)))
        monkeypatch.setattr(identity_checks, "_weight_memo", {})

    return mutate


def _explicit_weight_perturbed(family):
    """The closed-form weight at j = 0 plus x: no one scalar takes the
    nullspace weights to the closed ones any more."""
    def mutate(monkeypatch):
        form = identity_checks._WEIGHT_FORMS[family]

        def explicit(n):
            first, *rest = form.explicit(n)
            return [first + Poly.x(), *rest]

        monkeypatch.setitem(identity_checks._WEIGHT_FORMS, family, form._replace(explicit=explicit))

    return mutate


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


# Every negative control in one table.  Under the mutation, the check's
# item must give a row of the control's status, where it passed before: the
# default item, or the family's acceptance item when the control names a
# family.  A check that reports findings (`fig4`, `explicit-weights`) must
# give a `finding` row when the form it reports on is broken; a mutation of
# the weight solve or of the generating functions makes every check that
# reads them raise, which is a `fail` row for any check.  `part` says what
# the mutation breaks: a written form, the weight construction or the
# generating functions, one test each below.
Control = namedtuple("Control", "part check family label mutate status")


def _form(check, mutate):
    return Control("form", check, None, None, mutate,
                   "finding" if REGISTRY[check].finding else "fail")


A = AlmostProductId
GENERATING = (F31, F21, F30, F3K2M, FAEX)
CONTROLS = [
    *(_form(pid.value, _product_perturbed(pid)) for pid in ProductFormulaId),
    *(_form(aid.value, _coeff_perturbed(A.AP31)) for aid in (A.AP31, A.AP31AT0, A.AP31AT1)),
    *(_form(aid.value, _coeff_perturbed(A.AP21)) for aid in (A.AP21, A.AP21AT0, A.AP21AT1)),
    _form("ap31alt", _coeff_perturbed(A.AP31ALT)),
    _form("threeterm31", _q_perturbed),
    _form("rec31at1", _q_perturbed),
    _form("interlace", _complex_h2),
    _form("threeterm21", _h21_3_plus_one),
    _form("chebjac", _chebyshev_u_perturbed),
    _form("degree-hn", _degree_raised),
    *(_form(name, _ode_c0_perturbed(name))
      for name in ("de1", "de2np1", "de2np2ak", "thme1", "thme2", "thme3", "thme4", "fig4")),
    _form("degree-random", _degree_bound_lowered),
    _form("tseries", _t_coeff_perturbed),
    *(_form(iid.value, _identity_entry_perturbed(iid)) for iid in lemmas.IdentityId),
    _form("ef", _conv_entry_perturbed),
    _form("table1", _rule_value_perturbed),
    *(_form(rid.value, _relation_term_perturbed(rid)) for rid in SYMBOLIC_RELATIONS),
    *(_form(rid.value, _point_multiplier_perturbed(rid))
      for rid in POINT_RELATIONS if rid is not RelationId.R_CREC),
    _form("r_crec", _crec_ratio_perturbed),
    _form("dodgson", _ladder_k3_off_by_one),
    *(Control("weights", check, fam, f"den-y{power}", _closed_den_perturbed(fam, power), "fail")
      for fam in (F31, F21) for power in (1, 2)
      for check in ("weights", "explicit-weights", "ciden", "gfequiv")),
    *(Control("weights", check, fam, "c1", _c1_perturbed(fam), "fail")
      for fam in (F31, F21) for check in ("weights", "explicit-weights", "ciden")),
    *(Control("weights", "explicit-weights", fam, "explicit", _explicit_weight_perturbed(fam),
              "finding") for fam in (F31, F21)),
    *(Control("series", "fcoeffs", fam, "a3", _a3_perturbed, "fail") for fam in GENERATING),
    *(Control("series", "gfequiv", fam, "den-y1", _closed_den_perturbed(fam, 1), "fail")
      for fam in (F30, F3K2M, FAEX)),
]


def _control_fails(control, monkeypatch):
    check, family = control.check, control.family
    if family is None:
        _fam, lo, hi = REGISTRY[check].default
    else:
        ((*_, lo, hi),) = [item for item in REGISTRY[check].items
                           if item[:2] == ("acceptance", family)]
    assert all(r.status == "pass" for r in run_check(check, family, range(lo, hi + 1)))
    control.mutate(monkeypatch)
    rows = run_check(check, family, range(lo, hi + 1))
    assert any(r.status == control.status for r in rows), rows


def _controls(part):
    """The table's controls of one part, as test parameters."""
    chosen = [c for c in CONTROLS if c.part == part]
    ids = [c.check if c.family is None else f"{c.check}-{c.family}-{c.label}" for c in chosen]
    return pytest.mark.parametrize("control", chosen, ids=ids)


@_controls("form")
def test_check_fails_on_a_broken_form(control, monkeypatch):
    _control_fails(control, monkeypatch)


@_controls("weights")
def test_weight_checks_fail_on_a_broken_form(control, monkeypatch):
    _control_fails(control, monkeypatch)


@_controls("series")
def test_series_checks_fail_on_a_broken_form(control, monkeypatch):
    _control_fails(control, monkeypatch)


def test_interlace_fails_on_real_roots_that_do_not_interlace(monkeypatch):
    # `_complex_h2` breaks real-rootedness; this breaks only the interlacing
    _control_fails(_form("interlace", _shifted_h1), monkeypatch)


def test_point_forms_fail_where_the_point_determinant_is_wrong(monkeypatch):
    # a form read at a point is compared with the family's determinant at
    # that point as well as with the value the paper states, so a wrong H_3
    # there fails n = 3 and no other n
    at = checks.hankel_det_at
    monkeypatch.setattr(checks, "hankel_det_at", lambda fam, n, x: at(fam, n, x) + (n == 3))
    for check in ("ap31at0", "ap31at1", "ap21at0", "ap21at1", "rec31at1"):
        _fam, lo, hi = REGISTRY[check].default
        rows = run_check(check, None, range(lo, hi + 1))
        assert [(r.n, r.status) for r in rows if r.status != "pass"] == [(3, "fail")], check


def test_every_check_has_a_negative_control():
    # a check added to the table without a control fails here
    controlled = {c.check for c in CONTROLS}
    assert [check for check in REGISTRY if check not in controlled] == []
