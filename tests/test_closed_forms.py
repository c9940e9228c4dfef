from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

import pytest

from hankelab import (
    checks, cli, closed_forms, hankel, identities, identity_checks, lemmas, sequences, series,
)
from hankelab.checks import REGISTRY, run_check
from hankelab.identities import SYMBOLIC_RELATIONS
from hankelab.identity_checks import POINT_RELATIONS
from hankelab.poly import Poly
from hankelab.closed_forms import (
    ALMOST_PRODUCTS,
    AP_POINTS,
    CHEBJAC_SCALE,
    CHEBYSHEV_U,
    JACOBI_HALF,
    ODES,
    PRODUCTS,
    THREE_TERM,
    almost_product_eval,
    chebyshev_jacobi_check,
    interlace_check,
    ode_residual,
    ode_residual_for_det,
    product_eval,
    product_matches_determinant,
    recursion_31at1,
    three_term_check,
    three_term_pq,
)
from hankelab.forms import term_sum, term_value
from hankelab.hankel import hankel_det, hankel_det_at
from hankelab.sequences import F21, F30, F31, F3K2M, FAEX


def test_product_values_hand_checked():
    assert product_eval("p31at3", 0) == 1 and product_eval("p31at3", 1) == -1
    assert product_eval("p31at3half", 0) == 1 and product_eval("p31at3half", 1) == 2
    assert product_eval("p32", 1) == 3
    assert product_eval("p21at2", 3) == -7
    assert product_eval("p21at0", 17) == 1
    # the source text labels this H_1(3/2), but the 3/4 context demands 7/2
    assert product_eval("p31at3quarter", 1) == Fraction(7, 2)
    assert hankel_det_at(F31, 1, Fraction(3, 4)) == Fraction(7, 2)


def test_products_match_determinants():
    for pid in PRODUCTS:
        for n in range(0, 7):
            assert product_matches_determinant(pid, n), (pid, n)


def test_almost_product_examples():
    assert almost_product_eval("ap31", 1) == Poly([5, -2])
    assert almost_product_eval("ap21", 1, Fraction(2)) == -3
    assert almost_product_eval("ap21at1", 3) == 1
    assert almost_product_eval("ap31alt", 2, Fraction(1)) == hankel_det_at(F31, 2, 1)
    with pytest.raises(ValueError):
        almost_product_eval("ap21at0", 2, Fraction(1))


def test_almost_products_match_determinants():
    for n in range(0, 8):
        assert almost_product_eval("ap31", n) == hankel_det(F31, n)
        assert almost_product_eval("ap31alt", n) == hankel_det(F31, n)
        assert almost_product_eval("ap21", n) == hankel_det(F21, n)


def test_point_vs_symbolic_substitution():
    # substitute-then-sum equals sum-then-substitute
    for n in (2, 5):
        for x0 in (Fraction(0), Fraction(7, 3)):
            assert almost_product_eval("ap31", n, x0) == almost_product_eval("ap31", n)(x0)


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
    assert three_term_check("threeterm21", 2)


def test_three_term_31_coefficients():
    p2, q2 = three_term_pq("threeterm31", 2)
    assert p2 == Poly([1, -2, 1]) * Fraction(4, 9)
    lhs = p2 * hankel_det(F31, 2) + q2 * hankel_det(F31, 1) + hankel_det(F31, 0)
    assert lhs.is_zero()
    for n in range(2, 8):
        assert three_term_check("threeterm31", n)
    with pytest.raises(ValueError):
        three_term_check("threeterm31", 1)


def test_recursion_31at1():
    assert recursion_31at1(0) == 1
    assert recursion_31at1(1) == 3
    for n in range(0, 8):
        assert recursion_31at1(n) == product_eval("p32", n)


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


def test_every_formula_id_has_exactly_one_table_entry(capsys):
    # each check id keys one entry of one form table, and `formula --id`
    # takes exactly the ids of the product and almost-product tables
    tables = (PRODUCTS, ALMOST_PRODUCTS, AP_POINTS, lemmas.IDENTITIES,
              identities._RELATIONS, identity_checks._POINT_SPECS, THREE_TERM)
    keys = [key for table in tables for key in table]
    assert len(keys) == len(set(keys))
    assert set(keys) <= set(REGISTRY)
    assert all(base in ALMOST_PRODUCTS for base, _x in AP_POINTS.values())
    accepted = {check for check in REGISTRY
                if cli.main(["formula", "--id", check, "--n", "0"]) == 0}
    capsys.readouterr()
    assert accepted == {*PRODUCTS, *ALMOST_PRODUCTS, *AP_POINTS}


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


def _q_perturbed(check):
    """q_n of the three-term recursion plus its hypergeometric term."""
    def mutate(monkeypatch):
        family, (p, (term, q)) = THREE_TERM[check]
        monkeypatch.setitem(THREE_TERM, check, (family, (p, (term, _bumped(q)))))

    return mutate


def _complex_h2(monkeypatch):
    h = closed_forms.hankel_det
    monkeypatch.setattr(closed_forms, "hankel_det",
                        lambda fam, n: Poly([1, 0, 1]) if n == 2 else h(fam, n))


def _shifted_h1(monkeypatch):
    """H_1(x + 100): real-rooted of degree 1, but its root lies far left of H_2's."""
    h = closed_forms.hankel_det
    monkeypatch.setattr(closed_forms, "hankel_det",
                        lambda fam, n: h(fam, 1).compose_affine(1, 100) if n == 1 else h(fam, n))


def _degree_raised(monkeypatch):
    """H_5 times x: degree 6 at n = 5."""
    h = checks.hankel_det
    monkeypatch.setattr(checks, "hankel_det",
                        lambda fam, n: h(fam, n) * Poly([0, 1]) if n == 5 else h(fam, n))


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
    """Coefficient 5 of t plus 1."""
    t = series.t_series
    monkeypatch.setattr(series, "t_series",
                        lambda beta, order: tuple(c + (k == 5) for k, c in enumerate(t(beta, order))))
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
    ratio = identity_checks._RECURSION_RATIOS["r_crec"]
    monkeypatch.setitem(identity_checks._RECURSION_RATIOS, "r_crec", _bumped(ratio))


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
    """The closed denominator's table plus the term x y^power: y^1 reaches
    only Q2, y^2 the nullspace rows too."""
    def mutate(monkeypatch):
        form = series.CLOSED_FORMS[family]
        monkeypatch.setitem(series.CLOSED_FORMS, family,
                            form._replace(den=(*form.den, ((0, 1), power, 0))))
        monkeypatch.setattr(series, "_gf_memo", {})
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
            return [first + Poly([0, 1]), *rest]

        monkeypatch.setitem(identity_checks._WEIGHT_FORMS, family, form._replace(explicit=explicit))

    return mutate


def _weight_table_bumped(monkeypatch):
    """The rational constant of the first (3,1) weight term made 7/6 of
    itself: that part of every closed-form weight grows by 7/6, the other
    does not, so no one scalar matches the nullspace weights."""
    (s, term, coeffs), *rest = identity_checks._WEIGHTS_31
    monkeypatch.setattr(identity_checks, "_WEIGHTS_31", ((s, _bumped(term), coeffs), *rest))


# Negative controls of the generating-function checks: a wrong a_3 must fail
# `fcoeffs` for every family (for aex only since it expands the closed form:
# its direct form is the literal sum of the a_k, so it equals any a_k), and a
# closed denominator with its first int plus 1 must fail `gfequiv` (that
# int sits in a y^1 term of each of the three, hence the label "den-y1").


def _closed_den_bumped(family):
    def mutate(monkeypatch):
        form = series.CLOSED_FORMS[family]
        monkeypatch.setitem(series.CLOSED_FORMS, family, form._replace(den=_bumped(form.den)))
        monkeypatch.setattr(series, "_gf_memo", {})

    return mutate


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


GENERATING = (F31, F21, F30, F3K2M, FAEX)
CONTROLS = [
    *(_form(pid, _product_perturbed(pid)) for pid in PRODUCTS),
    *(_form(aid, _coeff_perturbed("ap31")) for aid in ("ap31", "ap31at0", "ap31at1")),
    *(_form(aid, _coeff_perturbed("ap21")) for aid in ("ap21", "ap21at0", "ap21at1")),
    _form("ap31alt", _coeff_perturbed("ap31alt")),
    _form("threeterm31", _q_perturbed("threeterm31")),
    _form("rec31at1", _q_perturbed("threeterm31")),
    _form("interlace", _complex_h2),
    _form("threeterm21", _q_perturbed("threeterm21")),
    _form("chebjac", _chebyshev_u_perturbed),
    _form("degree-hn", _degree_raised),
    *(_form(name, _ode_c0_perturbed(name))
      for name in ("de1", "de2np1", "de2np2ak", "thme1", "thme2", "thme3", "thme4", "fig4")),
    _form("degree-random", _degree_bound_lowered),
    _form("tseries", _t_coeff_perturbed),
    *(_form(iid, _identity_entry_perturbed(iid)) for iid in lemmas.IDENTITIES),
    _form("ef", _conv_entry_perturbed),
    _form("table1", _rule_value_perturbed),
    *(_form(rid, _relation_term_perturbed(rid)) for rid in SYMBOLIC_RELATIONS),
    *(_form(rid, _point_multiplier_perturbed(rid)) for rid in POINT_RELATIONS if rid != "r_crec"),
    _form("r_crec", _crec_ratio_perturbed),
    _form("dodgson", _ladder_k3_off_by_one),
    *(Control("weights", check, fam, f"den-y{power}", _closed_den_perturbed(fam, power), "fail")
      for fam in (F31, F21) for power in (1, 2)
      for check in ("weights", "explicit-weights", "ciden", "gfequiv")),
    *(Control("weights", check, fam, "c1", _c1_perturbed(fam), "fail")
      for fam in (F31, F21) for check in ("weights", "explicit-weights", "ciden")),
    *(Control("weights", "explicit-weights", fam, "explicit", _explicit_weight_perturbed(fam),
              "finding") for fam in (F31, F21)),
    Control("weights", "explicit-weights", F31, "table", _weight_table_bumped, "finding"),
    *(Control("series", "fcoeffs", fam, "a3", _a3_perturbed, "fail") for fam in GENERATING),
    *(Control("series", "gfequiv", fam, "den-y1", _closed_den_bumped(fam), "fail")
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
