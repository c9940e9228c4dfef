"""Acceptance criteria, one test per criterion, all exact (no tolerances).

Each test prints a single pass/fail line.  The n = 20 factorization
displays carry the slow marker; everything else runs in the default
selection.  Findings (the unproven fourth-order ODE, the conjectural
closed-form weights) are reported but do not fail the gate, matching
their reported-not-asserted contract.
"""

import pytest

from conftest import acceptance_line

from hankelab.closed_forms import (
    ODES,
    PRODUCTS,
    almost_product_eval,
    chebyshev_jacobi_check,
    interlace_check,
    ode_residual,
    product_eval,
    product_matches_determinant,
    three_term_check,
)
from hankelab.factor import factor_smooth
from hankelab.hankel import hankel_det, hankel_det_at
from hankelab.hankel_checks import dodgson_check
from hankelab.identities import SYMBOLIC_RELATIONS, check_relation
from hankelab.identity_checks import POINT_RELATIONS, explicit_weights_match, weight_nullspace
from hankelab.lemmas import (
    IDENTITIES, check_identity, check_matrix_convolution_identities, trace_values,
)
from hankelab.checks import DEGREE_THEOREM_FAMILIES, run_check
from hankelab.report import FAIL
from hankelab.sequences import (
    ALL_FAMILIES,
    F21,
    F30,
    F31,
    F32,
    F3K2M,
    FAEX,
    FamilyId,
    a_poly,
)
from hankelab.series import (
    f_series,
    gf_form_equiv,
    t_residual,
    t_series,
)


def test_criterion_1_factorization_golden_n10():
    ok = True
    rep = factor_smooth(int(hankel_det_at(F31, 10, 0)), 10**6)
    ok &= rep.small_factors == ((2, 2), (7, 2), (37, 1), (41, 2), (43, 3), (47, 2), (53, 1))
    ok &= rep.cofactor == 41740796329
    rep32 = factor_smooth(int(hankel_det_at(F31, 10, 1)), 10**6)
    ok &= rep32.small_factors == (
        (2, 2), (3, 1), (7, 3), (37, 1), (41, 2), (43, 3), (47, 3), (53, 2), (59, 1), (61, 1),
    )
    ok &= rep32.cofactor == 1
    acceptance_line("01", ok, "n=10 factorization displays match exactly")
    assert ok


@pytest.mark.slow
def test_criterion_1_factorization_golden_n20():
    ok = True
    rep = factor_smooth(int(hankel_det_at(F31, 20, 0)), 10**6)
    ok &= rep.small_factors == (
        (3, 8), (29, 1), (67, 1), (71, 2), (73, 3), (79, 5), (83, 6), (89, 5),
        (97, 4), (101, 3), (103, 3), (107, 2), (109, 2), (113, 1), (631, 1),
    )
    ok &= rep.cofactor == 548377971864917477341
    rep32 = factor_smooth(int(hankel_det_at(F31, 20, 1)), 10**6)
    ok &= rep32.small_factors == (
        (3, 7), (11, 1), (17, 1), (29, 2), (31, 1), (67, 1), (71, 2), (73, 3),
        (79, 5), (83, 6), (89, 6), (97, 5), (101, 4), (103, 4), (107, 3),
        (109, 3), (113, 2),
    )
    ok &= rep32.cofactor == 1
    acceptance_line("01s", ok, "n=20 factorization displays match exactly")
    assert ok


def test_criterion_2_almost_product_equivalence():
    bad = []
    for n in range(0, 13):
        if almost_product_eval("ap31", n) != hankel_det(F31, n):
            bad.append(("ap31", n))
        if almost_product_eval("ap31alt", n) != almost_product_eval("ap31", n):
            bad.append(("ap31alt", n))
    for n in range(0, 16):
        if almost_product_eval("ap21", n) != hankel_det(F21, n):
            bad.append(("ap21", n))
    acceptance_line("02", not bad, "almost products equal fraction-free determinants")
    assert not bad, bad


def test_criterion_3_product_formulas_at_special_points():
    bad = []
    for pid in PRODUCTS:
        top = 20 if pid in ("p21at0", "p21at2") else 10
        for n in range(0, top + 1):
            if not product_matches_determinant(pid, n):
                bad.append((pid, n))
    # the (3,2) product also equals the (3,1) determinant at x = 1, and the
    # alternate (-4)^i sum gives a second independent route to it
    for n in range(0, 11):
        want = product_eval("p32", n)
        if hankel_det_at(F31, n, 1) != want:
            bad.append(("p32 via (3,1) at x=1", n))
        if almost_product_eval("ap31at1", n) != want:
            bad.append(("second route (-4)^i sum", n))
        if almost_product_eval("ap21at0", n) != 1:
            bad.append(("ap21at0 != 1", n))
        if almost_product_eval("ap21at1", n) != (-1) ** ((n * (n + 1)) // 2):
            bad.append(("ap21at1 sign", n))
    acceptance_line("03", not bad, "product formulas at special points, exact")
    assert not bad, bad


def test_criterion_4_ode_residuals():
    bad = []
    ranges = {
        "de1": 12, "de2np1": 15, "thme1": 10, "thme2": 10, "thme3": 10,
        "thme4": 10, "de2np2ak": 12,
    }
    for name, top in ranges.items():
        spec = ODES[name]
        for n in range(1, top + 1):
            if not ode_residual(spec, n, hankel_det(spec.family, n)).is_zero():
                bad.append((name, n))
    findings = []
    spec = ODES["fig4"]
    for n in range(1, 9):
        if not ode_residual(spec, n, hankel_det(F32, n)).is_zero():
            findings.append(("fig4", n))
    note = "" if not findings else f" (findings: {findings})"
    acceptance_line("04", not bad, "ODE residuals are the zero polynomial" + note)
    assert not bad, bad


def test_criterion_5_identity_suites():
    bad = []
    for iid in IDENTITIES:
        fails = check_identity(iid, 30)
        if fails:
            bad.append((iid, fails))
    for rid in (*SYMBOLIC_RELATIONS, *POINT_RELATIONS):
        for n in range(2, 11):
            if not check_relation(rid, n):
                bad.append((rid, n))
    for fam in (F31, F21):
        for n in range(0, 7):
            if not check_matrix_convolution_identities(fam, n):
                bad.append(("ef", fam.name, n))
        for n in range(1, 6):
            failed = [name for name, got, want in trace_values(fam, n) if got != want]
            if failed:
                bad.append(("table1", fam.name, n, failed))
    acceptance_line("05", not bad, "identity, relation, E/F, and trace-rule suites")
    assert not bad, bad


def test_criterion_6_weight_machinery():
    bad = []
    for fam in (F31, F21):
        for n in range(1, 13):
            try:
                weight_nullspace(fam, n)  # asserts dim 1, annihilation, (p,q,r)
            except Exception as exc:
                bad.append((fam.name, n, str(exc)))
    for n in range(1, 13):
        ok, msg = explicit_weights_match(F21, n)
        if not ok:
            bad.append(("weights2np1", n, msg))
    findings = []
    for n in range(2, 9):
        ok, msg = explicit_weights_match(F31, n)
        if not ok:
            findings.append(("weights2", n, msg))
    note = "" if not findings else f" (findings: {findings})"
    acceptance_line("06", not bad, "third-identity weight machinery" + note)
    assert not bad, bad


def test_criterion_7_dodgson_identity():
    bad = [
        (fam.name, n)
        for fam in ALL_FAMILIES
        for n in range(1, 11)
        if not dodgson_check(fam, n)
    ]
    acceptance_line("07", not bad, "Dodgson-like identity across all families, n=1..10")
    assert not bad, bad


def test_criterion_8_degree_theorem():
    bad = []
    rows = run_check("degree-random", None, [200])
    if any(r.status == FAIL for r in rows):
        bad.append(("random instances", rows[0].detail))
    for fam in DEGREE_THEOREM_FAMILIES:
        for n in range(0, 13):
            if hankel_det(fam, n).degree > n:
                bad.append((fam.name, n))
    # aex lies outside the degree theorem (weighted entries); observed n+1
    for n in range(0, 13):
        if hankel_det(FAEX, n).degree > n + 1:
            bad.append(("aex beyond n+1", n))
    acceptance_line("08", not bad, "degree bounds: 200 random instances and deg H_n <= n")
    assert not bad, bad


def test_criterion_9_structure_results():
    bad = []
    for n in range(2, 11):
        if not three_term_check("threeterm31", n):
            bad.append(("threeterm31", n))
    for n in range(2, 16):
        if not three_term_check("threeterm21", n):
            bad.append(("threeterm21", n))
    for n in range(0, 13):
        if not chebyshev_jacobi_check(n):
            bad.append(("chebjac", n))
    for n in range(1, 9):
        if not interlace_check(n):
            bad.append(("interlace", n))
    acceptance_line("09", not bad, "three-term recursions, Chebyshev/Jacobi, interlacing")
    assert not bad, bad


def test_criterion_10_generating_functions():
    bad = []
    for beta in (2, 3):
        if any(t_residual(beta, 25)):
            bad.append(("t-residual", beta))
    t3 = t_series(3, 3)
    if list(t3) != [1, 1, 3, 12]:
        bad.append(("t3 prefix",))
    t2 = t_series(2, 3)
    if list(t2) != [1, 1, 2, 5]:
        bad.append(("t2 prefix",))
    for fam in (F31, F21, F30, F3K2M, FAEX):
        ok, _res = gf_form_equiv(fam, 25)
        if not ok:
            bad.append(("equiv", fam.name))
        series = f_series(fam, 25, True)
        for k, c in enumerate(series):
            if c != a_poly(fam, k):
                bad.append(("coeff", fam.name, k))
    acceptance_line("10", not bad, "generating functions: direct/closed to order 25")
    assert not bad, bad
