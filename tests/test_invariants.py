"""Cross-module invariants that tie the suites together."""

import random
from fractions import Fraction

from hankelab.closed_forms import ProductFormulaId, product_eval
from hankelab.hankel import hankel_det, hankel_det_at, quartet
from hankelab.identities import (
    SYMBOLIC_RELATIONS,
    _combine,
    _relation_terms,
    jet_quartet,
    relation_residuals,
    relation_residuals_at,
)
from hankelab.jet import JetNotInvertible
from hankelab.rat import Rat
from hankelab.sequences import F21, F31


def test_crecursion_iteration_reproduces_product():
    # iterate H_{n+1} = ratio(n) H_n^2 / H_{n-1} at x = 3 from H_0 = 1,
    # H_1 = -1 and compare against the factorial product, n <= 10
    h_prev, h_cur = Rat(1), Rat(-1)
    values = [h_prev, h_cur]
    for n in range(1, 10):
        ratio = Rat(
            9 * (3 * n + 4) * (3 * n + 5) * (6 * n - 1) * (6 * n + 1),
            4 * (4 * n + 1) * (4 * n + 3) ** 2 * (4 * n + 5),
        )
        h_prev, h_cur = h_cur, ratio * h_cur * h_cur / h_prev
        values.append(h_cur)
    for n, value in enumerate(values):
        assert value == product_eval(ProductFormulaId.P31AT3, n)
        assert value == hankel_det_at(F31, n, 3)


def test_degree_exactly_n_for_31_and_21():
    # the theorem gives <= n; for these two families equality is observed
    for fam in (F31, F21):
        for n in range(0, 13):
            assert hankel_det(fam, n).degree == n


def _screen_point(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 9))


def _screen_points(seed, count):
    rng = random.Random(seed)
    return [_screen_point(rng) for _ in range(count)]


def test_relation_screen_gives_every_symbolic_residual():
    # the screen reads the symbolic check's residuals at x0: as many, all zero
    points = _screen_points(67, 4)
    for rid in SYMBOLIC_RELATIONS:
        for n in range(2, 11):
            want = len(relation_residuals(rid, n))
            screened = 0
            for x0 in points:
                try:
                    vals = relation_residuals_at(rid, n, x0)
                except JetNotInvertible:
                    continue
                assert len(vals) == want and all(v == 0 for v in vals), (rid, n, x0)
                screened += 1
            assert screened, (rid, n)


def test_screen_and_symbolic_residuals_agree_off_the_relation():
    # H and K exchanged solve no relation, so a symbol or coefficient wired
    # differently on one side shows as a mismatch rather than as 0 == 0; the
    # jet values carry the common factor q^((2n+2)(n+1))
    points = _screen_points(61, 4)
    for rid in SYMBOLIC_RELATIONS:
        for n in range(2, 11):
            family, terms = _relation_terms(rid, n)
            q = quartet(family, n)
            dh = q.H.derivative()
            symbolic = _combine(terms, (q.K, q.H, q.M, q.N, dh, dh.derivative()))
            assert any(not r.is_zero() for r in symbolic), (rid, n)
            for x0 in points:
                try:
                    h, k, m, nn, jdh, jd2h = jet_quartet(family, n, x0)
                except JetNotInvertible:
                    continue
                scale = x0.denominator ** ((2 * n + 2) * (n + 1))
                screen = _combine(terms, (k, h, m, nn, jdh, jd2h), x0)
                assert screen == [r(x0) * scale for r in symbolic], (rid, n, x0)


def test_relation_screen_small_n():
    rng = random.Random(67)
    for n in range(2, 9):
        for _ in range(2):
            x0 = _screen_point(rng)
            for rid in SYMBOLIC_RELATIONS:
                try:
                    vals = relation_residuals_at(rid, n, x0)
                except JetNotInvertible:
                    continue  # unlucky point; the full-range screen covers volume
                assert all(v == 0 for v in vals), (rid, n, x0)


def test_relation_screen_full_range():
    # five random rational points per n, n = 2..20, all eight relations
    rng = random.Random(61)
    for n in range(2, 21):
        done = 0
        while done < 5:
            x0 = _screen_point(rng)
            try:
                for rid in SYMBOLIC_RELATIONS:
                    vals = relation_residuals_at(rid, n, x0)
                    assert all(v == 0 for v in vals), (rid, n, x0)
            except JetNotInvertible:
                continue
            done += 1
