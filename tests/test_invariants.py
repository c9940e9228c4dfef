"""Cross-module invariants that tie the suites together."""

import random
from fractions import Fraction

from hankelab.closed_forms import ProductFormulaId, product_eval
from hankelab.hankel import hankel_det, hankel_det_at
from hankelab.identities import (
    SYMBOLIC_RELATIONS,
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
