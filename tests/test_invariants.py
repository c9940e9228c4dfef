"""Cross-module invariants that tie the suites together."""

import random
from fractions import Fraction

from reference_det import fraction_jet_quartet, fraction_screen

from hankelab import hankel, identities
from hankelab.closed_forms import product_eval
from hankelab.hankel import hankel_det, hankel_det_at, quartet
from hankelab.identities import (
    _SYMBOLS,
    SYMBOLIC_RELATIONS,
    _combine,
    _relation_terms,
    jet_quartet,
    relation_residuals,
    relation_residuals_at,
)
from hankelab.jet import JetNotInvertible, terms_at
from hankelab.poly import Poly
from hankelab.sequences import F21, F31


def test_crecursion_iteration_reproduces_product():
    # iterate H_{n+1} = ratio(n) H_n^2 / H_{n-1} at x = 3 from H_0 = 1,
    # H_1 = -1 and compare against the factorial product, n <= 10
    h_prev, h_cur = Fraction(1), Fraction(-1)
    values = [h_prev, h_cur]
    for n in range(1, 10):
        ratio = Fraction(
            9 * (3 * n + 4) * (3 * n + 5) * (6 * n - 1) * (6 * n + 1),
            4 * (4 * n + 1) * (4 * n + 3) ** 2 * (4 * n + 5),
        )
        h_prev, h_cur = h_cur, ratio * h_cur * h_cur / h_prev
        values.append(h_cur)
    for n, value in enumerate(values):
        assert value == product_eval("p31at3", n)
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
    # swapped jet values go through the screen's integer sum, and they carry
    # the common factor q^((2n+2)(n+1))
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
                swapped = dict(zip(_SYMBOLS, (k, h, m, nn, jdh, jd2h)))
                screen = terms_at(terms, swapped, x0)
                assert screen == [r(x0) * scale for r in symbolic], (rid, n, x0)


def _screen_or_none(screen):
    try:
        return screen()
    except JetNotInvertible:
        return None


def test_integer_screen_matches_the_fraction_oracle():
    # residual for residual, on the relation and off it (the values of H, K,
    # M and N rotated, so the sums are not 0 == 0, and each coefficient
    # divided by a different integer, since every stated one is in Z[x]), at
    # seeded points with negative x0 and q up to 11, plus the two points where
    # the ladder stops short and the four eliminations pivot; both paths
    # decline the same points
    rng = random.Random(1109)
    points = [(F31, Fraction(5, 2)), (F21, Fraction(1, 2)), (None, Fraction(-37, 11))]
    points += [(None, Fraction(rng.randint(-40, 20), rng.randint(1, 11))) for _ in range(3)]
    off_relation = 0
    for fam, x0 in points:
        for n in range(1, 13):
            for rid in SYMBOLIC_RELATIONS:
                family, terms = _relation_terms(rid, n)
                if fam not in (None, family):
                    continue
                got = _screen_or_none(lambda: relation_residuals_at(rid, n, x0))
                values = _screen_or_none(lambda: fraction_jet_quartet(family, n, x0))
                want = None if values is None else fraction_screen(terms, values, x0)
                assert got == want, (rid, n, x0)
                if values is None:
                    continue
                h, k, m, nn, dh, d2h = jet_quartet(family, n, x0)
                rotated = dict(zip(_SYMBOLS, (nn, h, k, m, dh, d2h)))
                thirds = [[(s, c * Fraction(1, 3 + i)) for i, (s, c) in enumerate(r)] for r in terms]
                off = fraction_screen(thirds, (values[3], *values[:3], *values[4:]), x0)
                assert terms_at(thirds, rotated, x0) == off, (rid, n, x0)
                off_relation += any(off)
    assert off_relation > 300


def test_both_screens_decline_where_a_pivot_is_not_a_unit(monkeypatch):
    # a_k = q^k (x0^k + k (x - x0)), an integer polynomial at x0 = 7/5: the
    # values at x0 are geometric, so every order-2 minor vanishes there but
    # not its derivative, and the jet eliminations must divide by a
    # non-unit; both paths raise
    x0 = Fraction(7, 5)
    fake = lambda family, k: Poly([7**k - 7 * k * 5**k // 5, k * 5**k])
    monkeypatch.setattr(hankel, "a_poly", fake)
    monkeypatch.setattr(hankel, "_ladders", {})
    for rid in SYMBOLIC_RELATIONS:
        family = _relation_terms(rid, 3)[0]
        assert _screen_or_none(lambda: relation_residuals_at(rid, 3, x0)) is None, rid
        assert _screen_or_none(lambda: fraction_jet_quartet(family, 3, x0)) is None, rid


def test_the_screen_sees_a_perturbed_coefficient(monkeypatch):
    # negative control: the first coefficient of each relation moved by 1
    # (its symbol once more, times the constant table 1) leaves its first
    # residual equal to that symbol's jet value, nonzero, at a point the
    # screen accepts
    x0 = Fraction(97, 5)
    for rid in SYMBOLIC_RELATIONS:
        family, ((first, *rest), *others) = identities._RELATIONS[rid]
        symbol = first[0]
        perturbed = ((first, *rest, (symbol, (((1,),),))), *others)
        monkeypatch.setitem(identities._RELATIONS, rid, (family, perturbed))
        identities._relation_terms.cache_clear()
        try:
            got = relation_residuals_at(rid, 4, x0)
        finally:
            monkeypatch.undo()
            identities._relation_terms.cache_clear()
        values = jet_quartet(family, 4, x0)
        assert got[0] == values[_SYMBOLS.index(symbol)] != 0, rid
        assert all(r == 0 for r in relation_residuals_at(rid, 4, x0)), rid


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
