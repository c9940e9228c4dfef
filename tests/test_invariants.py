"""Cross-module invariants that tie the suites together."""

import random
from fractions import Fraction

from reference_det import fraction_screen, poly_quartet_at

from hankelab import identities
from hankelab.closed_forms import product_eval
from hankelab.hankel import HankelQuartet, hankel_det, hankel_det_at
from hankelab.identities import (
    _SYMBOLS,
    SYMBOLIC_RELATIONS,
    _relation_terms,
    relation_residuals,
    relation_residuals_at,
)
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
            for x0 in points:
                vals = relation_residuals_at(rid, n, x0)
                assert len(vals) == want and all(v == 0 for v in vals), (rid, n, x0)


def _read_as(monkeypatch, order):
    """The screen's quartet with H, K, M, N read from the true ones in
    ``order`` (a permutation of "HKMN"), so its relations do not hold."""
    true_quartet = identities.quartet

    def permuted(family, n):
        q = true_quartet(family, n)
        return HankelQuartet(family, n, *(getattr(q, v) for v in order))

    monkeypatch.setattr(identities, "quartet", permuted)


def test_screen_and_symbolic_residuals_agree_off_the_relation(monkeypatch):
    # H and K exchanged solve no relation, so a symbol or coefficient wired
    # differently on one side shows as a mismatch rather than as 0 == 0: the
    # screen fed the exchanged quartet equals the fraction oracle fed the
    # same exchange, its determinants eliminated apart from the ladder
    points = _screen_points(61, 4)
    _read_as(monkeypatch, "KHMN")
    for rid in SYMBOLIC_RELATIONS:
        for n in range(2, 11):
            family, terms = _relation_terms(rid, n)
            off = 0
            for x0 in points:
                want = fraction_screen(terms, poly_quartet_at(family, n, x0, "KHMN"), x0)
                assert relation_residuals_at(rid, n, x0) == want, (rid, n, x0)
                off += any(want)
            assert off, (rid, n)


def test_integer_screen_matches_the_fraction_oracle(monkeypatch):
    # residual for residual, on the relation and off it (the values of K, M
    # and N rotated, so the sums are not 0 == 0, and each coefficient
    # divided by a different integer, since every stated one is in Z[x]), at
    # seeded points with negative x0 and q up to 11, plus the two points where
    # the ladder over Z stops short (H_1 vanishes); the oracle's
    # determinants are eliminated over Poly apart from the ladder
    rng = random.Random(1109)
    points = [(F31, Fraction(5, 2)), (F21, Fraction(1, 2)), (None, Fraction(-37, 11))]
    points += [(None, Fraction(rng.randint(-40, 20), rng.randint(1, 11))) for _ in range(3)]
    cases = [(rid, n, x0) for fam, x0 in points for n in range(1, 13)
             for rid in SYMBOLIC_RELATIONS if fam in (None, _relation_terms(rid, n)[0])]
    for rid, n, x0 in cases:
        family, terms = _relation_terms(rid, n)
        want = fraction_screen(terms, poly_quartet_at(family, n, x0), x0)
        assert relation_residuals_at(rid, n, x0) == want == [0] * len(terms), (rid, n, x0)
    true_terms = identities._relation_terms

    def divided(rid, n):
        family, terms = true_terms(rid, n)
        return family, [[(s, c * Fraction(1, 3 + i)) for i, (s, c) in enumerate(r)]
                        for r in terms]

    monkeypatch.setattr(identities, "_relation_terms", divided)
    _read_as(monkeypatch, "HNKM")
    off_relation = 0
    for rid, n, x0 in cases:
        family, thirds = divided(rid, n)
        off = fraction_screen(thirds, poly_quartet_at(family, n, x0, "HNKM"), x0)
        assert relation_residuals_at(rid, n, x0) == off, (rid, n, x0)
        off_relation += any(off)
    assert off_relation == len(cases)


def test_the_screen_sees_a_perturbed_coefficient(monkeypatch):
    # negative control: the first coefficient of each relation moved by 1
    # (its symbol once more, times the constant table 1) leaves its first
    # residual equal to that symbol's value at x0, nonzero
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
        values = poly_quartet_at(family, 4, x0)
        assert got[0] == values[_SYMBOLS.index(symbol)] != 0, rid
        assert all(r == 0 for r in relation_residuals_at(rid, 4, x0)), rid


def test_relation_screen_small_n():
    rng = random.Random(67)
    for n in range(2, 9):
        for _ in range(2):
            x0 = _screen_point(rng)
            for rid in SYMBOLIC_RELATIONS:
                vals = relation_residuals_at(rid, n, x0)
                assert all(v == 0 for v in vals), (rid, n, x0)


def test_relation_screen_full_range():
    # five random rational points per n, n = 2..20, all eight relations
    rng = random.Random(61)
    for n in range(2, 21):
        for _ in range(5):
            x0 = _screen_point(rng)
            for rid in SYMBOLIC_RELATIONS:
                vals = relation_residuals_at(rid, n, x0)
                assert all(v == 0 for v in vals), (rid, n, x0)
