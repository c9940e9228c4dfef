import random
from fractions import Fraction

import pytest

from hankelab import hankel, jet
from hankelab.hankel import VARIANTS, _variant_columns, cached_ladder, det_bareiss, ladder, quartet
from hankelab.identities import jet_quartet
from hankelab.jet import JET, JetNotInvertible, int_jets
from hankelab.poly import Poly
from hankelab.rat import Rat
from hankelab.sequences import ALL_FAMILIES, F21, F31, FAEX, a_poly

# H_1 of (3,1) is 5 - 2x and H_1 of (2,1) is 1 - 2x: at 5/2 and 1/2 a
# leading pivot of the ladder vanishes and the per-variant eliminations run.
POINTS = [Rat(0), Rat(3, 7), Rat(-2), Rat(5, 2), Rat(1, 2), Rat(-11, 5), Rat(7, 3)]


def jet_at(f, x0, k):
    """The jet of f as the k-th entry of a graded sequence: scaled by q^k."""
    return int_jets([Poly()] * k + [f], x0)[k]


def test_int_jets_match_derivatives():
    rng = random.Random(59)
    for _ in range(50):
        polys = [
            Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, k + 1))])
            for k in range(rng.randint(1, 9))
        ]
        x0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for k, (p, jet) in enumerate(zip(polys, int_jets(polys, x0))):
            scale = x0.denominator**k
            assert jet[0] == p(x0) * scale
            assert jet[1] == p.derivative()(x0) * scale
            assert 2 * jet[2] == p.derivative(2)(x0) * scale


def test_int_jets_integrality_guard():
    # q^k clears a rational coefficient when the point's denominator allows
    half_x = Poly([0, Fraction(1, 2)])
    assert jet_at(half_x, Fraction(1, 2), 2) == (1, 2, 0)
    with pytest.raises(ArithmeticError):  # row scale 2 does not divide
        jet_at(half_x, Fraction(1, 3), 2)
    with pytest.raises(ArithmeticError):  # degree 3 above k = 2
        jet_at(Poly([0, 0, 0, 1]), Fraction(1, 2), 2)
    assert jet_at(Poly([0, 0, 0, 1]), Fraction(3), 2) == (27, 27, 9)


ZERO, ONE = (0, 0, 0), (1, 0, 0)


def jet_mul(a, b):
    return JET.cross(a, b, ZERO, ZERO, None)


def jet_div(a, b):
    return JET.cross(a, ONE, ZERO, ZERO, b)


def test_jet_ring_ops():
    assert jet_mul((2, 1, 0), (3, 0, 1)) == (6, 3, 2)
    assert JET.cross((2, 1, 0), (3, 0, 1), (1, 1, 1), (1, 0, 0), None) == (5, 2, 1)
    # the product of jets is the jet of the product, at the summed grade
    rng = random.Random(71)
    for _ in range(30):
        f = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        g = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert jet_mul(jet_at(f, x0, 4), jet_at(g, x0, 4)) == jet_at(f * g, x0, 8)


def test_jet_division_roundtrip():
    a = (5, -2, 7)
    b = (3, 1, 2)
    assert jet_div(jet_mul(a, b), b) == a
    with pytest.raises(ArithmeticError):
        jet_div((5, 0, 0), (3, 0, 0))


def test_jet_division_requires_unit():
    with pytest.raises(JetNotInvertible):
        jet_div((1, 0, 0), (0, 1, 0))


def four_eliminations(jets, n):
    """H, K, M, N each by its own pivoting elimination, or None if one raises."""
    try:
        return tuple(
            det_bareiss([[jets[c + i] for c in _variant_columns(n, name)] for i in range(n + 1)], JET)
            for name in VARIANTS
        )
    except JetNotInvertible:
        return None


def test_jet_quartet_matches_symbolic_quartet():
    for fam in ALL_FAMILIES:
        for n in range(1, 7):
            q4 = quartet(fam, n)
            dh, d2h = q4.H.derivative(), q4.H.derivative(2)
            for x0 in POINTS:
                scale = x0.denominator ** ((2 * n + 2) * (n + 1))
                want = [v(x0) * scale for v in (q4.H, q4.K, q4.M, q4.N, dh, d2h)]
                values, den = jet_quartet(fam, n, x0)
                assert [Rat(v, den) for v in values] == want, (fam, n, x0)


def test_ladder_agrees_with_four_eliminations():
    fallbacks = 0
    for fam in ALL_FAMILIES:
        for n in range(1, 7):
            for x0 in POINTS:
                jets = int_jets([a_poly(fam, k) for k in range(2 * n + 3)], x0)
                lad = ladder(jets, JET)
                if len(lad.rows) <= n:
                    fallbacks += 1
                else:
                    got = tuple(lad.det(n, name) for name in VARIANTS)
                    assert got == four_eliminations(jets, n), (fam, n, x0)
    assert fallbacks >= 2 * 5  # (3,1) at 5/2 and (2,1) at 1/2, n = 2..6
    for fam, x0 in ((F31, Rat(5, 2)), (F21, Rat(1, 2))):
        lad = ladder(int_jets([a_poly(fam, k) for k in range(7)], x0), JET)
        assert len(lad.rows) == 2  # stopped at H_1, which vanishes at x0


def test_ladder_on_vanishing_jets():
    # Random integer jets with many zero values: wherever the ladder reaches
    # n, the four pivoting eliminations answer the same and none of them
    # raises; where it stops short, reading n is those four eliminations.
    rng = random.Random(83)
    declined = raised = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        jets = [
            (rng.choice([0, 0, 1, -1, 2, 3]), rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(2 * n + 3)
        ]
        lad = ladder(jets, JET)
        four = four_eliminations(jets, n)
        if len(lad.rows) <= n:
            declined += 1
            raised += four is None
            if four is not None:
                assert tuple(lad.det(n, name) for name in VARIANTS) == four
        else:
            assert tuple(lad.det(n, name) for name in VARIANTS) == four, (n, jets)
    assert declined > 0 and raised > 0


def test_a_growing_point_ladder_expands_only_its_new_entries(monkeypatch):
    # growing (3,1) at 7/5 through n = 1..12 expands each of its 27 entries
    # once, at its own q^k; aex's entry scale D grows too, which rebuilds
    x0 = Rat(7, 5)
    calls = []
    taylor = jet._taylor_jet
    monkeypatch.setattr(jet, "_taylor_jet", lambda *args: calls.append(args) or taylor(*args))
    for fam in (F31, FAEX):
        monkeypatch.setattr(hankel, "_ladders", {})
        calls.clear()
        grown = [jet_quartet(fam, n, x0) for n in range(1, 13)]
        if fam == F31:
            assert len(calls) == 27
        scale, lad = cached_ladder(fam, x0, JET, 12)
        for n, values in enumerate(grown, 1):
            monkeypatch.setattr(hankel, "_ladders", {})
            assert jet_quartet(fam, n, x0) == values, (fam, n)
        assert cached_ladder(fam, x0, JET, 12) == (scale, lad), fam
