import random
from fractions import Fraction

import pytest

from hankelab.hankel import _quartet_columns, quartet
from hankelab.identities import jet_quartet
from hankelab.jet import (
    JetNotInvertible,
    int_jet_det,
    int_jet_div,
    int_jet_mul,
    int_jets,
    quartet_ladder,
)
from hankelab.poly import Poly
from hankelab.rat import Rat
from hankelab.sequences import ALL_FAMILIES, F21, F31, a_poly

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


def test_jet_ring_ops():
    assert int_jet_mul((2, 1, 0), (3, 0, 1)) == (6, 3, 2)
    # the product of jets is the jet of the product, at the summed grade
    rng = random.Random(71)
    for _ in range(30):
        f = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        g = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        x0 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert int_jet_mul(jet_at(f, x0, 4), jet_at(g, x0, 4)) == jet_at(f * g, x0, 8)


def test_jet_division_roundtrip():
    a = (5, -2, 7)
    b = (3, 1, 2)
    assert int_jet_div(int_jet_mul(a, b), b) == a
    with pytest.raises(ArithmeticError):
        int_jet_div((5, 0, 0), (3, 0, 0))


def test_jet_division_requires_unit():
    with pytest.raises(JetNotInvertible):
        int_jet_div((1, 0, 0), (0, 1, 0))


def four_eliminations(jets, n):
    """H, K, M, N each by its own pivoting elimination, or None if one raises."""
    layout = _quartet_columns(n)
    try:
        return tuple(
            int_jet_det([[jets[c + i] for c in layout[name]] for i in range(n + 1)])
            for name in ("H", "K", "M", "N")
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
                assert list(jet_quartet(fam, n, x0)) == want, (fam, n, x0)


def test_ladder_agrees_with_four_eliminations():
    fallbacks = 0
    for fam in ALL_FAMILIES:
        for n in range(1, 7):
            for x0 in POINTS:
                jets = int_jets([a_poly(fam, k) for k in range(2 * n + 3)], x0)
                ladder = quartet_ladder(jets, n)
                if ladder is None:
                    fallbacks += 1
                else:
                    assert ladder == four_eliminations(jets, n), (fam, n, x0)
    assert fallbacks >= 2 * 5  # (3,1) at 5/2 and (2,1) at 1/2, n = 2..6
    for fam, x0 in ((F31, Rat(5, 2)), (F21, Rat(1, 2))):
        assert quartet_ladder(int_jets([a_poly(fam, k) for k in range(7)], x0), 2) is None


def test_ladder_on_vanishing_jets():
    # Random integer jets with many zero values: wherever the ladder answers,
    # the four pivoting eliminations answer the same and none of them raises;
    # where it declines, jet_quartet's fallback is those four eliminations.
    rng = random.Random(83)
    declined = raised = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        jets = [
            (rng.choice([0, 0, 1, -1, 2, 3]), rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(2 * n + 3)
        ]
        ladder = quartet_ladder(jets, n)
        four = four_eliminations(jets, n)
        if ladder is None:
            declined += 1
            raised += four is None
        else:
            assert ladder == four, (n, jets)
    assert declined > 0 and raised > 0
