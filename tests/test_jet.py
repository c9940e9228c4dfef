import random
from fractions import Fraction

import pytest
from reference_det import full_row_ladder

from hankelab import hankel, jet
from hankelab.hankel import VARIANTS, _variant_columns, cached_ladder, det_bareiss, ladder, quartet
from hankelab.identities import jet_quartet
from hankelab.jet import JET, JetNotInvertible, int_jets
from hankelab.poly import Poly
from hankelab.sequences import ALL_FAMILIES, F21, F31, FAEX, a_poly

# H_1 of (3,1) is 5 - 2x and H_1 of (2,1) is 1 - 2x: at 5/2 and 1/2 a
# leading pivot of the ladder vanishes and the per-variant eliminations run.
POINTS = [Fraction(0), Fraction(3, 7), Fraction(-2), Fraction(5, 2), Fraction(1, 2), Fraction(-11, 5), Fraction(7, 3)]


def jet_at(f, x0, k):
    """The jet of f, of degree <= k, as the k-th entry of a graded sequence:
    scaled by q^k."""
    return int_jets([f.num], x0, k)[0]


def test_int_jets_match_derivatives():
    rng = random.Random(59)
    for _ in range(50):
        polys = [
            Poly([rng.randint(-6, 6) for _ in range(rng.randint(1, k + 1))])
            for k in range(rng.randint(1, 9))
        ]
        x0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for k, (p, jet) in enumerate(zip(polys, int_jets([f.num for f in polys], x0))):
            scale = x0.denominator**k
            assert jet[0] == p(x0) * scale
            assert jet[1] == p.derivative()(x0) * scale
            assert 2 * jet[2] == p.derivative(2)(x0) * scale


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


def test_value_step_is_the_value_part_of_the_jet_step():
    # a ladder steps the values of jets with hankel._int_cross
    rng = random.Random(89)
    for _ in range(200):
        p, r, l, u, d = ((rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
                         for _ in range(5))
        if not d[0]:
            continue
        e = JET.cross(p, r, l, u, None)
        # e is a multiple of d, so the division is exact
        prod = JET.cross(e, d, ZERO, ZERO, None)
        assert hankel._int_cross(p[0], r[0], l[0], u[0], None) == e[0]
        assert hankel._int_cross(prod[0], 1, 0, 0, d[0]) == JET.cross(prod, ONE, ZERO, ZERO, d)[0]


def four_eliminations(jets, n):
    """H, K, M, N each by its own pivoting elimination, or None if one raises."""
    try:
        return tuple(
            det_bareiss([[jets[c + i] for c in _variant_columns(n, name)] for i in range(n + 1)], JET)
            for name in VARIANTS
        )
    except JetNotInvertible:
        return None


def as_read(dets):
    """What a jet ladder gives of H, K, M, N: H as a 3-jet, the rest values."""
    return None if dets is None else (dets[0], *(d[0] for d in dets[1:]))


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
                jets = int_jets(hankel.int_entries(fam, 0, 2 * n + 3), x0)
                lad = ladder(jets, JET)
                if len(lad.rows) <= n:
                    fallbacks += 1
                else:
                    got = tuple(lad.det(n, name) for name in VARIANTS)
                    assert got == as_read(four_eliminations(jets, n)), (fam, n, x0)
    assert fallbacks >= 2 * 5  # (3,1) at 5/2 and (2,1) at 1/2, n = 2..6
    for fam, x0 in ((F31, Fraction(5, 2)), (F21, Fraction(1, 2))):
        lad = ladder(int_jets(hankel.int_entries(fam, 0, 7), x0), JET)
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
        four = as_read(four_eliminations(jets, n))
        if len(lad.rows) <= n:
            declined += 1
            raised += four is None
            if four is not None:
                assert tuple(lad.det(n, name) for name in VARIANTS) == four
        else:
            assert tuple(lad.det(n, name) for name in VARIANTS) == four, (n, jets)
    assert declined > 0 and raised > 0


def outcome(thunk):
    try:
        return thunk()
    except JetNotInvertible:
        return JetNotInvertible


def test_jet_ladder_reads_h_jets_and_kmn_values(monkeypatch):
    # every point, n <= 12 asked out of order, so the cached jet ladder is
    # rebuilt larger and read below its top: H equals det_bareiss over JET
    # on its own matrix and K, M, N its value part, or both raise; at the
    # vanishing pivots (5/2 for (3,1), 1/2 for (2,1)) n >= 2 is the fallback
    monkeypatch.setattr(hankel, "_ladders", {})
    for fam in ALL_FAMILIES:
        for x0 in POINTS:
            jets = int_jets(hankel.int_entries(fam, 0, 27), x0)
            for n in (6, 2, 12, 9, 1, 4, 11, 0):
                for name in VARIANTS if n else ("H", "K"):
                    rows = [[jets[c + i] for c in _variant_columns(n, name)] for i in range(n + 1)]
                    want = outcome(lambda: det_bareiss(rows, JET))
                    if name != "H" and want is not JetNotInvertible:
                        want = want[0]
                    got = outcome(lambda: cached_ladder(fam, x0, JET, n).det(n, name))
                    assert got == want, (fam, x0, n, name)
            lad = cached_ladder(fam, x0, JET, 12)
            vanishing = (fam, x0) in ((F31, Fraction(5, 2)), (F21, Fraction(1, 2)))
            assert len(lad.rows) == (2 if vanishing else 13), (fam, x0)


def counting(ring, counts):
    """The ring with each full step counted in counts[0]."""

    def cross(*args):
        counts[0] += 1
        return ring.cross(*args)

    return ring._replace(cross=cross)


def ladder_steps(top):
    """sum_{i <= N} i (N + 3 - i) + N: row i's step k runs over columns
    i..N+2, its lead read off row k, and rows 1..N take one M step each."""
    return sum(i * (top + 3 - i) for i in range(top + 1)) + top


def full_row_steps(top):
    """sum_{i <= N} sum_{k < i} (N + 2 - k) + N: the steps of
    ``full_row_ladder``, whose row i's step k runs over columns k+1..N+2."""
    return sum(top + 2 - k for i in range(top + 1) for k in range(i)) + top


def test_ladder_step_counts(monkeypatch):
    # full steps count in counts[0]; a jet ladder's value steps, which it
    # makes over Z with hankel._int_cross, in counts[1]
    counts = [0, 0]
    int_cross = hankel._int_cross

    def value_step(*args):
        counts[1] += 1
        return int_cross(*args)

    monkeypatch.setattr(hankel, "_int_cross", value_step)
    x0 = Fraction(3, 7)
    for top in (1, 4, 7, 10):
        entries = {
            hankel.INT_POLY: hankel.int_entries(F31, 0, 2 * top + 3),
            hankel.INT: cached_ladder(F31, x0, hankel.INT, top).entries[: 2 * top + 3],
            JET: int_jets(hankel.int_entries(F31, 0, 2 * top + 3), x0),
        }
        for ring, e in entries.items():
            # columns N+1 and N+2 of rows 1..N, and M_1..M_N, step on values;
            # the full-row oracle steps on values only at M_N
            jet = ring is JET
            for build, steps, values in ((ladder, ladder_steps, top * (top + 2) if jet else 0),
                                         (full_row_ladder, full_row_steps,
                                          top * (top + 1) + 1 if jet else 0)):
                counts[:] = [0, 0]
                lad = build(e, counting(ring, counts))
                assert len(lad.rows) == top + 1
                assert counts == [steps(top) - values, values], (ring, top, build)
            if ring is not JET:
                # grown from a smaller ladder, it does the same steps
                counts[:] = [0, 0]
                ladder(e, counting(ring, counts), ladder(e[:5], counting(ring, counts)))
                assert counts == [ladder_steps(top), 0], (ring, top)
    # the scale the benchmark's point screen works at: all steps, a jet
    # ladder's full steps and its value steps, against the full rows'
    assert (ladder_steps(7), ladder_steps(7) - 63, 7 * 9) == (147, 84, 63)
    assert (ladder_steps(10), ladder_steps(10) - 120, 10 * 12) == (340, 220, 120)
    assert (full_row_steps(7), full_row_steps(10)) == (203, 505)


def test_a_growing_point_ladder_expands_only_its_new_entries(monkeypatch):
    # growing (3,1) or aex at 7/5 through n = 1..12 expands each of its 27
    # entries once, at its own q^k, and gives what a ladder built for each
    # n alone gives
    x0 = Fraction(7, 5)
    calls = []
    taylor = jet._taylor_jet
    monkeypatch.setattr(jet, "_taylor_jet", lambda *args: calls.append(args) or taylor(*args))
    for fam in (F31, FAEX):
        monkeypatch.setattr(hankel, "_ladders", {})
        calls.clear()
        grown = [jet_quartet(fam, n, x0) for n in range(1, 13)]
        assert len(calls) == 27, fam
        lad = cached_ladder(fam, x0, JET, 12)
        for n, values in enumerate(grown, 1):
            monkeypatch.setattr(hankel, "_ladders", {})
            assert jet_quartet(fam, n, x0) == values, (fam, n)
        assert cached_ladder(fam, x0, JET, 12) == lad, fam
