import random
from fractions import Fraction

import pytest

import hankelab.series as series
from hankelab.poly import InexactDivision, Poly
from hankelab.sequences import ALL_FAMILIES, F21, F31, FAEX
from hankelab.series import CLOSED_FORMS, SeriesYX, gf_denominator, gf_fraction


def random_series(rng, order):
    return SeriesYX(
        order,
        [
            Poly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))])
            for _ in range(order + 1)
        ],
    )


def test_construction_pads_and_truncates():
    s = SeriesYX(3, [Poly([1])])
    assert s.coefficient(0) == Poly([1])
    assert s.coefficient(3).is_zero()
    with pytest.raises(IndexError):
        s.coefficient(4)


def test_mul_matches_poly_convolution():
    rng = random.Random(23)
    for _ in range(50):
        order = rng.randint(0, 8)
        a, b = random_series(rng, order), random_series(rng, order)
        prod = a * b
        for k in range(order + 1):
            expected = Poly.zero()
            for i in range(k + 1):
                expected = expected + a.coefficient(i) * b.coefficient(k - i)
            assert prod.coefficient(k) == expected


def test_truncation_consistency():
    # coefficient k of a product depends only on coefficients 0..k
    rng = random.Random(29)
    a, b = random_series(rng, 10), random_series(rng, 10)
    full = SeriesYX(6, (a * b).coeffs)
    short = SeriesYX(6, a.coeffs) * SeriesYX(6, b.coeffs)
    assert full == short


def test_divide_exact_nonunit_constant():
    # (x-1) * (1 + y) divided by (x-1) must recover 1 + y
    p = Poly([-1, 1])
    num = SeriesYX(4, [p, p])
    den = SeriesYX(4, [p])
    q = num.divide_exact(den)
    assert q == SeriesYX(4, [Poly.one(), Poly.one()])


def test_shift_y():
    s = SeriesYX.from_rats(3, [1, 2])
    assert s.shift_y(2).coefficient(2) == Poly([1])
    assert s.shift_y(2).coefficient(3) == Poly([2])
    assert s.shift_y(2).coefficient(0).is_zero()


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        SeriesYX.one(3) + SeriesYX.one(4)


# Differential tests: the series product and quotient run on integer rows;
# these oracles are their earlier bodies, one Poly operation per term.


def poly_mul(a, b):
    out = [Poly.zero()] * (a.order + 1)
    for i, ca in enumerate(a.coeffs):
        if ca.is_zero():
            continue
        for j in range(a.order + 1 - i):
            cb = b.coeffs[j]
            if not cb.is_zero():
                out[i + j] = out[i + j] + ca * cb
    return SeriesYX(a.order, out)


def poly_divide_exact(num, den):
    d0 = den.coeffs[0]
    if d0.is_zero():
        raise ZeroDivisionError("series division by y-multiple")
    out = []
    for k in range(num.order + 1):
        acc = num.coeffs[k]
        for j in range(1, k + 1):
            acc = acc - den.coeffs[j] * out[k - j]
        out.append(acc.exact_div(d0))
    return SeriesYX(num.order, out)


def mixed_series(rng, order):
    """Rational coefficients over mixed denominators, with zero rows."""
    def coeff():
        if rng.random() < 0.25:
            return Poly.zero()
        return Poly([Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 7]))
                     for _ in range(rng.randint(1, 5))])

    return SeriesYX(order, [coeff() for _ in range(order + 1)])


def test_mul_matches_the_poly_oracle():
    rng = random.Random(1409)
    for _ in range(150):
        order = rng.randint(0, 9)
        a, b = mixed_series(rng, order), mixed_series(rng, order)
        assert a * b == poly_mul(a, b)
        assert a * a == poly_mul(a, a)
        scalar = rng.choice([3, -2, Fraction(-5, 6), Poly([Fraction(1, 3), 0, -2])])
        assert a * scalar == scalar * a == poly_mul(a, SeriesYX(order, [scalar]))
    zero = SeriesYX.zero(4)
    assert zero * mixed_series(rng, 4) == zero


def test_divide_exact_matches_the_poly_oracle():
    # num = q * den is divisible by construction; d0 is non-monic with
    # a rational content, so each step divides by a non-unit in Q[x]
    rng = random.Random(1423)
    for _ in range(120):
        order = rng.randint(0, 8)
        den = mixed_series(rng, order)
        low = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 5]))
               for _ in range(rng.randint(1, 3))]
        d0 = Poly(low + [Fraction(rng.choice([2, 3, -4, 6]), rng.choice([1, 3]))])
        den = SeriesYX(order, (d0, *den.coeffs[1:]))
        quot = mixed_series(rng, order)
        num = poly_mul(quot, den)
        assert num.divide_exact(den) == poly_divide_exact(num, den) == quot


def test_divide_exact_keeps_the_remainder_tripwire():
    x = Poly.x()
    num = SeriesYX(3, [Poly.one(), x])
    den = SeriesYX(3, [x - 1, Poly.const(2)])
    for divide in (SeriesYX.divide_exact, poly_divide_exact):
        with pytest.raises(InexactDivision):
            divide(num, den)
        with pytest.raises(ZeroDivisionError):
            divide(num, SeriesYX(3, [Poly.zero(), x]))


def test_gf_fraction_prefixes_match_a_build_at_each_order(monkeypatch):
    # every form is built once at the top order; each lower order is its
    # prefix, equal to a build at that order
    monkeypatch.setattr(series, "_gf_memo", {})
    top = 12
    pairs = [(False, fam) for fam in ALL_FAMILIES]
    pairs += [(True, fam) for fam in ALL_FAMILIES if fam in CLOSED_FORMS]
    for closed, fam in pairs:
        for order in range(top, -1, -1):
            if not closed:
                want = series._direct_fraction(fam, order)
            else:
                want = tuple(series._closed_part(fam, order, part) for part in (0, 1))
            assert gf_fraction(fam, order, closed) == want, (closed, fam, order)
    assert {s.order for s in series._gf_memo.values()} == {top}
    assert len(series._gf_memo) == 2 * len(pairs)
    # a larger order is built anew and kept
    closed, fam = pairs[-1]
    want = tuple(series._closed_part(fam, top + 2, part) for part in (0, 1))
    assert gf_fraction(fam, top + 2, closed) == want
    assert series._gf_memo[CLOSED_FORMS[fam], fam, 1].order == top + 2


def test_gf_denominator_expands_no_closed_numerator(monkeypatch):
    monkeypatch.setattr(series, "_gf_memo", {})
    for fam in (F31, FAEX):
        assert gf_denominator(fam, 9, True) == gf_fraction(fam, 9, True)[1]
    monkeypatch.setattr(series, "_gf_memo", {})
    gf_denominator(F21, 7, True)
    assert list(series._gf_memo) == [("closed21", F21, 1)]
