import random
from fractions import Fraction

import pytest

from hankelab.poly import Poly
from hankelab.series import SeriesYX


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
