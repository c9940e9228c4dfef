import random
from fractions import Fraction

import pytest

from hankelab.poly import (
    InexactDivision,
    Poly,
    from_int_scaled,
    int_poly_exact_div,
    int_poly_mul,
    int_poly_neg,
    int_poly_sub,
    to_int_scaled,
)


def random_poly(rng, max_deg=12):
    deg = rng.randint(-1, max_deg)
    if deg < 0:
        return Poly.zero()
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)]
    coeffs.append(Fraction(rng.randint(1, 9)))
    return Poly(coeffs)


def test_basic_examples():
    p = Poly([5, -2])
    assert p.derivative() == Poly([-2])
    assert p(3) == -1
    assert Poly([4, 1]) * Poly([21, 6, 1]) == Poly([84, 45, 10, 1])


def test_zero_polynomial_degree():
    z = Poly([0, 0])
    assert z.is_zero()
    assert z.degree == float("-inf")
    assert Poly([1]).degree == 0


def test_degree_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).degree == p.degree + q.degree


def test_derivative_linear_and_product_rule():
    rng = random.Random(13)
    for _ in range(100):
        p, q = random_poly(rng, 8), random_poly(rng, 8)
        assert (p + q).derivative() == p.derivative() + q.derivative()
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_eval_exact_and_compose_affine():
    p = Poly([1, Fraction(1, 3), 2])
    x0 = Fraction(5, 7)
    assert p(x0) == 1 + Fraction(1, 3) * x0 + 2 * x0 * x0
    shifted = p.compose_affine(1, 1)
    assert shifted(Fraction(2)) == p(Fraction(3))
    scaled = p.compose_affine(Fraction(-2), Fraction(1, 2))
    assert scaled(Fraction(3)) == p(Fraction(-11, 2))


def test_divmod_and_exact_div():
    a = Poly([1, 2, 1])  # (x+1)^2
    b = Poly([1, 1])
    q, r = a.divmod(b)
    assert q == b and r.is_zero()
    assert a.exact_div(b) == b
    with pytest.raises(InexactDivision):
        Poly([1, 0, 1]).exact_div(Poly([1, 1]))
    with pytest.raises(ZeroDivisionError):
        a.divmod(Poly.zero())


def test_divmod_random_reconstruction():
    rng = random.Random(17)
    for _ in range(100):
        a, b = random_poly(rng, 9), random_poly(rng, 5)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert a == q * b + r
        assert r.degree < b.degree


def test_gcd_and_squarefree():
    p = Poly([1, 1]) ** 2 * Poly([-2, 1])
    g = p.gcd(p.derivative())
    assert g == Poly([1, 1])
    sf = p.squarefree_part()
    # squarefree part has the same roots, each once
    assert sf.degree == 2
    assert sf(-1) == 0 and sf(2) == 0


def test_json_roundtrip():
    p = Poly([Fraction(1, 2), 0, -3])
    assert Poly.from_json(p.to_json()) == p
    assert p.to_json() == ["1/2", "0", "-3"]


def test_str_rendering():
    assert str(Poly([5, -2])) == "5 - 2x"
    assert str(Poly([36, -9, -2])) == "36 - 9x - 2x^2"
    assert str(Poly.zero()) == "0"
    assert str(Poly([0, 1])) == "x"
    assert str(Poly([Fraction(7, 2)])) == "7/2"


def test_immutability():
    p = Poly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (Fraction(0),)


def test_integer_ops_match_poly():
    rng = random.Random(19)
    for _ in range(200):
        p, q = random_poly(rng), random_poly(rng)
        (a, b), scale = to_int_scaled([p, q])
        assert from_int_scaled(a, scale) == p and from_int_scaled(b, scale) == q
        assert from_int_scaled(int_poly_mul(a, b), scale * scale) == p * q
        assert from_int_scaled(int_poly_sub(a, b), scale) == p - q
        assert from_int_scaled(int_poly_neg(a), scale) == -p
        if b:
            assert int_poly_exact_div(int_poly_mul(a, b), b) == a


def test_integer_exact_div_tripwire():
    # (x^2 + 1) / (x + 1) leaves a remainder
    with pytest.raises(InexactDivision):
        int_poly_exact_div([1, 0, 1], [1, 1])
    # (3x + 1) / (2x + 1): the leading coefficient does not divide
    with pytest.raises(InexactDivision):
        int_poly_exact_div([1, 3], [1, 2])
    # a constant divisor that does not divide every coefficient
    with pytest.raises(InexactDivision):
        int_poly_exact_div([4, 3], [2])
    # the divisor's degree exceeds the dividend's
    with pytest.raises(InexactDivision):
        int_poly_exact_div([5], [1, 1])
    with pytest.raises(ZeroDivisionError):
        int_poly_exact_div([1], [])
    assert int_poly_exact_div([], [1, 1]) == []
