import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from fraction_poly import FractionPoly, ref
from reference_det import mul_sub_cross, mul_then_add

from hankelab.poly import (
    InexactDivision,
    Poly,
    from_int_scaled,
    int_poly_add_into,
    int_poly_addmul,
    int_poly_exact_div,
    int_poly_mul,
    int_poly_neg,
    lin_comb,
    to_int_scaled,
)
from hankelab.hankel import INT_POLY, Ring, _int_poly_cross, det_bareiss


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
    # a = 0: the linear factor [b, 0] ends in a zero, and p(b) is a constant
    assert p.compose_affine(0, Fraction(5, 7)) == Poly.const(p(x0))


def test_exact_div():
    a = Poly([1, 2, 1])  # (x+1)^2
    b = Poly([1, 1])
    assert a.exact_div(b) == b
    # a divisor with content and a negative leading coefficient, over a
    # rational numerator: (x^2 - 1)/2 / (-4x - 4) = (1 - x)/8
    half = Fraction(1, 2)
    assert Poly([-half, 0, half]).exact_div(Poly([-4, -4])) == Poly([1, -1]) * Fraction(1, 8)
    assert Poly([1, 1]).exact_div(6) == Poly([1, 1]) * Fraction(1, 6)
    # inexact over Q
    with pytest.raises(InexactDivision):
        Poly([1, 0, 1]).exact_div(Poly([1, 1]))
    with pytest.raises(InexactDivision):
        Poly([3]).exact_div(Poly([0, 2]))
    with pytest.raises(ZeroDivisionError):
        a.exact_div(Poly.zero())


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
        diff = list(a)
        int_poly_add_into(diff, b, -1)
        assert from_int_scaled(diff, scale) == p - q
        assert from_int_scaled(int_poly_neg(a), scale) == -p
        if b:
            assert int_poly_exact_div(int_poly_mul(a, b), b) == a


def random_int_poly(rng, max_len=9, bits=70):
    """An int list of random length (0 too), a third of its entries zero,
    so interior and trailing zeros both occur."""
    return [rng.getrandbits(bits) - (1 << (bits - 1)) if rng.randrange(3) else 0
            for _ in range(rng.randint(0, max_len))]


def test_addmul_matches_mul_then_add():
    # acc shorter, as long as and longer than the product, with trailing
    # zeros of its own, against the product formed first and added after
    rng = random.Random(8191)
    weights = [0, 1, -1, 2, -3, 2**64 + 13, -(2**64) - 1, 3**50]
    for trial in range(600):
        a, b = random_int_poly(rng), random_int_poly(rng)
        acc = random_int_poly(rng, max_len=20)
        if trial % 4 == 0:
            acc += [0] * rng.randint(1, 3)
        weight = weights[trial % len(weights)] if trial % 3 else rng.randint(-50, 50)
        want = list(acc)
        mul_then_add(want, a, b, weight)
        got, a0, b0 = list(acc), list(a), list(b)
        int_poly_addmul(got, a, b, weight)
        assert got == want, (acc, a, b, weight)
        assert (a, b) == (a0, b0)
    acc = [5, 0, 0]
    int_poly_addmul(acc, [], [1, 2])
    int_poly_addmul(acc, [1, 2], [])
    assert acc == [5, 0, 0]
    int_poly_addmul(acc, [1, 1], [1, 0, 1], 0)
    assert acc == [5, 0, 0, 0]  # grown to the product's length, as add_into does


def _stripped(a):
    while a and not a[-1]:
        a.pop()
    return a


def _recorded_crosses(rng, size):
    """The (p, r, l, u, d) of every Bareiss step on a random Z[x] matrix."""
    calls = []

    def record(p, r, l, u, d):
        calls.append((p, r, l, u, d))
        return mul_sub_cross(p, r, l, u, d)

    rows = [[_stripped(random_int_poly(rng, max_len=4, bits=20)) for _ in range(size)]
            for _ in range(size)]
    det_bareiss(rows, Ring(record, INT_POLY.neg))
    return calls


def test_int_poly_cross_matches_mul_sub_exact_div():
    rng = random.Random(1968)
    crosses = [c for size in (2, 3, 4, 5) for _ in range(12)
               for c in _recorded_crosses(rng, size)]
    assert any(d is None for *_, d in crosses) and any(d for *_, d in crosses)
    for p, r, l, u, d in crosses:
        assert _int_poly_cross(p, r, l, u, d) == mul_sub_cross(p, r, l, u, d)
        # the same step over a divisor drawn at random: the two paths agree,
        # both raising where it does not divide
        other = _stripped(random_int_poly(rng, max_len=3, bits=6)) or [3]
        try:
            want = mul_sub_cross(p, r, l, u, other)
        except InexactDivision:
            with pytest.raises(InexactDivision):
                _int_poly_cross(p, r, l, u, other)
        else:
            assert _int_poly_cross(p, r, l, u, other) == want
    # x^2 + 1 over x + 1 leaves a remainder
    with pytest.raises(InexactDivision):
        _int_poly_cross([1, 0, 1], [1], [], [2], [1, 1])
    # x x - x (1 + x) = -x: the x^2 terms cancel and are stripped
    assert _int_poly_cross([0, 1], [0, 1], [0, 1], [1, 1], None) == [0, -1]


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


def test_exact_division_by_a_unit_copies_or_negates():
    # a_0 = 1 is the first pivot of every Hankel elimination, so many steps
    # divide by a unit; the quotient is a new list either way
    rng = random.Random(1583)
    for _ in range(200):
        a = [rng.randint(-10**30, 10**30) for _ in range(rng.randint(1, 9))]
        for unit in (1, -1):
            q = int_poly_exact_div(a, [unit])
            assert q == [unit * c for c in a] and q is not a
            b = [rng.randint(-99, 99) or 1 for _ in range(rng.randint(1, 4))]
            assert int_poly_exact_div(int_poly_mul(a, b), [unit * c for c in b]) == q
    assert int_poly_exact_div([], [-1]) == []


# -- differential tests against the Fraction-tuple reference -------------------


def random_rational_poly(rng):
    """Zero, constants and polynomials up to degree 8 whose coefficients mix
    signs, zeros and denominators up to 10^12 (a third of them share one)."""
    shape = rng.random()
    if shape < 0.08:
        return Poly.zero(), FractionPoly()
    deg = 0 if shape < 0.2 else rng.randint(1, 8)
    common = rng.choice([1, 2, 6, 35, rng.randint(1, 10**12)])
    coeffs = []
    for _ in range(deg + 1):
        roll = rng.random()
        if roll < 0.15:
            coeffs.append(0)
        elif roll < 0.3:
            coeffs.append(rng.randint(-(10**15), 10**15))
        elif roll < 0.6:
            coeffs.append(Fraction(rng.randint(-99, 99), common))
        else:
            coeffs.append(Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 10**12)))
    if rng.random() < 0.2:
        coeffs += [0] * rng.randint(1, 2)  # trailing zeros are stripped
    return Poly(coeffs), FractionPoly(coeffs)


def random_scalar(rng):
    roll = rng.random()
    if roll < 0.1:
        return 0
    if roll < 0.4:
        return rng.randint(-(10**6), 10**6)
    return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**8))


def assert_canonical(p):
    assert type(p) is Poly
    assert type(p.num) is tuple and all(type(c) is int for c in p.num)
    assert type(p.den) is int and p.den > 0
    assert not p.num or p.num[-1] != 0
    assert gcd(p.den, *p.num) == 1
    if not p.num:
        assert p.den == 1


def assert_agrees(p, want):
    """p is canonical and equals the reference polynomial want."""
    assert_canonical(p)
    assert ref(p) == want, (p, want)


def test_poly_ops_match_fraction_reference():
    rng = random.Random(20261018)
    for trial in range(2000):
        p, rp = random_rational_poly(rng)
        q, rq = random_rational_poly(rng)
        assert_agrees(p, rp)
        assert_agrees(q, rq)
        assert p.coeffs == rp.coeffs
        assert_agrees(p + q, rp + rq)
        assert_agrees(p - q, rp - rq)
        assert_agrees(-p, -rp)
        assert_agrees(p * q, rp * rq)
        s = random_scalar(rng)
        for got in (p * s, s * p):
            assert_agrees(got, rp * s)
        for got, want in ((p + s, rp + s), (s + p, rp + s), (p - s, rp - s),
                          (Poly.const(s) - p, s - rp)):
            assert_agrees(got, want)
        order = rng.randint(0, 3)
        assert_agrees(p.derivative(order), rp.derivative(order))
        x0 = random_scalar(rng)
        assert p(x0) == rp(Fraction(x0))
        if trial % 5 == 0:
            rng.randint(0, 3)  # drawn and unused: the later seeded draws stay the same
            a = random_scalar(rng)
            b = random_scalar(rng)
            assert_agrees(p.compose_affine(a, b), rp.compose_affine(Fraction(a), Fraction(b)))
        assert (p == q) == (rp == rq)
        if rq:
            assert_agrees((p * q).exact_div(q), rp)
            want_q, want_r = rp.divmod(rq)
            if want_r:
                with pytest.raises(InexactDivision):
                    p.exact_div(q)
            else:
                assert_agrees(p.exact_div(q), want_q)
        else:
            with pytest.raises(ZeroDivisionError):
                p.exact_div(q)


def test_int_scaled_round_trip_matches_reference():
    rng = random.Random(20261019)
    for _ in range(500):
        pairs = [random_rational_poly(rng) for _ in range(rng.randint(1, 4))]
        ints, scale = to_int_scaled([p for p, _ in pairs])
        want_scale = lcm(*(c.denominator for _, rp in pairs for c in rp.coeffs))
        assert scale == want_scale
        for row, (p, rp) in zip(ints, pairs):
            assert row == [int(c * scale) for c in rp.coeffs]
            assert from_int_scaled(row, scale) == p
            assert_agrees(from_int_scaled(row, -scale), -rp)
            padded = [6 * c for c in row] + [0]
            assert_agrees(from_int_scaled(padded, 6 * scale), rp)
            assert padded == [6 * c for c in row] + [0]  # the caller's list is kept


def test_canonical_and_immutable():
    p = Poly([Fraction(2, 6), Fraction(-4, 3), 0, 0])
    assert (p.num, p.den) == ((1, -4), 3)
    assert (Poly.zero().num, Poly.zero().den) == ((), 1)
    z = Poly([0, Fraction(0, 5)])
    assert (z.num, z.den) == ((), 1)
    # equality is (num, den) equality: the same polynomial built two ways
    assert Poly([Fraction(1, 2), Fraction(1, 3)]) == Poly([3, 2]) * Fraction(1, 6)
    assert (Poly([3, 2]) * Fraction(1, 6)).num == (3, 2)
    for attr, value in (("num", (1,)), ("den", 2), ("coeffs", (Fraction(1),)), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(p, attr, value)
    assert (p.num, p.den) == ((1, -4), 3)


def test_hash_agrees_with_eq():
    assert Poly.const(3) == 3 and hash(Poly.const(3)) == hash(3)
    assert len({Poly.const(3), 3}) == 1
    assert Poly.const(Fraction(6, 4)) == Fraction(3, 2)
    assert hash(Poly.const(Fraction(6, 4))) == hash(Fraction(3, 2))
    assert Poly.zero() == 0 and hash(Poly.zero()) == hash(0) == hash(Fraction(0))
    assert len({Poly.zero(), 0, Fraction(0), Poly([0, 0])}) == 1
    assert Poly.const(-1) == -1 and hash(Poly.const(-1)) == hash(-1)
    assert Poly([1, 2]) != 1
    rng = random.Random(20261020)
    for _ in range(300):
        p, rp = random_rational_poly(rng)
        twin = Poly(rp.coeffs)
        assert twin == p and hash(twin) == hash(p)
        if p.degree <= 0:
            value = p.coefficient(0)
            assert p == value and hash(p) == hash(value)


def test_lin_comb_matches_a_fraction_sum():
    # int, Fraction and Poly coefficients over Polys with mixed denominators,
    # with zero coefficients, zero polynomials and terms that cancel
    rng = random.Random(4243)
    draws = [
        lambda: rng.randint(-6, 6),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
        lambda: random_poly(rng, 4),
    ]
    for trial in range(300):
        pairs = [(rng.choice(draws)(), random_poly(rng, 10)) for _ in range(rng.randint(0, 7))]
        if trial % 3 == 0 and pairs:
            c, p = pairs[0]
            pairs.append((-c, p))
        want = FractionPoly()
        for c, p in pairs:
            want = want + (ref(c) if isinstance(c, Poly) else c) * ref(p)
        got = lin_comb(pairs)
        assert ref(got) == want, pairs
        assert got == from_int_scaled(list(got.num), got.den)  # canonical num / den
    assert lin_comb([]) == Poly.zero() and lin_comb([(0, Poly([1, 2]))]).den == 1
    half = Fraction(1, 2)
    assert lin_comb([(half, Poly([1, 1])), (Poly([half]), Poly([1, -1]))]) == Poly([1])
