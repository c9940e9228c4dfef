import math
import random
from fractions import Fraction

import pytest

from hankelab.rat import Rat, binom, binom0, double_factorial, format_rat, parse_rat, rat


def test_binom_ordinary():
    assert binom(4, 1) == 4
    assert binom(7, 2) == 21
    assert binom(10, 0) == 1
    assert binom(3, 5) == 0  # lower index exceeds nonnegative integer top


def test_binom_half():
    # falling factorial: (1/2)(-1/2)/2!
    assert binom(Fraction(1, 2), 2) == Fraction(-1, 8)


def test_binom_negative_top():
    assert binom(-1, 3) == -1
    assert binom(-2, 2) == 3


def test_binom_rejects_negative_lower():
    with pytest.raises(ValueError):
        binom(4, -1)
    assert binom0(4, -1) == 0


def test_binom_pascal_rule_random():
    rng = random.Random(7)
    for _ in range(200):
        top = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        k = rng.randint(1, 10)
        assert binom(top, k) == binom(top - 1, k) + binom(top - 1, k - 1)


def fraction_binom(top, k):
    """The falling-factorial loop binom ran before its integer form: k
    Fraction products, then one division by k!."""
    num = Fraction(1)
    for i in range(k):
        num *= top - i
    return num / math.factorial(k)


def test_binom_rational_top_matches_the_fraction_loop():
    rng = random.Random(8)
    drawn = (Fraction(rng.randint(-10**6, 10**6), rng.randint(2, 10**4)) for _ in range(150))
    tops = [t for t in drawn if t.denominator > 1]  # integer tops take math.comb
    tops += [Fraction(1, 2), Fraction(-1, 2), Fraction(-7, 3), Fraction(13, 6)]
    assert len(tops) > 100 and sum(t < 0 for t in tops) > 50
    for top in tops:
        for k in range(13):
            got = binom(top, k)
            assert type(got) is Fraction and got == fraction_binom(top, k), (top, k)


def test_double_factorial():
    assert double_factorial(0) == 1
    assert double_factorial(-1) == 1
    assert double_factorial(7) == 105
    assert double_factorial(8) == 384
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_rat_serialization_roundtrip():
    values = [Rat(0), Rat(5), Rat(-3, 7), Rat(22, 4)]
    for v in values:
        assert parse_rat(format_rat(v)) == v
    assert format_rat(Rat(5)) == "5"
    assert format_rat(Rat(-3, 7)) == "-3/7"


def test_rat_exactness():
    # lowest terms with positive denominator, and division by zero errors
    q = rat("6/8")
    assert (q.numerator, q.denominator) == (3, 4)
    with pytest.raises(ZeroDivisionError):
        Rat(1) / Rat(0)
