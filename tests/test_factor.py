import random
from math import isqrt

import pytest
from reference_det import reconstruct

from hankelab.factor import factor_smooth, is_prime, primality_label, primes_up_to


def test_small_example():
    rep = factor_smooth(12, 100)
    assert rep.small_factors == ((2, 2), (3, 1))
    assert rep.cofactor == 1
    assert rep.sign == 1
    assert rep.render() == "2^2·3"


def test_unit_input():
    rep = factor_smooth(1, 100)
    assert rep.small_factors == ()
    assert rep.cofactor == 1
    assert rep.render() == "1"


def test_negative_input():
    rep = factor_smooth(-45, 100)
    assert rep.sign == -1
    assert rep.small_factors == ((3, 2), (5, 1))
    assert reconstruct(rep) == -45


def test_zero_rejected():
    with pytest.raises(ValueError):
        factor_smooth(0, 100)


def test_cofactor_above_bound():
    # 1009 is prime and above the bound, so it stays in the cofactor
    rep = factor_smooth(8 * 1009, 100)
    assert rep.small_factors == ((2, 3),)
    assert rep.cofactor == 1009
    assert rep.render() == "2^3 · 1009"


def test_reconstruction_random():
    rng = random.Random(41)
    for _ in range(500):
        value = rng.randint(1, 10**18) * rng.choice([1, -1])
        rep = factor_smooth(value, 10**4)
        assert reconstruct(rep) == value
        for p, _ in rep.small_factors:
            assert p <= rep.bound and is_prime(p)
        # cofactor has no factor at or below the bound
        for p in primes_up_to(100):
            if rep.cofactor > 1:
                assert rep.cofactor % p != 0 or p > rep.bound


def test_primality():
    assert is_prime(2) and is_prime(41740796329)
    assert not is_prime(1) and not is_prime(561)  # Carmichael number
    assert is_prime(548377971864917477341)
    assert primality_label(41740796329) == "prime"
    assert primality_label(4) == "composite"


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []


def test_primes_up_to_matches_trial_division():
    primes = [p for p in range(2, 3000) if all(p % d for d in range(2, isqrt(p) + 1))]
    for bound in range(3000):
        assert primes_up_to(bound) == [p for p in primes if p <= bound], bound
