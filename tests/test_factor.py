import random
from math import isqrt

import pytest
from reference_det import list_factor_smooth, list_primes_up_to, reconstruct

from hankelab import factor
from hankelab.factor import factor_smooth, is_prime, primality_label


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
        for p in list_primes_up_to(100):
            if rep.cofactor > 1:
                assert rep.cofactor % p != 0 or p > rep.bound


def test_primality():
    assert is_prime(2) and is_prime(41740796329)
    assert not is_prime(1) and not is_prime(561)  # Carmichael number
    assert is_prime(548377971864917477341)
    assert primality_label(41740796329) == "prime"
    assert primality_label(4) == "composite"


def test_primes_up_to():
    # the lazy walk over the odd-only sieve, and the full-sieve oracle
    for primes in (lambda b: list(factor._primes(b)), list_primes_up_to):
        assert primes(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes(1) == []


def test_primes_up_to_matches_trial_division(monkeypatch):
    # the lazy walk against the full-sieve oracle, which is checked against
    # trial division
    primes = [p for p in range(2, 3000) if all(p % d for d in range(2, isqrt(p) + 1))]
    for bound in range(3000):
        want = [p for p in primes if p <= bound]
        assert list_primes_up_to(bound) == want, bound
        assert list(factor._primes(bound)) == want, bound  # off a sieve built for a larger bound
        monkeypatch.setattr(factor, "_odd_sieve", bytearray())
        assert list(factor._primes(bound)) == want, bound  # off a sieve built for this bound


def test_lazy_walk_matches_the_list_walk_oracle(monkeypatch):
    rng = random.Random(18)
    for bound in (2, 3, 4, 9, 25, 97, 10**3, 10**4):
        monkeypatch.setattr(factor, "_odd_sieve", bytearray())  # a sieve for this bound
        primes = list_primes_up_to(bound + 200)
        below = max(p for p in primes if p <= bound)
        above = min(p for p in primes if p > bound)
        values = [
            1, -1, 2, -2 * 3 * 5, below, 8 * below, -9 * below * below,  # cofactor <= bound
            above, 4 * above, -above * above, below * above,  # cofactor above bound
            2**40 * 3**7 * 1000003, -(10**18 + 9),
        ]
        values += [rng.randint(1, 10**12) * rng.choice((1, -1)) for _ in range(60)]
        values += [rng.choice(primes[:20]) ** rng.randint(1, 5) * rng.choice(primes)
                   for _ in range(40)]
        for value in values:
            assert factor_smooth(value, bound) == list_factor_smooth(value, bound), (
                value, bound)


def test_values_far_below_the_bound_match_the_list_walk_oracle():
    # bounds below and far above the square root of each seeded value
    rng = random.Random(24)
    values = [1, 2, 3, 4, 3158, -3158, 97 * 101, 2 * 1000003, 1000003**2, 10**12 + 39]
    values += [rng.randint(1, 10**9) * rng.choice((1, -1)) for _ in range(40)]
    values += [rng.choice((2, 3, 5, 7, 11)) ** rng.randint(1, 9) * rng.randint(1, 5000)
               for _ in range(40)]
    for value in values:
        root = isqrt(abs(value))
        for bound in {2, max(2, root // 3), max(2, root), root + 1, 10**5}:
            assert factor_smooth(value, bound) == list_factor_smooth(value, bound), (value, bound)


def test_the_sieve_covers_only_what_the_value_needs(monkeypatch):
    # 3158 = 2 * 1579 needs the primes up to isqrt(3158) = 56, not a sieve
    # of the 10^8 the bound allows
    monkeypatch.setattr(factor, "_odd_sieve", bytearray())
    rep = factor_smooth(3158, 10**8)
    assert rep.small_factors == ((2, 1), (1579, 1)) and rep.cofactor == 1
    assert len(factor._odd_sieve) <= 28
