"""Integer factorization by trial division into a smooth part and cofactor.

The factorization displays split a determinant value into its small-prime
part and whatever large factors remain; primality of the
cofactor is decided by deterministic Miller-Rabin for the ranges that
occur here (below 3.3 * 10^24) and reported as "probable prime" beyond.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, compress
from math import isqrt

# Witnesses proving primality for every n < 3,317,044,064,679,887,385,961,981
# (Sorenson & Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


def _miller_rabin(n: int, base: int) -> bool:
    if n % base == 0:
        return n == base
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """True iff n is prime; deterministic below the Miller-Rabin limit."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    return all(_miller_rabin(n, b) for b in _MR_WITNESSES)


def primality_label(n: int) -> str:
    if n == 1:
        return "unit"
    if not is_prime(n):
        return "composite"
    return "prime" if n < _MR_DETERMINISTIC_LIMIT else "probable prime"


# _odd_sieve[i] is 1 iff 2i + 1 is prime; replaced by a longer one on demand.
_odd_sieve = bytearray()


def _primes(bound: int):
    """The primes <= bound in ascending order, read lazily off the memoised
    odd-only sieve of Eratosthenes, which is first made to cover bound."""
    global _odd_sieve
    size = (bound + 1) // 2
    if len(_odd_sieve) < size:
        sieve = bytearray([1]) * size
        sieve[0] = 0
        for i in range(1, (isqrt(bound) + 1) // 2):
            if sieve[i]:
                # cross out the odd multiples of p = 2i + 1 from p*p, at index 2i(i + 1)
                start, p = 2 * i * (i + 1), 2 * i + 1
                sieve[start::p] = bytes((size - 1 - start) // p + 1)
        _odd_sieve = sieve
    if bound < 2:
        return iter(())
    return chain((2,), compress(range(1, bound + 1, 2), _odd_sieve))


class FactorReport(namedtuple("FactorReport", "input sign small_factors cofactor bound")):
    """sign * prod(prime^exp) * cofactor = input, primes all <= bound;
    small_factors is a tuple of (prime, exponent) pairs."""

    __slots__ = ()

    def render(self) -> str:
        """Display form: ascending primes, then the cofactor."""
        parts = []
        if self.sign < 0:
            parts.append("-1")
        for p, e in self.small_factors:
            parts.append(f"{p}^{e}" if e > 1 else str(p))
        smooth = "·".join(parts)
        if self.cofactor != 1:
            return f"{smooth} · {self.cofactor}" if smooth else str(self.cofactor)
        return smooth if smooth else "1"


def factor_smooth(value: int, bound: int = 10**6) -> FactorReport:
    """Complete trial division by the primes <= bound, read one at a time,
    so a value whose cofactor is settled early reads no further primes.

    The cofactor carries everything not divisible by any prime <= bound.
    Only primes up to min(bound, isqrt(|value|)) are read: a cofactor
    1 < n <= bound left after them has no prime factor <= isqrt(n), so it
    is prime and is recorded as a factor.
    """
    if value == 0:
        raise ValueError("cannot factor zero")
    if bound < 2:
        raise ValueError("bound must be >= 2")
    sign = 1 if value > 0 else -1
    n = abs(value)
    factors: list[tuple[int, int]] = []
    for p in _primes(min(bound, isqrt(n))):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    if 1 < n <= bound:
        factors.append((n, 1))
        n = 1
    return FactorReport(
        input=value,
        sign=sign,
        small_factors=tuple(factors),
        cofactor=n,
        bound=bound,
    )
