import random
from fractions import Fraction

import pytest

from hankelab import sturm
from hankelab.poly import Poly
from hankelab.sturm import isolate_real_roots, refine_interval, root_bound


def sturm_count(p, a, b) -> int:
    """Oracle: distinct real roots of p in the half-open interval (a, b],
    read off p's Sturm chain."""
    return sturm._count(sturm.sturm_chain(p), Fraction(a), Fraction(b))


def test_sqrt2_count():
    p = Poly([-2, 0, 1])
    assert sturm_count(p, 0, 2) == 1
    assert sturm_count(p, -2, 2) == 2
    assert sturm_count(p, 2, 5) == 0


def test_no_real_roots():
    assert isolate_real_roots(Poly([1, 0, 1])) == []


def test_linear_isolation():
    # 5 - 2x has the single root 5/2
    intervals = isolate_real_roots(Poly([5, -2]))
    assert len(intervals) == 1
    a, b = intervals[0]
    assert a < Fraction(5, 2) <= b


def test_half_open_endpoint_semantics():
    # (a, b] includes b: root exactly at endpoint 1
    p = Poly([-1, 1])
    assert sturm_count(p, 0, 1) == 1
    assert sturm_count(p, 1, 2) == 0


def test_repeated_roots_counted_once():
    p = Poly([1, 1]) ** 3  # (x+1)^3
    assert sturm_count(p, -2, 0) == 1
    assert len(isolate_real_roots(p)) == 1


def random_squarefree(rng):
    while True:
        deg = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(deg)] + [
            Fraction(rng.randint(1, 6))
        ]
        p = Poly(coeffs)
        if p.gcd(p.derivative()).degree == 0:
            return p


def test_isolation_matches_count_random():
    rng = random.Random(43)
    for _ in range(100):
        p = random_squarefree(rng)
        bound = root_bound(p)
        total = sturm_count(p, -bound, bound)
        intervals = isolate_real_roots(p)
        assert len(intervals) == total
        # each interval holds exactly one root, intervals pairwise disjoint
        for (a1, b1), (a2, b2) in zip(intervals, intervals[1:]):
            assert b1 <= a2
        for a, b in intervals:
            assert sturm_count(p, a, b) == 1


def test_refine_interval():
    p = Poly([-2, 0, 1])
    (interval,) = [iv for iv in isolate_real_roots(p) if iv[1] > 0]
    a, b = refine_interval(p, interval, Fraction(1, 1000))
    assert b - a <= Fraction(1, 1000)
    assert a * a < 2 <= b * b or (a < 0)  # sqrt(2) inside


def test_zero_poly_rejected():
    with pytest.raises(ValueError):
        sturm_count(Poly.zero(), 0, 1)
    with pytest.raises(ValueError):
        isolate_real_roots(Poly.zero())


def test_disjoint_isolation_builds_each_chain_once(monkeypatch):
    built = []
    chain = sturm.sturm_chain
    monkeypatch.setattr(sturm, "sturm_chain", lambda p: built.append(p) or chain(p))
    p, q = Poly([-2, 0, 1]), Poly([-3, 0, 1])  # +-sqrt 2 and +-sqrt 3
    ips, iqs = sturm.isolate_disjoint_from(p, q)
    assert built == [p, q]  # the first intervals overlap, so refinement ran too
    merged = sorted([(iv, "p") for iv in ips] + [(iv, "q") for iv in iqs])
    assert [tag for _, tag in merged] == ["q", "p", "p", "q"]
    assert all(a[1] <= b[0] for (a, _), (b, _) in zip(merged, merged[1:]))


def fraction_count(chain, a, b):
    """Oracle for the integer sign reading: each chain value as a Fraction."""
    counts = []
    for t in (a, b):
        signs = [v > 0 for v in (f(t) for f in chain) if v != 0]
        counts.append(sum(1 for u, v in zip(signs, signs[1:]) if u != v))
    return counts[0] - counts[1]


def test_integer_signs_match_fraction_evaluation():
    rng = random.Random(1433)
    for _ in range(120):
        # a rational content, and a rational root r that is also an end
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        p = random_squarefree(rng) * Poly([-r, 1]) * Fraction(rng.randint(1, 5), rng.randint(1, 7))
        chain = sturm.sturm_chain(p)
        bound = root_bound(p)
        ends = [-bound, bound, r, *(Fraction(rng.randint(-24, 24), rng.randint(1, 6))
                                    for _ in range(3))]
        for a in ends:
            for b in ends:
                if a <= b:
                    assert sturm._count(chain, a, b) == fraction_count(chain, a, b)
                    assert sturm_count(p, a, b) == fraction_count(chain, a, b)
