import random
from fractions import Fraction

from fraction_poly import ref

from hankelab.hankel import hankel_det
from hankelab.poly import Poly
from hankelab.sequences import F31
from hankelab.sturm import signed_remainders, strictly_interlace


def from_roots(lead, roots) -> Poly:
    p = Poly.const(lead)
    for r in roots:
        p = p * Poly([-r, 1])
    return p


def merge_oracle(p_roots, q_roots) -> bool:
    """Interlacing read off the known roots: sorted together they must
    alternate p, q, p, ..., p with no value repeated."""
    if len(q_roots) != len(p_roots) - 1:
        return False
    merged = sorted([(r, "p") for r in p_roots] + [(r, "q") for r in q_roots])
    if any(a == b for (a, _), (b, _) in zip(merged, merged[1:])):
        return False
    return [tag for _, tag in merged] == ["p" if i % 2 == 0 else "q" for i in range(len(merged))]


def random_lead(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))


def random_pair(rng):
    """Roots on a grid of halves.  Half the pairs alternate by construction,
    one root of q then possibly moved; the rest are drawn freely, so repeated
    and shared roots and degree gaps other than 1 occur too."""
    grid = [Fraction(k, 2) for k in range(-8, 9)]
    deg = rng.randint(1, 6)
    if rng.random() < 0.5:
        pts = sorted(rng.sample(grid, 2 * deg - 1))
        p_roots, q_roots = pts[::2], pts[1::2]
        if q_roots and rng.random() < 0.5:
            q_roots[rng.randrange(len(q_roots))] = rng.choice(grid)
    else:
        p_roots = [rng.choice(grid) for _ in range(deg)]
        q_deg = max(0, deg - rng.choice([1, 1, 1, 0, 2]))
        q_roots = [rng.choice(grid) for _ in range(q_deg)]
    return p_roots, q_roots


def seeded_pairs():
    """1500 seeded (p_roots, q_roots, p, q), leading coefficients of both signs."""
    rng = random.Random(2026)
    for _ in range(1500):
        p_roots, q_roots = random_pair(rng)
        p = from_roots(random_lead(rng), p_roots)
        yield p_roots, q_roots, p, from_roots(random_lead(rng), q_roots)


def test_criterion_matches_root_merge_oracle():
    verdicts = []
    for p_roots, q_roots, p, q in seeded_pairs():
        want = merge_oracle(p_roots, q_roots)
        assert strictly_interlace(p, q) == want, (p_roots, q_roots)
        verdicts.append(want)
    assert 300 < sum(verdicts) < 1200


def fraction_signed_remainders(p, q):
    """S_0 = p, S_1 = q, S_{k+1} = -rem(S_{k-1}, S_k) by long division over
    Fraction, up to the first zero remainder."""
    seq = [ref(p), ref(q)]
    while True:
        rem = seq[-2].divmod(seq[-1])[1]
        if not rem:
            return seq
        seq.append(-rem)


def test_integer_remainders_match_the_fraction_sequence():
    # Sylvester's count reads the degrees and leading signs only, and the
    # integer sequence must keep every one of them
    pairs = [(p, q) for *_, p, q in seeded_pairs()]
    pairs += [(hankel_det(F31, n + 1), hankel_det(F31, n)) for n in range(1, 13)]
    for p, q in pairs:
        got = [(len(s), s[-1] > 0) for s in signed_remainders(p.num, q.num)]
        want = [(len(s.coeffs), s.coeffs[-1] > 0) for s in fraction_signed_remainders(p, q)]
        assert got == want, (p, q)


def test_sqrt2_pair():
    # +-sqrt 2 around 0; the roots are irrational, so no merge can be read off
    assert strictly_interlace(Poly([-2, 0, 1]), Poly([0, 1]))
    assert strictly_interlace(Poly([-2, 0, 1]), Poly([1, 1]))  # -1 lies between
    assert not strictly_interlace(Poly([-2, 0, 1]), Poly([-2, 1]))  # 2 does not


def test_linear_and_nonzero_constant_interlace():
    # one root and no gap between roots: nothing can fail
    assert strictly_interlace(Poly([5, -2]), Poly([3]))
    assert strictly_interlace(Poly([5, -2]), Poly([-1]))


def test_no_real_roots():
    assert not strictly_interlace(Poly([1, 0, 1]), Poly([0, 1]))
    # x^2 + 1 times (x - 1): one real root of three
    assert not strictly_interlace(Poly([1, 0, 1]) * Poly([-1, 1]), Poly([-2, 0, 1]))


def test_shared_root_does_not_interlace():
    assert not strictly_interlace(from_roots(1, [0, 1, 2]), from_roots(1, [1, Fraction(3, 2)]))
    assert not strictly_interlace(from_roots(1, [0, 2]), from_roots(1, [2]))
    assert strictly_interlace(from_roots(1, [0, 1, 2]), from_roots(1, [Fraction(1, 2), Fraction(3, 2)]))


def test_repeated_root_of_p_does_not_interlace():
    assert not strictly_interlace(from_roots(1, [0, 0]), from_roots(1, [1]))
    assert not strictly_interlace(from_roots(1, [0, 0]), from_roots(1, [0]))
    assert not strictly_interlace(from_roots(1, [-1, 1, 1]), from_roots(1, [0, 2]))


def test_negative_leading_coefficients():
    p_roots, q_roots = [-2, 0, 3], [-1, 1]
    for lp in (1, -1, Fraction(-2, 3)):
        for lq in (1, -1, Fraction(-5, 7)):
            assert strictly_interlace(from_roots(lp, p_roots), from_roots(lq, q_roots))
            assert not strictly_interlace(from_roots(lp, p_roots), from_roots(lq, [1, 2]))


def test_degree_gap_other_than_one():
    p = from_roots(1, [-2, 0, 3])
    for q_roots in ([], [-1], [-1, 1, 2], [-3, -1, 1, 4]):
        assert not strictly_interlace(p, from_roots(1, q_roots))
    # the pair the right way round interlaces
    assert strictly_interlace(from_roots(1, [-3, -1, 1, 4]), p)


def test_zero_poly_rejected():
    assert not strictly_interlace(Poly.zero(), Poly.zero())
    assert not strictly_interlace(Poly([3]), Poly.zero())
    assert not strictly_interlace(Poly.zero(), Poly([0, 1]))


def test_f31_determinants_interlace_to_n12():
    for n in range(1, 13):
        assert strictly_interlace(hankel_det(F31, n + 1), hankel_det(F31, n)), n
