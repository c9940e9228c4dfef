import math
import random
from fractions import Fraction
from math import gcd

import pytest
from reference_identities import binom, fraction_a_poly

from hankelab import sequences
from hankelab.poly import Poly
from hankelab.sequences import (
    ALL_FAMILIES,
    F21,
    F30,
    F31,
    F32,
    F3K2M,
    FAEX,
    FSHIFT22,
    FSHIFT31,
    FamilyId,
    a_poly,
    conv_poly,
    family_from_name,
)
from hankelab.series import (
    f_series,
    gf_form_equiv,
    t_residual,
    t_series,
    tau_series,
)


def test_family_names_roundtrip():
    for fam in ALL_FAMILIES:
        assert family_from_name(fam.name) == fam
    assert family_from_name("4,2") == FamilyId("binom", 4, 2)
    for bad in ("nope", "a,b", "3,1,2", "3,", ","):
        with pytest.raises(ValueError, match=f"unknown family '{bad}'"):
            family_from_name(bad)
    with pytest.raises(ValueError):
        FamilyId("binom", 0, 1)


def test_a_poly_examples():
    assert a_poly(F31, 0) == Poly([1])
    assert a_poly(F31, 1) == Poly([4, 1])
    assert a_poly(F21, 1) == Poly([3, 1])
    assert a_poly(F21, 2) == Poly([10, 4, 1])
    with pytest.raises(ValueError):
        a_poly(F31, -1)


def test_binom_families_monic_and_value_at_zero():
    for beta in (1, 2, 3, 4):
        for alpha in range(-1, 5):
            fam = FamilyId("binom", beta, alpha)
            for k in range(0, 26):
                p = a_poly(fam, k)
                assert p.degree == k
                assert p.leading == 1
                assert p(0) == binom(beta * k + alpha, k)


# The reference `binom` (rational tops) that `fraction_a_poly` and the
# DegreeInstance oracle read.


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


def test_integer_a_k_matches_the_fraction_oracle():
    # negative tops (alpha down to -8) take the sign rule C(t, j) = (-1)^j C(j-t-1, j)
    pairs = [(FamilyId("binom", beta, alpha), k)
             for beta in range(1, 6) for alpha in range(-8, 9) for k in range(21)]
    pairs += [(fam, k) for fam in ALL_FAMILIES for k in range(41)]
    assert len(pairs) == 2113
    for fam, k in pairs:
        got = sequences._a_poly_raw(fam, k)
        assert got == fraction_a_poly(fam, k), (fam, k)
        assert got.num[-1] and gcd(got.den, *got.num) == 1, (fam, k)


def test_aex_shape():
    # leading coefficient k+2, constant term 2/(k+1) C(3k,k)
    for k in range(0, 12):
        p = a_poly(FAEX, k)
        assert p.degree == k
        assert p.leading == k + 2
        assert p(0) == Fraction(2, k + 1) * binom(3 * k, k)


def test_shift_identities():
    for k in range(0, 26):
        assert a_poly(FSHIFT22, k) == a_poly(F21, k).compose_affine(1, 1)
        assert a_poly(FSHIFT31, k) == a_poly(F30, k).compose_affine(1, 1)


def test_conv_examples():
    assert conv_poly(F31, -1).is_zero()
    assert conv_poly(F31, 0) == Poly([1])
    assert conv_poly(F31, 1) == Poly([8, 2])
    with pytest.raises(ValueError):
        conv_poly(F31, -2)


def test_conv_symmetric_order():
    for fam in ALL_FAMILIES:
        for k in range(0, 13):
            forward = conv_poly(fam, k)
            reverse = Poly.zero()
            for m in range(k, -1, -1):
                reverse = reverse + a_poly(fam, m) * a_poly(fam, k - m)
            assert forward == reverse


def test_t_series_values():
    assert t_series(3, 3) == (1, 1, 3, 12)
    assert t_series(2, 3) == (1, 1, 2, 5)
    for beta in (1, 2, 3, 4):
        assert not any(t_residual(beta, 20))


def test_tau_series_values():
    assert tau_series(2) == (1, Fraction(3, 2), 5)


def test_direct_series_matches_a_poly():
    for fam in ALL_FAMILIES:
        s = f_series(fam, 12, False)
        assert list(s) == [a_poly(fam, k) for k in range(13)], fam


def test_closed_series_matches_a_poly():
    for fam in (F31, F21, F30, F3K2M, FAEX):
        s = f_series(fam, 12, True)
        assert list(s) == [a_poly(fam, k) for k in range(13)], fam


def test_closed_form_examples():
    assert f_series(F31, 2, True)[1] == Poly([4, 1])
    assert f_series(F21, 2, True)[2] == Poly([10, 4, 1])
    assert f_series(F31, 1, False)[0] == Poly([1])


def test_incompatible_form_family():
    # a closed form is asked of its own family only; (3,2) has none
    with pytest.raises(ValueError):
        f_series(F32, 4, True)


def test_gf_form_equiv():
    for fam in (F31, F21, F30, F3K2M, FAEX):
        ok, residual = gf_form_equiv(fam, 20)
        assert ok and not any(residual)
    with pytest.raises(ValueError):  # no closed form to compare with
        gf_form_equiv(F32, 10)


def test_memo_returns_equal_values():
    a1 = a_poly(F31, 5)
    a2 = a_poly(F31, 5)
    assert a1 is a2  # idempotent insert-only memo
