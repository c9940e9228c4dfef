from fractions import Fraction
from math import gcd

import pytest
from reference_identities import fraction_a_poly

from hankelab import sequences
from hankelab.poly import Poly
from hankelab.rat import Rat, binom
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
    GfForm,
    closed_form_for,
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
        assert p(0) == Rat(2, k + 1) * binom(3 * k, k)


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
    t3 = t_series(3, 3)
    assert [c.coefficient(0) for c in t3.coeffs] == [1, 1, 3, 12]
    t2 = t_series(2, 3)
    assert [c.coefficient(0) for c in t2.coeffs] == [1, 1, 2, 5]
    for beta in (1, 2, 3, 4):
        assert t_residual(beta, 20).is_zero()


def test_tau_series_values():
    tau = tau_series(2)
    assert tau.coefficient(0) == Poly([1])
    assert tau.coefficient(1) == Poly([Fraction(3, 2)])
    assert tau.coefficient(2) == Poly([5])


def test_direct_series_matches_a_poly():
    for fam in ALL_FAMILIES:
        s = f_series(GfForm.DIRECT, fam, 12)
        for k in range(13):
            assert s.coefficient(k) == a_poly(fam, k)


def test_closed_series_matches_a_poly():
    for fam in (F31, F21, F30, F3K2M, FAEX):
        form = closed_form_for(fam)
        s = f_series(form, fam, 12)
        for k in range(13):
            assert s.coefficient(k) == a_poly(fam, k), (fam, k)


def test_closed_form_examples():
    assert f_series(GfForm.CLOSED31, F31, 2).coefficient(1) == Poly([4, 1])
    assert f_series(GfForm.CLOSED21, F21, 2).coefficient(2) == Poly([10, 4, 1])
    assert f_series(GfForm.DIRECT, F31, 1).coefficient(0) == Poly([1])


def test_incompatible_form_family():
    with pytest.raises(ValueError):
        f_series(GfForm.CLOSED31, F21, 4)
    with pytest.raises(ValueError):
        f_series(GfForm.CLOSEDAEX, F31, 4)


def test_gf_form_equiv():
    for fam in (F31, F21, F30, F3K2M, FAEX):
        form = closed_form_for(fam)
        ok, residual = gf_form_equiv(GfForm.DIRECT, form, fam, 20)
        assert ok and residual.is_zero()
    ok, _ = gf_form_equiv(GfForm.DIRECT, GfForm.DIRECT, F32, 10)
    assert ok  # reflexivity


def test_memo_returns_equal_values():
    a1 = a_poly(F31, 5)
    a2 = a_poly(F31, 5)
    assert a1 is a2  # idempotent insert-only memo
