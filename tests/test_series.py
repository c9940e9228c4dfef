import random
from fractions import Fraction

import pytest

import hankelab.series as series
from hankelab.checks import run_check
from hankelab.poly import InexactDivision, Poly
from hankelab.sequences import ALL_FAMILIES, F21, F31, F3K2M, FAEX
from hankelab.series import CLOSED_FORMS, divide_exact, gf_denominator, gf_fraction, mul

# A series of order m is the tuple of its m + 1 Poly coefficients.
ZERO, ONE = Poly.zero(), Poly.one()


def random_series(rng, order):
    return tuple(
        Poly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))])
        for _ in range(order + 1)
    )


def test_mul_matches_poly_convolution():
    rng = random.Random(23)
    for _ in range(50):
        order = rng.randint(0, 8)
        a, b = random_series(rng, order), random_series(rng, order)
        prod = mul(a, b)
        for k in range(order + 1):
            expected = Poly.zero()
            for i in range(k + 1):
                expected = expected + a[i] * b[k - i]
            assert prod[k] == expected


def test_truncation_consistency():
    # coefficient k of a product depends only on coefficients 0..k
    rng = random.Random(29)
    a, b = random_series(rng, 10), random_series(rng, 10)
    assert mul(a, b)[:7] == mul(a[:7], b[:7])


def test_divide_exact_nonunit_constant():
    # (x-1) * (1 + y) divided by (x-1) must recover 1 + y
    p = Poly([-1, 1])
    assert divide_exact((p, p, ZERO, ZERO, ZERO), (p, ZERO, ZERO, ZERO, ZERO)) == (
        ONE, ONE, ZERO, ZERO, ZERO)


# Differential tests: the series product and quotient run on integer rows;
# these oracles are their earlier bodies, one Poly operation per term.


def poly_mul(a, b):
    out = [Poly.zero()] * len(a)
    for i, ca in enumerate(a):
        if ca.is_zero():
            continue
        for j in range(len(a) - i):
            cb = b[j]
            if not cb.is_zero():
                out[i + j] = out[i + j] + ca * cb
    return tuple(out)


def poly_divide_exact(num, den):
    d0 = den[0]
    if d0.is_zero():
        raise ZeroDivisionError("series division by y-multiple")
    out = []
    for k in range(len(num)):
        acc = num[k]
        for j in range(1, k + 1):
            acc = acc - den[j] * out[k - j]
        out.append(acc.exact_div(d0))
    return tuple(out)


def mixed_series(rng, order):
    """Rational coefficients over mixed denominators, with zero rows."""
    def coeff():
        if rng.random() < 0.25:
            return Poly.zero()
        return Poly([Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 7]))
                     for _ in range(rng.randint(1, 5))])

    return tuple(coeff() for _ in range(order + 1))


def test_mul_matches_the_poly_oracle():
    rng = random.Random(1409)
    for _ in range(150):
        order = rng.randint(0, 9)
        a, b = mixed_series(rng, order), mixed_series(rng, order)
        assert mul(a, b) == poly_mul(a, b)
        assert mul(a, a) == poly_mul(a, a)
        scalar = rng.choice([3, -2, Fraction(-5, 6), Poly([Fraction(1, 3), 0, -2])])
        const = (Poly.const(scalar) if type(scalar) is not Poly else scalar,) + (ZERO,) * order
        assert mul(a, const) == mul(const, a) == poly_mul(a, const)
    zero = (ZERO,) * 5
    assert mul(zero, mixed_series(rng, 4)) == zero


def test_divide_exact_matches_the_poly_oracle():
    # num = q * den is divisible by construction; d0 is non-monic with
    # a rational content, so each step divides by a non-unit in Q[x]
    rng = random.Random(1423)
    for _ in range(120):
        order = rng.randint(0, 8)
        den = mixed_series(rng, order)
        low = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 5]))
               for _ in range(rng.randint(1, 3))]
        d0 = Poly(low + [Fraction(rng.choice([2, 3, -4, 6]), rng.choice([1, 3]))])
        den = (d0, *den[1:])
        quot = mixed_series(rng, order)
        num = poly_mul(quot, den)
        assert divide_exact(num, den) == poly_divide_exact(num, den) == quot


def test_divide_exact_keeps_the_remainder_tripwire():
    x = Poly([0, 1])
    num = (ONE, x, ZERO, ZERO)
    den = (x - 1, Poly.const(2), ZERO, ZERO)
    for divide in (divide_exact, poly_divide_exact):
        with pytest.raises(InexactDivision):
            divide(num, den)
        with pytest.raises(ZeroDivisionError):
            divide(num, (ZERO, x, ZERO, ZERO))


def test_gf_fraction_prefixes_match_a_build_at_each_order(monkeypatch):
    # every form is built once at the top order; each lower order is its
    # prefix, equal to a fresh build at that order
    def fresh(fam, order, closed):
        monkeypatch.setattr(series, "_gf_memo", {})
        return gf_fraction(fam, order, closed)

    top = 12
    pairs = [(False, fam) for fam in ALL_FAMILIES]
    pairs += [(True, fam) for fam in ALL_FAMILIES if fam in CLOSED_FORMS]
    want = {(closed, fam, order): fresh(fam, order, closed)
            for closed, fam in pairs for order in range(top + 1)}
    memo = {}
    monkeypatch.setattr(series, "_gf_memo", memo)
    for closed, fam in pairs:
        for order in range(top, -1, -1):
            assert gf_fraction(fam, order, closed) == want[closed, fam, order], (closed, fam, order)
    assert {len(s) for s in memo.values()} == {top + 1}
    assert len(memo) == 2 * len(pairs)
    # a larger order is built anew and kept
    closed, fam = pairs[-1]
    assert gf_fraction(fam, top + 2, closed) == fresh(fam, top + 2, closed)
    assert len(memo[CLOSED_FORMS[fam].name, fam, 1]) == top + 3


def test_gf_denominator_expands_no_closed_numerator(monkeypatch):
    monkeypatch.setattr(series, "_gf_memo", {})
    for fam in (F31, FAEX):
        assert gf_denominator(fam, 9, True) == gf_fraction(fam, 9, True)[1]
    monkeypatch.setattr(series, "_gf_memo", {})
    gf_denominator(F21, 7, True)
    assert list(series._gf_memo) == [("closed21", F21, 1)]


# Every entry of the form tables is load-bearing: each int, y-power and
# s-power of a closed form's terms, and of the fixed direct table of
# 3k-2m, bumped by 1 in turn on a copy, must fail `gfequiv` or `fcoeffs`
# for its family.


def _paths(table):
    """The index path of every int in a nested tuple (a str in it is a
    factor's kind, not bumped)."""
    for i, item in enumerate(table):
        if type(item) is int:
            yield (i,)
        elif type(item) is tuple:
            yield from ((i, *path) for path in _paths(item))


def _bump(table, path):
    """A copy of the nested tuple with the int at ``path`` plus 1."""
    i, *rest = path
    item = _bump(table[i], rest) if rest else table[i] + 1
    return (*table[:i], item, *table[i + 1:])


def _form_checks_fail(fam):
    rows = run_check("gfequiv", fam, [12]) + run_check("fcoeffs", fam, [12])
    return any(r.status == "fail" for r in rows)


def test_every_form_table_entry_is_load_bearing(monkeypatch):
    mutants = [(fam, {fam: form._replace(num=num, den=den)}, series._DIRECT_3K2M)
               for fam, form in CLOSED_FORMS.items()
               for num, den in (_bump(form[2:], path) for path in _paths(form[2:]))]
    beta, *parts = series._DIRECT_3K2M
    mutants += [(F3K2M, {}, (beta, *_bump(tuple(parts), path))) for path in _paths(tuple(parts))]
    assert len(mutants) == 125  # 108 closed-form entries and 17 of the direct table
    for fam in CLOSED_FORMS:
        assert not _form_checks_fail(fam), fam
    survived = []
    for fam, closed, direct in mutants:
        monkeypatch.setattr(series, "CLOSED_FORMS", {**CLOSED_FORMS, **closed})
        monkeypatch.setattr(series, "_DIRECT_3K2M", direct)
        monkeypatch.setattr(series, "_gf_memo", {})
        if not _form_checks_fail(fam):
            survived.append((fam, closed, direct))
    assert survived == []
