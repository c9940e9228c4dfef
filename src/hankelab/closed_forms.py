"""Product formulas, almost-product evaluations, ODE residuals, recursions,
and the orthogonal-polynomial connections of the determinant families.

Every formula here was hand-transcribed once from its source display; the
transcription gate is residual-zero (or exact equality) against brute-force
determinants, exercised in the test suite, so a typo surfaces as a specific
failing (id, n) pair.  The products, the almost-product coefficients and
the three-term coefficients are data, hypergeometric terms and (n, x)
tables read by ``forms``.  The ODE table itself is ``odes.py``,
re-exported here as ``ODES``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from math import factorial

from .forms import nx_poly, term_value
from .poly import Poly, lin_comb
from .sequences import F21, F30, F31, F32, FAEX, FSHIFT22
from .hankel import hankel_det, hankel_det_at
from .odes import ODES, OdeSpec
from .sturm import strictly_interlace


# ---------------------------------------------------------------------------
# Product formulas at special points
# ---------------------------------------------------------------------------


class ProductFormulaId(Enum):
    P32 = "p32"                       # (3,2) determinant, pure product
    P30 = "p30"                       # (3,0) determinant, pure product
    P31AT3 = "p31at3"                 # H^{(3,1)}(3)
    P31AT3HALF = "p31at3half"         # H^{(3,1)}(3/2)
    P31AT3QUARTER = "p31at3quarter"   # H^{(3,1)}(3/4)
    P30AT3 = "p30at3"                 # H^{(3,0)}(3)
    P30AT3HALF = "p30at3half"         # H^{(3,0)}(3/2)
    PAEXAT3SEVENTHS = "paexat3sevenths"  # aex determinant at 3/7
    P21AT0 = "p21at0"                 # H^{(2,1)}(0) = 1
    P21AT2 = "p21at2"                 # H^{(2,1)}(2) = (-1)^n (2n+1)


# A product formula: its outer term at n times the product of its inner
# term at i = start..n, both hypergeometric terms (`forms.term_value`);
# value(n) equals the family's H_n at x.
class ProductForm(namedtuple("ProductForm", "family x outer inner start", defaults=(1,))):
    __slots__ = ()

    def value(self, n: int) -> Fraction:
        acc = term_value(self.outer, n)
        for i in range(self.start, n + 1):
            acc *= term_value(self.inner, n, i)
        return acc


_P = ProductFormulaId
_ONE = (1, 1, (), ())
_SIGN_N = (-1, 1, 0, 0)  # (-1)^n
PRODUCTS: dict[ProductFormulaId, ProductForm] = {
    _P.P32: ProductForm(F32, Fraction(0), _ONE, (
        1, 2, (("!", 0, 6, 4), ("!", 0, 2, 1)), (("!", 0, 4, 2), ("!", 0, 4, 3)))),
    _P.P30: ProductForm(F30, Fraction(0), _ONE, (
        3, 1, (("", 0, 3, 1), ("!", 0, 6, 0), ("!", 0, 2, 0)), (("!", 0, 4, 0), ("!", 0, 4, 1)))),
    _P.P31AT3: ProductForm(F31, Fraction(3), (1, 1, (_SIGN_N,), ()), (
        1, 1, (("!", 0, 6, -3), ("!", 0, 3, 2), ("!", 0, 2, -1)),
        (("!", 0, 4, -1), ("!", 0, 4, 1), ("!", 0, 3, -2)))),
    _P.P31AT3HALF: ProductForm(F31, Fraction(3, 2), _ONE, (
        1, 2, (("!", 0, 2, -1), ("!", 0, 6, 0), ("", 0, 3, 1)), (("!", 0, 4, -1), ("!", 0, 4, 1)))),
    _P.P31AT3QUARTER: ProductForm(F31, Fraction(3, 4), _ONE, (
        1, 2, (("!", 0, 2, -1), ("!", 0, 6, 1)), (("!", 0, 4, -1), ("!", 0, 4, 1)))),
    _P.P30AT3: ProductForm(F30, Fraction(3), (
        1, 2, (("!", 3, 0, 0), ("!", 3, 0, 2)), (("!", 1, 0, 0), ("!", 1, 0, 0))), (
        3, 1, (("!", 0, 6, -5), ("!", 0, 2, 0), ("", 0, 2, -1)), (("!", 0, 4, 1), ("!", 0, 4, -1)))),
    _P.P30AT3HALF: ProductForm(F30, Fraction(3, 2), _ONE, (
        27, 2, (("!", 0, 6, -5), ("", 0, 3, -1), ("", 0, 3, -2), ("!", 0, 2, -1)),
        (("!", 0, 4, -1), ("", 0, 4, -3), ("!", 0, 4, -4)))),
    _P.PAEXAT3SEVENTHS: ProductForm(FAEX, Fraction(3, 7), _ONE, (
        2, 7, (("!", 0, 6, 7), ("!", 0, 2, 1)), (("!", 0, 4, 5), ("!", 0, 4, 3))), 0),
    _P.P21AT0: ProductForm(F21, Fraction(0), _ONE, _ONE),
    _P.P21AT2: ProductForm(F21, Fraction(2), (1, 1, (_SIGN_N, ("", 2, 0, 1)), ()), _ONE),
}


def product_eval(pid: ProductFormulaId, n: int) -> Fraction:
    """Exact value of the named finite product at index n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return PRODUCTS[pid].value(n)


def product_matches_determinant(pid: ProductFormulaId, n: int) -> bool:
    form = PRODUCTS[pid]
    return product_eval(pid, n) == hankel_det_at(form.family, n, form.x)


# ---------------------------------------------------------------------------
# Almost products
# ---------------------------------------------------------------------------


class AlmostProductId(Enum):
    AP31 = "ap31"         # (3,1): prefactor * sum in powers of (x-3)
    AP31ALT = "ap31alt"   # (3,1): alternate form in powers of (x-1)
    AP21 = "ap21"         # (2,1): prefactor * sum in powers of (x-2)
    AP31AT0 = "ap31at0"   # AP31 at x = 0: H^{(3,1)}(0)
    AP31AT1 = "ap31at1"   # AP31 at x = 1: the (3,2) product
    AP21AT0 = "ap21at0"   # AP21 at x = 0: equals 1
    AP21AT1 = "ap21at1"   # AP21 at x = 1: equals (-1)^{n(n+1)/2}


# H_n of family = product(prefactor, n) * sum_{i=0..n} coeff(n, i) (x - centre)^i,
# with coeff(n, i) the hypergeometric term ``term`` at (n, i).
class AlmostProductForm(namedtuple("AlmostProductForm", "family prefactor centre term")):
    __slots__ = ()

    def coeff(self, n: int, i: int) -> Fraction:
        return term_value(self.term, n, i)


_A = AlmostProductId
ALMOST_PRODUCTS: dict[AlmostProductId, AlmostProductForm] = {
    _A.AP31: AlmostProductForm(F31, _P.P31AT3, 3, (
        1, 1, (("!", 1, 0, 0), ("!", 3, 1, 2), (2, 0, 1, 0)),
        (("!", 3, 0, 2), ("!", 1, -1, 0), ("!", 0, 2, 1)))),
    _A.AP31ALT: AlmostProductForm(F31, _P.P32, 1, (
        1, 1, ((-1, 0, 1, 0), ("!", 1, 0, 0), ("!!", 4, 0, 3), ("!", 3, 1, 2)),
        (("!", 3, 0, 2), ("!", 0, 1, 0), ("!", 1, -1, 0), ("!!", 4, 2, 3)))),
    _A.AP21: AlmostProductForm(F21, _P.P21AT2, 2, (
        1, 1, (("!", 1, 1, 0), (2, 0, 1, 0)), (("!", 1, -1, 0), ("!", 0, 2, 1)))),
}

# The specialized forms: a parametric form read at a fixed point.
AP_POINTS: dict[AlmostProductId, tuple[AlmostProductId, Fraction]] = {
    _A.AP31AT0: (_A.AP31, Fraction(0)),
    _A.AP31AT1: (_A.AP31, Fraction(1)),
    _A.AP21AT0: (_A.AP21, Fraction(0)),
    _A.AP21AT1: (_A.AP21, Fraction(1)),
}


def almost_product_eval(
    aid: AlmostProductId, n: int, x=None
) -> Poly | Fraction:
    """Evaluate an almost-product formula.

    ``x=None`` returns the symbolic Poly for the three parametric forms;
    a rational ``x`` substitutes first.  The four specialized forms take
    no ``x`` and return a Fraction.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if aid in AP_POINTS:
        if x is not None:
            raise ValueError(f"{aid.value} takes no x")
        aid, x = AP_POINTS[aid]
    form = ALMOST_PRODUCTS.get(aid)
    if form is None:
        raise ValueError(f"unknown almost product {aid!r}")
    t = Poly([-form.centre, 1]) if x is None else Fraction(x) - form.centre
    acc = Fraction(0)
    for i in range(n, -1, -1):  # Horner in t = x - centre
        acc = acc * t + form.coeff(n, i)
    return acc * product_eval(form.prefactor, n)


# ---------------------------------------------------------------------------
# ODE specifications and residuals
# ---------------------------------------------------------------------------


def ode_residual(spec: OdeSpec, n: int, y: Poly) -> Poly:
    """sum_k coeff_k(n) * d_x^k y; the zero Poly iff y solves the instance."""
    coeffs = spec.coeffs(n)
    derivs = [y]
    for _ in coeffs[1:]:
        derivs.append(derivs[-1].derivative())
    return lin_comb(zip(coeffs, derivs))


def ode_residual_for_det(name: str, n: int) -> Poly:
    spec = ODES[name]
    return ode_residual(spec, n, hankel_det(spec.family, n))


# ---------------------------------------------------------------------------
# Recursions and structure results
# ---------------------------------------------------------------------------


# The (3,1) three-term recursion p_n H_n + q_n H_{n-1} + H_{n-2} = 0: p_n
# and q_n, each a hypergeometric term in n times a polynomial in (n, x).
THREE_TERM_31 = (
    ((4, 9, (("!", 4, 0, -3), ("!", 4, 0, -3), ("!", 4, 0, -1), ("!", 4, 0, -1)),
      (("", 3, 0, -2), ("", 3, 0, -2), ("", 3, 0, -1), ("", 3, 0, -1),
       ("!", 2, 0, -1), ("!", 2, 0, -1), ("!", 6, 0, -5), ("!", 6, 0, -5))),
     (((1,), (-2,), (1,)),)),
    ((4, 3, (("", 1, 0, -1), ("!", 4, 0, -5), ("!", 4, 0, -1)),
      (("", 3, 0, -2), ("", 3, 0, -1), ("", 4, 0, 1), ("!", 2, 0, -1), ("!", 6, 0, -5))),
     (((57, 162, -324), (-138, -378, 756), (108, 288, -576), (-24, -64, 128)),)),
)


def three_term_31_pq(n: int) -> tuple[Poly, Poly]:
    """The rational-coefficient p_n, q_n of the (3,1) three-term recursion."""
    return tuple(nx_poly(poly, n) * term_value(term, n) for term, poly in THREE_TERM_31)


def three_term_check(case: str, n: int) -> bool:
    """Three-term recursions: "c31" needs n >= 2, "c21" needs n >= 2."""
    if n < 2:
        raise ValueError("three-term recursions start at n = 2")
    if case == "c31":
        fam, (p, q) = F31, three_term_31_pq(n)
    elif case == "c21":
        fam, p, q = F21, 1, Poly([-2, 2])
    else:
        raise ValueError(f"unknown three-term case {case!r}")
    return lin_comb(zip((p, q, 1), (hankel_det(fam, n - i) for i in range(3)))).is_zero()


def recursion_31at1(n: int) -> Fraction:
    """Iterate the one-term recursion for the (3,2) determinant.

    Specializing the (3,1) three-term recursion at x = 1 kills the H_n term
    and leaves H_n^{(3,2)} = -H_{n-1}^{(3,2)} / q_{n+1}(1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    acc = Fraction(1)
    for i in range(1, n + 1):
        acc /= -three_term_31_pq(i + 1)[1](1)
    return acc


def chebyshev_u(n: int) -> Poly:
    """Chebyshev U_n by its three-term recurrence; U_{-1} = 0."""
    if n < 0:
        return Poly.zero()
    prev, cur = Poly.one(), Poly([0, 2])
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, Poly([0, 2]) * cur - prev
    return cur


def jacobi_half(n: int) -> Poly:
    """Jacobi P_n^{(1/2, -1/2)} by its rational three-term recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    p0 = Poly.one()
    if n == 0:
        return p0
    p1 = Poly([Fraction(1, 2), 1])
    if n == 1:
        return p1
    prev, cur = p0, p1
    for k in range(2, n + 1):
        # k(k-1) P_k = (2k-1)(k-1) x P_{k-1} - (k-1/2)(k-3/2) P_{k-2}
        a = (2 * k - 1) * (k - 1)
        c = Fraction((2 * k - 1) * (2 * k - 3), 4)
        nxt = (Poly([0, a]) * cur - c * prev) * Fraction(1, k * (k - 1))
        prev, cur = cur, nxt
    return cur


def chebyshev_jacobi_check(n: int) -> bool:
    """The (2,1) determinant vs Chebyshev/Jacobi forms, plus the shifted ODE."""
    h = hankel_det(F21, n)
    u_part = chebyshev_u(n).compose_affine(-1, 1) - chebyshev_u(n - 1).compose_affine(
        -1, 1
    )
    if h != u_part:
        return False
    f = factorial
    scale = Fraction((-4) ** n * f(n) ** 2, f(2 * n))
    if h != jacobi_half(n).compose_affine(1, -1) * scale:
        return False
    h_shift = hankel_det(FSHIFT22, n)
    if h_shift != jacobi_half(n) * scale:
        return False
    return ode_residual(ODES["de2np2ak"], n, h_shift).is_zero()


def interlace_check(n: int) -> bool:
    """H_n^{(3,1)} has n distinct real roots strictly interlacing those of H_{n+1}."""
    if n < 1:
        raise ValueError("interlacing starts at n = 1")
    return strictly_interlace(hankel_det(F31, n + 1), hankel_det(F31, n))
