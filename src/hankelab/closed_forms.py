"""Product formulas, almost-product evaluations, ODE residuals, recursions,
and the orthogonal-polynomial connections of the determinant families.

Every formula here was hand-transcribed once from its source display; the
transcription gate is residual-zero (or exact equality) against brute-force
determinants, exercised in the test suite, so a typo surfaces as a specific
failing (id, n) pair.  Every form is data read by ``forms``: the products,
the almost-product coefficients, Chebyshev U_n and Jacobi
P_n^(1/2,-1/2) (terminating 2F1 sums in powers of y - 1), their scale and
ap21at1's stated sign are hypergeometric terms, and the three-term
coefficients (n, x) tables.  The tables `PRODUCTS`, `ALMOST_PRODUCTS`,
`AP_POINTS` and `THREE_TERM` are keyed by the ids of the checks that read
them ("p32", "ap31at1", "threeterm21"), the only names the forms have.
The ODE table itself is ``odes.py``, re-exported here as ``ODES``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .forms import nx_poly, term_sum, term_value
from .poly import Poly, lin_comb
from .sequences import F21, F30, F31, F32, FAEX, FSHIFT22
from .hankel import hankel_det, hankel_det_at
from .odes import ODES, OdeSpec
from .sturm import strictly_interlace


# ---------------------------------------------------------------------------
# Product formulas at special points
# ---------------------------------------------------------------------------


# A product formula: its outer term at n times the product of its inner
# term at (n, i), i = start..n, both hypergeometric terms
# (`forms.term_value`); value(n) equals the family's H_n at x.
class ProductForm(namedtuple("ProductForm", "family x outer inner start", defaults=(1,))):
    __slots__ = ()

    def value(self, n: int) -> Fraction:
        acc = term_value(self.outer, n)
        for i in range(self.start, n + 1):
            acc *= term_value(self.inner, n, i)
        return acc


# check id -> its form; the id names the family and the point:
# p31at3half is H^{(3,1)}(3/2), and p32 and p30 are read at x = 0.
_ONE = (1, 1, (), ())
_SIGN_N = (-1, 1, 0)  # (-1)^n
PRODUCTS: dict[str, ProductForm] = {
    "p32": ProductForm(F32, Fraction(0), _ONE, (
        1, 2, (("!", 0, 6, 4), ("!", 0, 2, 1)), (("!", 0, 4, 2), ("!", 0, 4, 3)))),
    "p30": ProductForm(F30, Fraction(0), _ONE, (
        3, 1, (("", 0, 3, 1), ("!", 0, 6, 0), ("!", 0, 2, 0)), (("!", 0, 4, 0), ("!", 0, 4, 1)))),
    "p31at3": ProductForm(F31, Fraction(3), (1, 1, (_SIGN_N,), ()), (
        1, 1, (("!", 0, 6, -3), ("!", 0, 3, 2), ("!", 0, 2, -1)),
        (("!", 0, 4, -1), ("!", 0, 4, 1), ("!", 0, 3, -2)))),
    "p31at3half": ProductForm(F31, Fraction(3, 2), _ONE, (
        1, 2, (("!", 0, 2, -1), ("!", 0, 6, 0), ("", 0, 3, 1)), (("!", 0, 4, -1), ("!", 0, 4, 1)))),
    "p31at3quarter": ProductForm(F31, Fraction(3, 4), _ONE, (
        1, 2, (("!", 0, 2, -1), ("!", 0, 6, 1)), (("!", 0, 4, -1), ("!", 0, 4, 1)))),
    "p30at3": ProductForm(F30, Fraction(3), (
        1, 2, (("!", 3, 0), ("!", 3, 2)), (("!", 1, 0), ("!", 1, 0))), (
        3, 1, (("!", 0, 6, -5), ("!", 0, 2, 0), ("", 0, 2, -1)), (("!", 0, 4, 1), ("!", 0, 4, -1)))),
    "p30at3half": ProductForm(F30, Fraction(3, 2), _ONE, (
        27, 2, (("!", 0, 6, -5), ("", 0, 3, -1), ("", 0, 3, -2), ("!", 0, 2, -1)),
        (("!", 0, 4, -1), ("", 0, 4, -3), ("!", 0, 4, -4)))),
    "paexat3sevenths": ProductForm(FAEX, Fraction(3, 7), _ONE, (
        2, 7, (("!", 0, 6, 7), ("!", 0, 2, 1)), (("!", 0, 4, 5), ("!", 0, 4, 3))), 0),
    "p21at0": ProductForm(F21, Fraction(0), _ONE, _ONE),
    "p21at2": ProductForm(F21, Fraction(2), (1, 1, (_SIGN_N, ("", 2, 1)), ()), _ONE),
}


def product_eval(pid: str, n: int) -> Fraction:
    """Exact value of the named finite product at index n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return PRODUCTS[pid].value(n)


def product_matches_determinant(pid: str, n: int) -> bool:
    form = PRODUCTS[pid]
    return product_eval(pid, n) == hankel_det_at(form.family, n, form.x)


# ---------------------------------------------------------------------------
# Almost products
# ---------------------------------------------------------------------------


# H_n of family = product(prefactor, n) * sum_{i=0..n} term(n, i) (x - centre)^i,
# with term(n, i) a hypergeometric term (`forms.term_sum`) and prefactor a
# PRODUCTS id.  ap31alt is ap31's alternate form, in powers of x - 1.
AlmostProductForm = namedtuple("AlmostProductForm", "family prefactor centre term")


ALMOST_PRODUCTS: dict[str, AlmostProductForm] = {
    "ap31": AlmostProductForm(F31, "p31at3", 3, (
        1, 1, (("!", 1, 0, 0), ("!", 3, 1, 2), (2, 0, 1, 0)),
        (("!", 3, 0, 2), ("!", 1, -1, 0), ("!", 0, 2, 1)))),
    "ap31alt": AlmostProductForm(F31, "p32", 1, (
        1, 1, ((-1, 0, 1, 0), ("!", 1, 0, 0), ("!!", 4, 0, 3), ("!", 3, 1, 2)),
        (("!", 3, 0, 2), ("!", 0, 1, 0), ("!", 1, -1, 0), ("!!", 4, 2, 3)))),
    "ap21": AlmostProductForm(F21, "p21at2", 2, (
        1, 1, (("!", 1, 1, 0), (2, 0, 1, 0)), (("!", 1, -1, 0), ("!", 0, 2, 1)))),
}

# The specialized forms: a parametric form read at a fixed point.
AP_POINTS: dict[str, tuple[str, Fraction]] = {
    "ap31at0": ("ap31", Fraction(0)),
    "ap31at1": ("ap31", Fraction(1)),
    "ap21at0": ("ap21", Fraction(0)),
    "ap21at1": ("ap21", Fraction(1)),
}

# The value the paper states for ap21at1, the product of (-1)^i over
# i = 1..n: (-1)^{n(n+1)/2}.  Not a formula of its own, so not in PRODUCTS.
AP21AT1_SIGN = ProductForm(F21, Fraction(1), _ONE, (1, 1, ((-1, 0, 1, 0),), ()))


def almost_product_eval(aid: str, n: int, x=None) -> Poly | Fraction:
    """Evaluate an almost-product formula.

    ``x=None`` returns the symbolic Poly for the three parametric forms;
    a rational ``x`` substitutes first.  The four specialized forms take
    no ``x`` and return a Fraction.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if aid in AP_POINTS:
        if x is not None:
            raise ValueError(f"{aid} takes no x")
        aid, x = AP_POINTS[aid]
    form = ALMOST_PRODUCTS.get(aid)
    if form is None:
        raise ValueError(f"unknown almost product {aid!r}")
    t = Poly([-form.centre, 1]) if x is None else Fraction(x) - form.centre
    return term_sum(form.term, n, t) * product_eval(form.prefactor, n)


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


# check id -> (family, ((term, poly) of p_n, (term, poly) of q_n)) of the
# three-term recursion p_n H_n + q_n H_{n-1} + H_{n-2} = 0: each
# coefficient a hypergeometric term in n times a polynomial in (n, x).
# For (2,1), (p, q) = (1, 2x - 2).
THREE_TERM = {
    "threeterm31": (F31, (
        ((4, 9, (("!", 4, -3), ("!", 4, -3), ("!", 4, -1), ("!", 4, -1)),
          (("", 3, -2), ("", 3, -2), ("", 3, -1), ("", 3, -1),
           ("!", 2, -1), ("!", 2, -1), ("!", 6, -5), ("!", 6, -5))),
         (((1,), (-2,), (1,)),)),
        ((4, 3, (("", 1, -1), ("!", 4, -5), ("!", 4, -1)),
          (("", 3, -2), ("", 3, -1), ("", 4, 1), ("!", 2, -1), ("!", 6, -5))),
         (((57, 162, -324), (-138, -378, 756), (108, 288, -576), (-24, -64, 128)),)))),
    "threeterm21": (F21, ((_ONE, ()), (_ONE, (((-2,), (2,)),)))),
}


def three_term_pq(check: str, n: int) -> tuple[Poly, Poly]:
    """p_n and q_n of the three-term recursion of ``check``."""
    return tuple(nx_poly(poly, n) * term_value(term, n) for term, poly in THREE_TERM[check][1])


def three_term_check(check: str, n: int) -> bool:
    """The three-term recursion of ``check`` at n >= 2."""
    if n < 2:
        raise ValueError("three-term recursions start at n = 2")
    fam = THREE_TERM[check][0]
    p, q = three_term_pq(check, n)
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
        acc /= -three_term_pq("threeterm31", i + 1)[1](1)
    return acc


# Chebyshev U_n(y) and Jacobi P_n^(1/2,-1/2)(y) as sums over i of a term in
# (n, i) times (y - 1)^i (Andrews-Askey-Roy, ch. 2 and 6): 2^i (n+i+1)! /
# ((2i+1)! (n-i)!) and (2n+1)!! (n+i)! / (2^n n! i! (n-i)! (2i+1)!!).
# H^{(2,1)}_n is U_n(1-x) - U_{n-1}(1-x), and CHEBJAC_SCALE, (-4)^n n!^2 /
# (2n)!, times P_n(x-1); the 2k+2-shift H_n is that scale times P_n(x).
CHEBYSHEV_U = (1, 1, ((2, 0, 1, 0), ("!", 1, 1, 1)), (("!", 0, 2, 1), ("!", 1, -1, 0)))
JACOBI_HALF = (1, 1, (("!!", 2, 0, 1), ("!", 1, 1, 0)),
               ((2, 1, 0, 0), ("!", 1, 0, 0), ("!", 0, 1, 0), ("!", 1, -1, 0), ("!!", 0, 2, 1)))
CHEBJAC_SCALE = (1, 1, ((-4, 1, 0), ("!", 1, 0), ("!", 1, 0)), (("!", 2, 0),))


def chebyshev_jacobi_check(n: int) -> bool:
    """The (2,1) determinant vs Chebyshev/Jacobi forms, plus the shifted ODE."""
    h, h_shift = hankel_det(F21, n), hankel_det(FSHIFT22, n)
    t, scale = Poly([0, -1]), term_value(CHEBJAC_SCALE, n)  # t = y - 1 at y = 1 - x
    return (h == term_sum(CHEBYSHEV_U, n, t) - term_sum(CHEBYSHEV_U, n - 1, t)
            and h == term_sum(JACOBI_HALF, n, Poly([-2, 1])) * scale
            and h_shift == term_sum(JACOBI_HALF, n, Poly([-1, 1])) * scale
            and ode_residual(ODES["de2np2ak"], n, h_shift).is_zero())


def interlace_check(n: int) -> bool:
    """H_n^{(3,1)} has n distinct real roots strictly interlacing those of H_{n+1}."""
    if n < 1:
        raise ValueError("interlacing starts at n = 1")
    return strictly_interlace(hankel_det(F31, n + 1), hankel_det(F31, n))
