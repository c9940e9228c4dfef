"""The binomial polynomial families and their convolutions.

Each family lifts an integer sequence C(beta*k + alpha, k)-style sequence to
monic-in-x polynomials a_k(x); the Hankel machinery downstream consumes these.
a_k is one list of `math.comb` integers over one denominator (k + 1 for aex,
else 1), with C(t, j) = (-1)^j C(j - t - 1, j) for a negative top t.  The
generating functions of the families are in `series.py`, so a determinant
query never compiles them.
"""

from __future__ import annotations

from _thread import allocate_lock
from collections import namedtuple
from math import comb

from .poly import Poly, from_int_scaled, int_poly_add_into, int_poly_mul, to_int_scaled


class FamilyId(namedtuple("FamilyId", "kind beta alpha", defaults=(0, 0))):
    """Tagged name of a sequence family.

    kind "binom" carries the (beta, alpha) pair; the named variants
    ("3k-2m", "aex", "3k+1-shift", "2k+2-shift") carry no parameters.
    Equal and hashed as the tuple (kind, beta, alpha).
    """

    __slots__ = ()

    def __new__(cls, kind: str, beta: int = 0, alpha: int = 0):
        if kind == "binom" and beta < 1:
            raise ValueError("binomial family needs beta >= 1")
        return super().__new__(cls, kind, beta, alpha)

    @property
    def name(self) -> str:
        if self.kind == "binom":
            return f"{self.beta},{self.alpha}"
        return self.kind

    def __str__(self) -> str:
        return self.name


F31 = FamilyId("binom", 3, 1)
F21 = FamilyId("binom", 2, 1)
F30 = FamilyId("binom", 3, 0)
F32 = FamilyId("binom", 3, 2)
F3K2M = FamilyId("3k-2m")
FAEX = FamilyId("aex")
FSHIFT31 = FamilyId("3k+1-shift")
FSHIFT22 = FamilyId("2k+2-shift")

ALL_FAMILIES = (F31, F21, F30, F32, F3K2M, FAEX, FSHIFT31, FSHIFT22)


def family_from_name(name: str) -> FamilyId:
    name = name.strip()
    for fam in ALL_FAMILIES:
        if fam.name == name:
            return fam
    try:
        beta, alpha = map(int, name.split(","))
    except ValueError:
        raise ValueError(f"unknown family {name!r}") from None
    return FamilyId("binom", beta, alpha)


# The determinants of a family at each n: H_n on columns 0..n, and K_n, M_n,
# N_n on shifted columns (hankel.py).
VARIANTS = ("H", "K", "M", "N")


# ---------------------------------------------------------------------------
# a_k(x) and convolutions
# ---------------------------------------------------------------------------

_a_memo: dict[tuple[FamilyId, int], Poly] = {}
_conv_memo: dict[tuple[FamilyId, int], Poly] = {}
_memo_lock = allocate_lock()  # threading.Lock, without importing threading


def a_poly(family: FamilyId, k: int) -> Poly:
    """The k-th polynomial of the family, a dense Poly in x."""
    if k < 0:
        raise ValueError(f"sequence index must be >= 0, got {k}")
    key = (family, k)
    hit = _a_memo.get(key)
    if hit is not None:
        return hit
    p = _a_poly_raw(family, k)
    with _memo_lock:
        _a_memo.setdefault(key, p)
    return p


def _a_poly_raw(family: FamilyId, k: int) -> Poly:
    """a_k from one integer coefficient list over one denominator: the
    binomials are `math.comb` integers, and only aex divides (by k + 1)."""
    kind = family.kind
    ms = range(k + 1)
    if kind == "binom":
        top = family.beta * k + family.alpha
        return from_int_scaled([_comb(top - m, k - m) for m in ms], 1)
    if kind == "3k-2m":
        return from_int_scaled([comb(3 * k - 2 * m, k - m) for m in ms], 1)
    if kind == "aex":
        return from_int_scaled(
            [(m + 1) * (m + 2) * comb(3 * k - m, k - m) for m in ms], k + 1
        )
    if kind == "3k+1-shift":
        return from_int_scaled([comb(3 * k + 1, k - m) for m in ms], 1)
    if kind == "2k+2-shift":
        return from_int_scaled([comb(2 * k + 2, k - m) for m in ms], 1)
    raise ValueError(f"unknown family kind {kind!r}")


def _comb(top: int, j: int) -> int:
    """C(top, j) for an integer top of either sign: C(t, j) = (-1)^j C(j - t - 1, j)."""
    if top >= 0:
        return comb(top, j)
    return -comb(j - top - 1, j) if j & 1 else comb(j - top - 1, j)


def conv_poly(family: FamilyId, k: int) -> Poly:
    """Self-convolution c_k = sum a_m a_{k-m}, with c_{-1} = 0."""
    if k < -1:
        raise ValueError(f"convolution index must be >= -1, got {k}")
    if k == -1:
        return Poly.zero()
    key = (family, k)
    hit = _conv_memo.get(key)
    if hit is not None:
        return hit
    # Over Z with one common scale; the sum is symmetric in m <-> k - m.
    ints, scale = to_int_scaled([a_poly(family, m) for m in range(k + 1)])
    total: list[int] = []
    for m in range(k // 2 + 1):
        weight = 1 if 2 * m == k else 2
        int_poly_add_into(total, int_poly_mul(ints[m], ints[k - m]), weight)
    acc = from_int_scaled(total, scale * scale)
    with _memo_lock:
        _conv_memo.setdefault(key, acc)
    return acc
