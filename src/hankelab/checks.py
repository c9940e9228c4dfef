"""Named verification checks: the registry behind `verify`, `sweep`, `report`.

Each check maps (family, n) to report rows.  Asserting checks emit
pass/fail; the reported-not-asserted ones (the unproven fourth-order ODE,
the conjectural explicit (3,1) weights) emit findings on mismatch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .closed_forms import (
    ODES,
    AlmostProductId,
    ProductFormulaId,
    almost_product_eval,
    chebyshev_jacobi_check,
    interlace_check,
    ode_residual,
    product_eval,
    product_matches_determinant,
    recursion_31at1,
    three_term_check,
)
from .hankel import (
    degree_bound,
    dodgson_check,
    general_degree_det,
    hankel_det,
    make_degree_instance,
)
from .identities import (
    IdentityId,
    RelationId,
    check_identity,
    check_matrix_convolution_identities,
    check_relation,
    ciden_check,
    explicit_weights_match,
    transform_rules,
    weight_nullspace,
)
from .report import Row, fail_row, ok_row, verdict_row
from .sequences import (
    ALL_FAMILIES,
    F21,
    F31,
    FAEX,
    FamilyId,
    GfForm,
    a_poly,
    closed_form_for,
    f_series,
    gf_form_equiv,
    t_residual,
)

# Families covered by the generalized degree theorem (aex is not: its
# entries carry the extra (m+1)(m+2) weights).
DEGREE_THEOREM_FAMILIES = tuple(f for f in ALL_FAMILIES if f != FAEX)


@dataclass(frozen=True)
class CheckDef:
    name: str
    run: Callable[[Optional[FamilyId], int], list[Row]]
    min_n: int = 0
    needs_family: bool = False
    default_family: Optional[FamilyId] = None
    default_range: tuple[int, int] = (0, 8)
    description: str = ""


def _ode_check(name: str) -> Callable[[Optional[FamilyId], int], list[Row]]:
    spec = ODES[name]

    def run(_family, n):
        res = ode_residual(spec, n, hankel_det(spec.family, n))
        detail = "" if res.is_zero() else f"residual degree {res.degree}"
        return [
            verdict_row(
                res.is_zero(),
                name,
                finding_on_fail=not spec.proven,
                family=spec.family.name,
                n=n,
                detail=detail,
            )
        ]

    return run


def _product_check(pid: ProductFormulaId):
    def run(_family, n):
        ok = product_matches_determinant(pid, n)
        return [verdict_row(ok, pid.value, n=n)]

    return run


def _almost_check(aid: AlmostProductId):
    def run(_family, n):
        from .closed_forms import AP_FAMILY

        A = AlmostProductId
        if aid in (A.AP31, A.AP31ALT, A.AP21):
            fam = AP_FAMILY[aid]
            ok = almost_product_eval(aid, n) == hankel_det(fam, n)
            return [verdict_row(ok, aid.value, family=fam.name, n=n)]
        if aid is A.AP31AT0:
            ok = almost_product_eval(aid, n) == hankel_det(F31, n)(0)
            return [verdict_row(ok, aid.value, family="3,1", n=n, x="0")]
        if aid is A.AP31AT1:
            ok = almost_product_eval(aid, n) == product_eval(ProductFormulaId.P32, n)
            return [verdict_row(ok, aid.value, family="3,1", n=n, x="1")]
        if aid is A.AP21AT0:
            ok = almost_product_eval(aid, n) == 1
            return [verdict_row(ok, aid.value, family="2,1", n=n, x="0")]
        ok = almost_product_eval(aid, n) == (-1) ** ((n * (n + 1)) // 2)
        return [verdict_row(ok, aid.value, family="2,1", n=n, x="1")]

    return run


def _identity_check(iid: IdentityId):
    def run(_family, k_max):
        fails = check_identity(iid, k_max)
        detail = f"failing k: {fails}" if fails else f"k <= {k_max}"
        return [verdict_row(not fails, iid.value, n=k_max, detail=detail)]

    return run


def _relation_check(rid: RelationId):
    def run(_family, n):
        ok = check_relation(rid, n)
        return [verdict_row(ok, rid.value, n=n)]

    return run


def _dodgson(family, n):
    return [verdict_row(dodgson_check(family, n), "dodgson", family=family.name, n=n)]


def _ef(family, n):
    ok = check_matrix_convolution_identities(family, n)
    return [verdict_row(ok, "ef", family=family.name, n=n)]


def _table1(family, n):
    results = transform_rules(family, n)
    bad = [name for name, ok in results if not ok]
    return [
        verdict_row(
            not bad,
            "table1",
            family=family.name,
            n=n,
            detail=f"failing rules: {bad}" if bad else f"{len(results)} rules",
        )
    ]


def _weights(family, n):
    sol = weight_nullspace(family, n)
    return [
        ok_row("weights", family=family.name, n=n, detail=f"scale {sol.scale}")
    ]


def _explicit_weights(family, n):
    ok, msg = explicit_weights_match(family, n)
    return [
        verdict_row(
            ok,
            "explicit-weights",
            finding_on_fail=True,
            family=family.name,
            n=n,
            detail=msg,
        )
    ]


def _ciden(family, n):
    return [verdict_row(ciden_check(family, n), "ciden", family=family.name, n=n)]


def _threeterm(case):
    fam = F31 if case == "c31" else F21

    def run(_family, n):
        ok = three_term_check(case, n)
        name = "threeterm31" if case == "c31" else "threeterm21"
        return [verdict_row(ok, name, family=fam.name, n=n)]

    return run


def _rec31at1(_family, n):
    ok = recursion_31at1(n) == product_eval(ProductFormulaId.P32, n)
    return [verdict_row(ok, "rec31at1", family="3,2", n=n)]


def _chebjac(_family, n):
    return [verdict_row(chebyshev_jacobi_check(n), "chebjac", family="2,1", n=n)]


def _interlace(_family, n):
    return [verdict_row(interlace_check(n), "interlace", family="3,1", n=n)]


def _gfequiv(family, order):
    form = closed_form_for(family)
    if form is None:
        return [
            fail_row("gfequiv", family=family.name, n=order, detail="no closed form")
        ]
    ok, _res = gf_form_equiv(GfForm.DIRECT, form, family, order)
    detail = f"direct vs {form.value}"
    if form is GfForm.CLOSEDAEX:
        detail += " (tau has non-integer coefficients; implemented literally)"
    return [verdict_row(ok, "gfequiv", family=family.name, n=order, detail=detail)]


def _fcoeffs(family, order):
    s = f_series(GfForm.DIRECT, family, order)
    bad = [k for k in range(order + 1) if s.coefficient(k) != a_poly(family, k)]
    return [
        verdict_row(
            not bad,
            "fcoeffs",
            family=family.name,
            n=order,
            detail=f"failing k: {bad}" if bad else f"k <= {order}",
        )
    ]


def _tseries(_family, order):
    rows = []
    for beta in (2, 3):
        ok = t_residual(beta, order).is_zero()
        rows.append(
            verdict_row(ok, "tseries", n=order, detail=f"beta={beta} residual")
        )
    return rows


def _degree_hn(family, n):
    deg = hankel_det(family, n).degree
    bound = n + 1 if family == FAEX else n
    return [
        verdict_row(
            deg <= bound,
            "degree-hn",
            family=family.name,
            n=n,
            detail=f"degree {deg} <= {bound}",
        )
    ]


def _degree_random(_family, count):
    from fractions import Fraction

    rng = random.Random(20259)
    bad = 0
    for _ in range(count):
        size = rng.randint(1, 4)
        p = [rng.randint(-2, 5) for _ in range(size)]
        q = [rng.randint(-2, 5) for _ in range(size)]
        alphas = [
            Fraction(rng.randint(-12, 24), rng.choice([1, 1, 2, 3]))
            for _ in range(size)
        ]
        betas = [
            Fraction(rng.randint(-12, 24), rng.choice([1, 1, 2])) for _ in range(size)
        ]
        gamma = Fraction(rng.choice([-2, -1, -1, 0, 1, 2]), rng.choice([1, 1, 2]))
        inst = make_degree_instance(p, q, alphas, betas, gamma)
        det = general_degree_det(inst)
        if det.degree > degree_bound(inst):
            bad += 1
    return [
        verdict_row(
            bad == 0,
            "degree-random",
            n=count,
            detail=f"{count} instances, {bad} violations",
        )
    ]


def _build_registry() -> dict[str, CheckDef]:
    reg: dict[str, CheckDef] = {}

    def add(defn: CheckDef):
        reg[defn.name] = defn

    ode_ranges = {
        "de1": (1, 12),
        "de2np1": (1, 15),
        "de2np2ak": (1, 12),
        "thme1": (1, 10),
        "thme2": (1, 10),
        "thme3": (1, 10),
        "thme4": (1, 10),
        "fig4": (1, 8),
    }
    for name, rng in ode_ranges.items():
        add(CheckDef(name, _ode_check(name), min_n=0, default_range=rng,
                     description=f"ODE residual for {ODES[name].family.name}"))

    for pid in ProductFormulaId:
        add(CheckDef(pid.value, _product_check(pid), default_range=(0, 10),
                     description="product formula vs determinant"))
    for aid in AlmostProductId:
        rng = (0, 15) if aid is AlmostProductId.AP21 else (0, 12)
        if aid in (AlmostProductId.AP21AT0, AlmostProductId.AP21AT1):
            rng = (0, 20)
        add(CheckDef(aid.value, _almost_check(aid), default_range=rng,
                     description="almost-product formula"))

    for iid in IdentityId:
        add(CheckDef(iid.value, _identity_check(iid), default_range=(30, 30),
                     description="sequence-level identity (n is k_max)"))
    for rid in RelationId:
        add(CheckDef(rid.value, _relation_check(rid), min_n=2,
                     default_range=(2, 10),
                     description="determinant-level relation"))

    add(CheckDef("dodgson", _dodgson, min_n=1, needs_family=True,
                 default_family=F31, default_range=(1, 10),
                 description="H_{n-1}H_{n+1} = H_nN_n - H_nM_n - K_n^2"))
    add(CheckDef("ef", _ef, needs_family=True, default_family=F31,
                 default_range=(0, 6),
                 description="E/F convolution matrix identities"))
    add(CheckDef("table1", _table1, min_n=1, needs_family=True,
                 default_family=F31, default_range=(1, 5),
                 description="trace transformation rules"))
    add(CheckDef("weights", _weights, min_n=1, needs_family=True,
                 default_family=F31, default_range=(1, 12),
                 description="third-identity nullspace weights"))
    add(CheckDef("explicit-weights", _explicit_weights, min_n=1,
                 needs_family=True, default_family=F31, default_range=(2, 8),
                 description="closed-form weights vs nullspace"))
    add(CheckDef("ciden", _ciden, min_n=1, needs_family=True,
                 default_family=F31, default_range=(1, 10),
                 description="Q2-coefficient determinant identity"))
    add(CheckDef("threeterm31", _threeterm("c31"), min_n=2, default_range=(2, 10)))
    add(CheckDef("threeterm21", _threeterm("c21"), min_n=2, default_range=(2, 15)))
    add(CheckDef("rec31at1", _rec31at1, default_range=(0, 10),
                 description="(3,2) one-term recursion vs product"))
    add(CheckDef("chebjac", _chebjac, default_range=(0, 12),
                 description="Chebyshev/Jacobi forms of the (2,1) determinant"))
    add(CheckDef("interlace", _interlace, min_n=1, default_range=(1, 8),
                 description="root interlacing for the (3,1) family"))
    add(CheckDef("gfequiv", _gfequiv, needs_family=True, default_family=F31,
                 default_range=(25, 25),
                 description="direct vs closed generating form (n is order)"))
    add(CheckDef("fcoeffs", _fcoeffs, needs_family=True, default_family=F31,
                 default_range=(25, 25),
                 description="series coefficients vs a_k (n is order)"))
    add(CheckDef("tseries", _tseries, default_range=(25, 25),
                 description="t-series defining-equation residual"))
    add(CheckDef("degree-hn", _degree_hn, needs_family=True,
                 default_family=F31, default_range=(0, 12),
                 description="degree(H_n) bound"))
    add(CheckDef("degree-random", _degree_random, default_range=(200, 200),
                 description="random generalized-degree instances (n is count)"))
    return reg


REGISTRY: dict[str, CheckDef] = _build_registry()


def run_check(
    name: str, family: Optional[FamilyId], ns: Sequence[int]
) -> list[Row]:
    defn = REGISTRY.get(name)
    if defn is None:
        raise KeyError(f"unknown check {name!r}")
    fam = family if family is not None else defn.default_family
    if defn.needs_family and fam is None:
        raise ValueError(f"check {name!r} needs --family")
    rows: list[Row] = []
    for n in ns:
        if n < defn.min_n:
            continue
        try:
            rows.extend(defn.run(fam, n))
        except Exception as exc:  # one bad (check, n) is one fail row
            detail = f"{type(exc).__name__}: {exc}"
            rows.append(fail_row(name, family=fam and fam.name, n=n, detail=detail))
    return rows


# (check, family-or-None, n_lo, n_hi) tuples covering the acceptance ranges.
def acceptance_suite() -> list[tuple[str, Optional[FamilyId], int, int]]:
    items: list[tuple[str, Optional[FamilyId], int, int]] = []
    for name in ("de1", "de2np1", "de2np2ak", "thme1", "thme2", "thme3",
                 "thme4", "fig4"):
        lo, hi = REGISTRY[name].default_range
        items.append((name, None, lo, hi))
    for pid in ProductFormulaId:
        hi = 20 if pid in (ProductFormulaId.P21AT0, ProductFormulaId.P21AT2) else 10
        items.append((pid.value, None, 0, hi))
    for aid in AlmostProductId:
        lo, hi = REGISTRY[aid.value].default_range
        items.append((aid.value, None, lo, hi))
    for iid in IdentityId:
        items.append((iid.value, None, 30, 30))
    for rid in RelationId:
        items.append((rid.value, None, 2, 10))
    for fam in ALL_FAMILIES:
        items.append(("dodgson", fam, 1, 10))
        items.append(("degree-hn", fam, 0, 12))
    for fam in (F31, F21):
        items.append(("ef", fam, 0, 6))
        items.append(("table1", fam, 1, 5))
        items.append(("weights", fam, 1, 12))
        items.append(("ciden", fam, 1, 10))
    items.append(("explicit-weights", F21, 1, 12))
    items.append(("explicit-weights", F31, 2, 8))
    items.append(("threeterm31", None, 2, 10))
    items.append(("threeterm21", None, 2, 15))
    items.append(("rec31at1", None, 0, 10))
    items.append(("chebjac", None, 0, 12))
    items.append(("interlace", None, 1, 8))
    from .sequences import F30, F3K2M

    for fam in (F31, F21, F30, F3K2M, FAEX):
        items.append(("gfequiv", fam, 25, 25))
        items.append(("fcoeffs", fam, 25, 25))
    items.append(("tseries", None, 25, 25))
    items.append(("degree-random", None, 200, 200))
    return items


def fast_suite() -> list[tuple[str, Optional[FamilyId], int, int]]:
    return [
        ("de1", None, 1, 5),
        ("de2np1", None, 1, 5),
        ("fig4", None, 1, 4),
        ("p31at3", None, 0, 5),
        ("ap31", None, 0, 5),
        ("ap21", None, 0, 6),
        ("l1_31", None, 10, 10),
        ("r_det01", None, 2, 5),
        ("dodgson", F31, 1, 5),
        ("weights", F21, 1, 5),
        ("gfequiv", F31, 10, 10),
        ("tseries", None, 10, 10),
    ]
