"""Named verification checks: the registry behind `verify`, `sweep`, `report`.

REGISTRY is one table, and the only place that states suites and row
labels.  Each entry holds the check's test(family, n), its items
(suite, family or None, lo, hi), the least n it runs at, a description, the
fixed family label and point its rows name, and whether a mismatch is a
finding.  A suite is every item the table tags with its name (`suite`),
so a new suite is a new tag on some items.  The table names three:
`acceptance`, the paper's ranges and the suite of the golden rows;
`fast`, a smoke subset; and `deep`, the ranges past acceptance (products
to n = 60, almost products to 30, ODEs and relations to 20, series to
order 60, sequence identities to k = 60).  The first acceptance item is
what `verify` runs without --family or --n.  `run_check` builds every row:
asserting checks emit pass/fail; the reported-not-asserted ones (the
unproven fourth-order ODE, the conjectural explicit (3,1) weights) emit
findings on mismatch; a test that raises is one fail row.

Entries call the layer functions through this module's globals when they
run, so a tracer that rebinds those names sees every call.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .closed_forms import (
    ALMOST_PRODUCTS,
    AP21AT1_SIGN,
    AP_POINTS,
    ODES,
    PRODUCTS,
    THREE_TERM,
    almost_product_eval,
    chebyshev_jacobi_check,
    interlace_check,
    ode_residual_for_det,
    product_eval,
    product_matches_determinant,
    recursion_31at1,
    three_term_check,
)
from .hankel import hankel_det, hankel_det_at
from .hankel_checks import degree_bound, dodgson_check, general_degree_det, make_degree_instance
from .identities import SYMBOLIC_RELATIONS, check_relation
from .identity_checks import (
    POINT_RELATIONS,
    ciden_check,
    explicit_weights_match,
    relation_family,
    weight_nullspace,
)
from .lemmas import IDENTITIES, check_identity, check_matrix_convolution_identities, trace_values
from .report import Row, fail_row, verdict_row
from .sequences import (
    ALL_FAMILIES,
    F21,
    F30,
    F31,
    F3K2M,
    FAEX,
    FSHIFT22,
    FamilyId,
    a_poly,
    family_from_name,
)
from .series import CLOSED_FORMS, f_series, gf_form_equiv, t_residual

# Families covered by the generalized degree theorem (aex is not: its
# entries carry the extra (m+1)(m+2) weights).
DEGREE_THEOREM_FAMILIES = tuple(f for f in ALL_FAMILIES if f != FAEX)


class CheckDef(namedtuple("CheckDef", "test items min_n description label x finding reads",
                          defaults=(0, "", None, None, False, ()))):
    """One check: ``test(family, n)`` returns ok, (ok, detail) or a list of
    rows; ``items`` are its (suite, family or None, lo, hi) tuples;
    ``label`` and ``x`` are the fixed family and point its rows name, if
    any; with ``finding`` a mismatch is a finding row, not a fail.
    ``reads`` is the tuple of families whose a_k, ladders and series the
    test reads when its items name none (empty if it reads no family): the
    family of the label, unless the entry states others.  A pooled sweep
    runs the items of families it reads together on one worker, so that
    their memos fill once."""

    __slots__ = ()

    @property
    def default(self) -> tuple[FamilyId | None, int, int]:
        """(family, lo, hi) of the first acceptance item, else the first item."""
        return next((item for item in self.items if item[0] == "acceptance"),
                    self.items[0])[1:]


def _failing(bad, what: str, detail: str):
    """(ok, detail) of a test that lists what failed."""
    return not bad, f"failing {what}: {bad}" if bad else detail


def _ode(name):
    def test(_family, n):
        res = ode_residual_for_det(name, n)
        return res.is_zero(), "" if res.is_zero() else f"residual degree {res.degree}"

    return test


def _table1(family, n):
    results = trace_values(family, n)
    bad = [name for name, got, want in results if got != want]
    return _failing(bad, "rules", f"{len(results)} rules")


def _gfequiv(family, order):
    if family not in CLOSED_FORMS:
        return False, "no closed form"
    ok, _res = gf_form_equiv(family, order)
    detail = f"direct vs {CLOSED_FORMS[family].name}"
    if family == FAEX:
        detail += " (tau has non-integer coefficients; implemented literally)"
    return ok, detail


def _fcoeffs(family, order):
    # aex's direct form is the literal sum of its a_k: expand the closed one
    s = f_series(family, order, family == FAEX)
    bad = [k for k, c in enumerate(s) if c != a_poly(family, k)]
    return _failing(bad, "k", f"k <= {order}")


def _tseries(_family, order):
    return [
        verdict_row(not any(t_residual(beta, order)), "tseries", n=order,
                    detail=f"beta={beta} residual")
        for beta in (2, 3)
    ]


def _degree_hn(family, n):
    deg = hankel_det(family, n).degree
    bound = n + 1 if family == FAEX else n
    return deg <= bound, f"degree {deg} <= {bound}"


def random_degree_instances(count):
    """The seeded instances of `degree-random`."""
    import random
    from fractions import Fraction

    rng = random.Random(20259)
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
        yield make_degree_instance(p, q, alphas, betas, gamma)


def _degree_random(_family, count):
    bad = sum(general_degree_det(inst).degree > degree_bound(inst)
              for inst in random_degree_instances(count))
    return bad == 0, f"{count} instances, {bad} violations"


def _each(tag: str, families, lo: int, hi: int):
    return [(tag, f, lo, hi) for f in families]


def _build_registry() -> dict[str, CheckDef]:
    reg: dict[str, CheckDef] = {}

    def add(name, test, items, min_n=0, description="", label=None, x=None, finding=False,
            reads=()):
        if not reads and label is not None:
            reads = (family_from_name(label),)
        reg[name] = CheckDef(test, tuple(items), min_n, description, label, x, finding, reads)

    for name, *items in (
        ("de1", ("acceptance", None, 1, 12), ("fast", None, 1, 5)),
        ("de2np1", ("acceptance", None, 1, 15), ("fast", None, 1, 5)),
        ("de2np2ak", ("acceptance", None, 1, 12)),
        *((f"thme{k}", ("acceptance", None, 1, 10)) for k in range(1, 5)),
        ("fig4", ("acceptance", None, 1, 8), ("fast", None, 1, 4)),
    ):
        spec = ODES[name]
        add(name, _ode(name), [*items, ("deep", None, 2, 20)],
            description=f"ODE residual for {spec.family.name}", label=spec.family.name,
            finding=not spec.proven)

    for pid, form in PRODUCTS.items():
        hi = 20 if form.family == F21 else 10
        fast = [("fast", None, 0, 5)] if pid == "p31at3" else []
        add(pid, lambda _f, n, pid=pid: product_matches_determinant(pid, n),
            [("acceptance", None, 0, hi), ("deep", None, 0, 60), *fast],
            description="product formula vs determinant", reads=(form.family,))

    # (check, the value the paper states for the form at n or None, its
    # items); the family and point come from the form the check evaluates,
    # and the form must equal the family's determinant, at that point if any
    for aid, want, *items in (
        ("ap31", None, ("acceptance", None, 0, 12), ("fast", None, 0, 5)),
        ("ap31alt", None, ("acceptance", None, 0, 12)),
        ("ap21", None, ("acceptance", None, 0, 15), ("fast", None, 0, 6)),
        ("ap31at0", None, ("acceptance", None, 0, 12)),
        ("ap31at1", PRODUCTS["p32"].value, ("acceptance", None, 0, 12)),
        ("ap21at0", PRODUCTS["p21at0"].value, ("acceptance", None, 0, 20)),
        ("ap21at1", AP21AT1_SIGN.value, ("acceptance", None, 0, 20)),
    ):
        base, x = AP_POINTS.get(aid, (aid, None))
        family = ALMOST_PRODUCTS[base].family

        def test(_f, n, aid=aid, want=want, family=family, x=x):
            got = almost_product_eval(aid, n)
            det = hankel_det(family, n) if x is None else hankel_det_at(family, n, x)
            return got == det and (want is None or got == want(n))

        add(aid, test, [*items, ("deep", None, 0, 30)], description="almost-product formula",
            label=family.name, x=None if x is None else str(x))

    for iid, (family, _terms) in IDENTITIES.items():
        fast = [("fast", None, 10, 10)] if iid == "l1_31" else []
        add(iid, lambda _f, k, iid=iid: _failing(check_identity(iid, k), "k", f"k <= {k}"),
            [("acceptance", None, 30, 30), ("deep", None, 60, 60), *fast],
            description="sequence-level identity (n is k_max)", reads=(family,))
    for rid in (*SYMBOLIC_RELATIONS, *POINT_RELATIONS):
        fast = [("fast", None, 2, 5)] if rid == "r_det01" else []
        add(rid, lambda _f, n, rid=rid: check_relation(rid, n),
            [("acceptance", None, 2, 10), ("deep", None, 2, 20), *fast], 2,
            "determinant-level relation", reads=(relation_family(rid),))

    pair = (F31, F21)
    add("dodgson", lambda f, n: dodgson_check(f, n),
        # deep: (3,1), the first family, to n = 20 and the other seven to n = 12
        [*_each("acceptance", ALL_FAMILIES, 1, 10), ("deep", F31, 1, 20),
         *_each("deep", ALL_FAMILIES[1:], 1, 12), ("fast", F31, 1, 5)], 1,
        "H_{n-1}H_{n+1} = H_nN_n - H_nM_n - K_n^2")
    add("ef", lambda f, n: check_matrix_convolution_identities(f, n),
        _each("acceptance", pair, 0, 6), description="E/F convolution matrix identities")
    add("table1", _table1, [*_each("acceptance", pair, 1, 5), *_each("deep", pair, 1, 8)], 1,
        "trace transformation rules")
    add("weights", lambda f, n: (True, f"scale {weight_nullspace(f, n).scale}"),
        [*_each("acceptance", pair, 1, 12), ("fast", F21, 1, 5)], 1,
        "third-identity nullspace weights")
    add("explicit-weights", lambda f, n: explicit_weights_match(f, n),
        [("acceptance", F31, 2, 8), ("acceptance", F21, 1, 12),
         ("deep", F31, 2, 20), ("deep", F21, 1, 20)], 1,
        "closed-form weights vs nullspace", finding=True)
    add("ciden", lambda f, n: ciden_check(f, n), _each("acceptance", pair, 1, 10), 1,
        "Q2-coefficient determinant identity")
    for check, (family, _pq) in THREE_TERM.items():
        add(check, lambda _f, n, check=check: three_term_check(check, n),
            [("acceptance", None, 2, 15 if family == F21 else 10), ("deep", None, 2, 20)], 2,
            label=family.name)
    # the recursion is the (3,1) one at x = 1, so it gives H^{(3,1)}_n(1) too
    add("rec31at1",
        lambda _f, n: recursion_31at1(n) == product_eval("p32", n) == hankel_det_at(F31, n, 1),
        [("acceptance", None, 0, 10), ("deep", None, 0, 30)],
        description="(3,2) one-term recursion vs product", label="3,2", reads=(F31,))
    # it compares the (2,1) determinant with the 2k+2-shift one
    add("chebjac", lambda _f, n: chebyshev_jacobi_check(n),
        [("acceptance", None, 0, 12), ("deep", None, 0, 30)],
        description="Chebyshev/Jacobi forms of the (2,1) determinant", label="2,1",
        reads=(F21, FSHIFT22))
    add("interlace", lambda _f, n: interlace_check(n),
        [("acceptance", None, 1, 8), ("deep", None, 1, 30)], 1,
        "root interlacing for the (3,1) family", label="3,1")
    generating = (F31, F21, F30, F3K2M, FAEX)
    orders = [*_each("acceptance", generating, 25, 25), *_each("deep", generating, 60, 60)]
    add("gfequiv", _gfequiv, [*orders, ("fast", F31, 10, 10)],
        description="direct vs closed generating form (n is order)")
    add("fcoeffs", _fcoeffs, orders, description="series coefficients vs a_k (n is order)")
    add("tseries", _tseries,
        [("acceptance", None, 25, 25), ("deep", None, 60, 60), ("fast", None, 10, 10)],
        description="t-series defining-equation residual")
    add("degree-hn", _degree_hn, _each("acceptance", ALL_FAMILIES, 0, 12),
        description="degree(H_n) bound")
    add("degree-random", _degree_random, [("acceptance", None, 200, 200)],
        description="random generalized-degree instances (n is count)")
    return reg


REGISTRY: dict[str, CheckDef] = _build_registry()


def run_check(name: str, family: FamilyId | None, ns: Sequence[int]) -> list[Row]:
    """Rows of check `name` at each n of ns from its min_n on, in ascending
    n.  A family check runs `family`, else the family of its default item; a
    check whose items name no family runs with None.  Each n gives one row
    naming the run family, else the fixed label, or the rows its test
    returns.  The n are run from the largest down, so the first builds each
    object the check shares across n (an elimination, a series) at its
    full size, and every smaller n reads it."""
    defn = REGISTRY.get(name)
    if defn is None:
        raise KeyError(f"unknown check {name!r}")
    fam = defn.default[0]
    if fam is not None and family is not None:
        fam = family
    where = dict(family=fam.name if fam is not None else defn.label, x=defn.x)
    done: list[list[Row]] = []
    for n in sorted((n for n in ns if n >= defn.min_n), reverse=True):
        try:
            got = defn.test(fam, n)
        except Exception as exc:  # one bad (check, n) is one fail row
            done.append([fail_row(name, n=n, detail=f"{type(exc).__name__}: {exc}", **where)])
            continue
        if type(got) is list:
            done.append(got)
            continue
        ok, detail = got if type(got) is tuple else (got, "")
        done.append([verdict_row(ok, name, finding_on_fail=defn.finding, n=n, detail=detail,
                                 **where)])
    return [row for rows in reversed(done) for row in rows]


def suite(name: str) -> list[tuple[str, FamilyId | None, int, int]]:
    """(check, family or None, lo, hi): every item the table tags `name`.
    Raises ValueError for a name that no item carries, naming the suites
    the table does carry."""
    items = [(check, *item) for check, defn in REGISTRY.items()
             for tag, *item in defn.items if tag == name]
    if not items:
        tags = sorted({item[0] for defn in REGISTRY.values() for item in defn.items})
        raise ValueError(f"unknown suite {name!r} ({', '.join(tags)})")
    return items


def acceptance_suite() -> list[tuple[str, FamilyId | None, int, int]]:
    """The items the table tags `acceptance`: the suite of the golden rows."""
    return suite("acceptance")
