"""Command-line surface: determinant evaluation, factorization displays,
verification sweeps, series printing, and report emission.

Exit codes: 0 ok, 1 at least one asserting check failed or a corrupt
cache, 2 usage error (argparse or ``UsageError``) and nothing else.
Finding rows never affect the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

# Only the layers `det` runs are imported here. Every other subcommand
# imports its own layers when it runs, so a one-shot query does not load
# the check registry and the modules behind it.
from .cache import CacheError, cache_from_config
from .hankel import VARIANTS, hankel_det_at, variant_det, variant_det_at
from .poly import Poly
from .rat import format_rat, parse_rat
from .sequences import (
    FamilyId,
    GfForm,
    closed_form_for,
    f_series,
    family_from_name,
    t_series,
    tau_series,
)

if TYPE_CHECKING:
    from .report import Row


class UsageError(Exception):
    pass


def _parse_range(text: str) -> list[int]:
    """"a..b" (inclusive) or a single integer."""
    text = text.strip()
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError:
        raise UsageError(f"bad range {text!r}")
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _parse_x(text: str) -> Optional[Fraction]:
    if text == "symbolic":
        return None
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad x value {text!r}: {exc}")


def _family(text: str) -> FamilyId:
    try:
        return family_from_name(text)
    except ValueError as exc:
        raise UsageError(str(exc))


def _emit_rows(rows: list[Row], fmt: str, output: Optional[str]) -> None:
    from .report import sort_rows, to_csv, to_json_lines, to_text

    rows = sort_rows(rows)
    if fmt == "json":
        payload = to_json_lines(rows)
    elif fmt == "csv":
        payload = to_csv(rows)
    else:
        payload = to_text(rows)
    if output:
        Path(output).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_det(args) -> int:
    family = _family(args.family)
    if args.n < 0:
        raise UsageError("n must be >= 0")
    x = _parse_x(args.x)
    variant = args.variant.upper()
    if variant not in VARIANTS:
        raise UsageError(f"variant must be one of {', '.join(VARIANTS)}")
    if variant in ("M", "N") and args.n == 0:
        raise UsageError(f"{variant}_0 is undefined (layout needs n >= 1)")

    cache = cache_from_config(args.cache)
    value: Optional[Poly] = None
    from_cache = False
    if cache is not None:
        hit = cache.get(family.name, args.n, variant)
        if hit is not None:
            value = hit
            from_cache = True
    if x is not None and value is None and cache is None:
        # point query with no cache in play: substitute before eliminating
        val = variant_det_at(family, args.n, variant, x)
        rendered = format_rat(val)
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "family": family.name,
                        "n": args.n,
                        "variant": variant,
                        "x": args.x,
                        "value": rendered,
                        "cached": False,
                    },
                    sort_keys=True,
                )
            )
        else:
            print(rendered)
        return 0
    if value is None or args.recheck:
        fresh = variant_det(family, args.n, variant)
        if from_cache and args.recheck and fresh != value:
            print(
                f"cache mismatch for {family.name} n={args.n} {variant}",
                file=sys.stderr,
            )
            return 1
        value = fresh
        if cache is not None and not from_cache:
            cache.put(family.name, args.n, variant, value)

    if x is None:
        rendered = str(value)
        raw = value.to_json()
    else:
        val = value(x)
        rendered = format_rat(val)
        raw = rendered
    if args.format == "json":
        print(
            json.dumps(
                {
                    "family": family.name,
                    "n": args.n,
                    "variant": variant,
                    "x": args.x,
                    "value": raw,
                    "cached": from_cache,
                },
                sort_keys=True,
            )
        )
    else:
        print(rendered)
    return 0


def cmd_factor(args) -> int:
    from .factor import factor_smooth, primality_label

    family = _family(args.family)
    if args.n < 0:
        raise UsageError("n must be >= 0")
    if args.bound < 2:
        raise UsageError("--bound must be >= 2")
    x = _parse_x(args.x)
    if x is None:
        raise UsageError("factor needs a rational x (default 0)")
    value = hankel_det_at(family, args.n, x)
    if value == 0:
        print("determinant is zero at this point; nothing to factor")
        return 0
    if value.denominator != 1:
        num = factor_smooth(value.numerator, args.bound)
        den = factor_smooth(value.denominator, args.bound)
        print(f"({num.render()}) / ({den.render()})")
        reports = [num, den]
    else:
        rep = factor_smooth(value.numerator, args.bound)
        print(rep.render())
        reports = [rep]
    for rep in reports:
        if rep.cofactor != 1:
            print(
                f"cofactor {rep.cofactor}: {primality_label(rep.cofactor)}",
                file=sys.stderr,
            )
    return 0


def cmd_formula(args) -> int:
    from .closed_forms import (
        AP_FAMILY,
        AlmostProductId,
        ProductFormulaId,
        almost_product_eval,
        product_eval,
    )

    fid = args.id.lower()
    ns = _parse_range(args.n)
    if ns[0] < 0:
        raise UsageError("n must be >= 0")
    product_ids = {p.value: p for p in ProductFormulaId}
    almost_ids = {a.value: a for a in AlmostProductId}
    if fid not in product_ids and fid not in almost_ids:
        raise UsageError(f"unknown formula id {fid!r}")
    x = _parse_x(args.x) if args.x is not None else None
    # only the polynomial almost products take a point; products never do
    if x is not None and almost_ids.get(fid) not in AP_FAMILY:
        raise UsageError(f"{fid} takes no --x")
    for n in ns:
        if fid in product_ids:
            print(f"n={n}: {format_rat(product_eval(product_ids[fid], n))}")
        else:
            val = almost_product_eval(almost_ids[fid], n, x)
            out = str(val) if isinstance(val, Poly) else format_rat(val)
            print(f"n={n}: {out}")
    return 0


def cmd_series(args) -> int:
    kinds = [k for k in ("t", "tau", "f") if getattr(args, k)]
    if len(kinds) != 1:
        raise UsageError("choose exactly one of --t, --tau, --f")
    kind = kinds[0]
    order = args.order
    if order < 0 or order > 500:
        raise UsageError("order out of range (0..500)")
    if kind == "t":
        if args.beta is None or args.beta < 1:
            raise UsageError("--t needs --beta >= 1")
        s = t_series(args.beta, order)
        print(", ".join(format_rat(c.coefficient(0)) for c in s.coeffs))
        return 0
    if kind == "tau":
        s = tau_series(order)
        print(", ".join(format_rat(c.coefficient(0)) for c in s.coeffs))
        return 0
    if args.family is None:
        raise UsageError("--f needs --family")
    family = _family(args.family)
    if args.form == "direct":
        form = GfForm.DIRECT
        if family.kind == "binom" and family.alpha < -1:
            raise UsageError("the direct form needs alpha >= -1")
    else:
        form = closed_form_for(family)
        if form is None:
            raise UsageError(f"family {family.name} has no closed form")
    s = f_series(form, family, order)
    print(", ".join("[" + ", ".join(c.to_json()) + "]" for c in s.coeffs))
    return 0


def _run_task(task):
    from .checks import run_check

    name, family_name, lo, hi = task
    family = family_from_name(family_name) if family_name else None
    return run_check(name, family, range(lo, hi + 1))


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def pool_size(jobs: int, tasks: int, cpus: int) -> int:
    """Worker count for ``--jobs``: never more than the tasks or the CPUs."""
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, tasks, cpus))


def _run_suite(items, jobs: int) -> list[Row]:
    tasks = [
        (name, fam.name if fam is not None else None, lo, hi)
        for name, fam, lo, hi in items
    ]
    # fan out per-(check, n); ordering is restored by sorting on emission
    per_n = [
        (name, fam_name, n, n)
        for name, fam_name, lo, hi in tasks
        for n in range(lo, hi + 1)
    ]
    workers = pool_size(jobs, len(per_n), _available_cpus())
    rows: list[Row] = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_run_task, per_n):
                rows.extend(chunk)
    else:
        for task in tasks:
            rows.extend(_run_task(task))
    return rows


def cmd_verify(args) -> int:
    from .checks import REGISTRY
    from .report import any_failure

    names = [c.strip() for c in args.check.split(",") if c.strip()]
    if not names:
        raise UsageError("no check ids given")
    for name in names:
        if name not in REGISTRY:
            raise UsageError(f"unknown check {name!r}")
    family = _family(args.family) if args.family else None
    items = []
    for name in names:
        defn = REGISTRY[name]
        if defn.needs_family and family is None and defn.default_family is None:
            raise UsageError(f"check {name!r} needs --family")
        if args.n is not None:
            ns = _parse_range(args.n)
            lo, hi = ns[0], ns[-1]
        else:
            lo, hi = defn.default_range
        items.append((name, family, lo, hi))
    rows = _run_suite(items, args.jobs)
    _emit_rows(rows, args.format, args.output)
    return 1 if any_failure(rows) else 0


def acceptance_suite():
    """The acceptance suite's items; a module-level name, so it can be
    replaced before `sweep`/`report` run."""
    from . import checks

    return checks.acceptance_suite()


def cmd_sweep(args) -> int:
    from .checks import fast_suite
    from .report import any_failure

    if args.suite == "acceptance":
        items = acceptance_suite()
    elif args.suite == "fast":
        items = fast_suite()
    else:
        raise UsageError(f"unknown suite {args.suite!r}")
    rows = _run_suite(items, args.jobs)
    _emit_rows(rows, args.format, args.output)
    return 1 if any_failure(rows) else 0


def cmd_report(args) -> int:
    from .checks import fast_suite
    from .report import sort_rows, to_csv, to_json_lines

    items = acceptance_suite() if args.suite == "acceptance" else fast_suite()
    rows = sort_rows(_run_suite(items, args.jobs))
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.jsonl").write_text(to_json_lines(rows) + "\n", encoding="utf-8")
    (outdir / "report.csv").write_text(to_csv(rows), encoding="utf-8")
    npass = sum(1 for r in rows if r.status == "pass")
    nfail = sum(1 for r in rows if r.status == "fail")
    nfind = sum(1 for r in rows if r.status == "finding")
    print(f"{npass} pass, {nfail} fail, {nfind} findings -> {outdir}")
    return 1 if nfail else 0


def cmd_checks(_args) -> int:
    from .checks import REGISTRY

    for name in sorted(REGISTRY):
        defn = REGISTRY[name]
        fam = f" [family, default {defn.default_family}]" if defn.needs_family else ""
        lo, hi = defn.default_range
        print(f"{name:18s} n={lo}..{hi}{fam}  {defn.description}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelab",
        description="Exact Hankel determinant evaluation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_det = sub.add_parser("det", help="evaluate H/K/M/N determinants")
    p_det.add_argument("--family", required=True)
    p_det.add_argument("--n", type=int, required=True)
    p_det.add_argument("--x", default="symbolic")
    p_det.add_argument("--variant", default="H")
    p_det.add_argument("--format", choices=("text", "json"), default="text")
    p_det.add_argument("--cache", default=None, help="JSON-lines cache path")
    p_det.add_argument("--recheck", action="store_true",
                       help="verify cache hits against fresh recomputation")
    p_det.set_defaults(fn=cmd_det)

    p_factor = sub.add_parser("factor", help="smooth-part/cofactor factorization display")
    p_factor.add_argument("--family", required=True)
    p_factor.add_argument("--n", type=int, required=True)
    p_factor.add_argument("--x", default="0")
    p_factor.add_argument("--bound", type=int, default=10**6)
    p_factor.set_defaults(fn=cmd_factor)

    p_formula = sub.add_parser("formula", help="evaluate product/almost-product formulas")
    p_formula.add_argument("--id", required=True)
    p_formula.add_argument("--n", required=True, help="index or range a..b")
    p_formula.add_argument("--x", default=None)
    p_formula.set_defaults(fn=cmd_formula)

    p_series = sub.add_parser("series", help="print series coefficients")
    p_series.add_argument("--t", action="store_true")
    p_series.add_argument("--tau", action="store_true")
    p_series.add_argument("--f", action="store_true")
    p_series.add_argument("--beta", type=int, default=None)
    p_series.add_argument("--family", default=None)
    p_series.add_argument("--form", choices=("direct", "closed"), default="direct")
    p_series.add_argument("--order", type=int, required=True)
    p_series.set_defaults(fn=cmd_series)

    p_verify = sub.add_parser("verify", help="run named checks over an n-range")
    p_verify.add_argument("--check", required=True, help="comma-separated check ids")
    p_verify.add_argument("--family", default=None)
    p_verify.add_argument("--n", default=None, help="range a..b (default per check)")
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(fn=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run a predefined check suite")
    p_sweep.add_argument("--suite", choices=("acceptance", "fast"), default="fast")
    p_sweep.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_report = sub.add_parser("report", help="write report.jsonl and report.csv")
    p_report.add_argument("--suite", choices=("acceptance", "fast"), default="acceptance")
    p_report.add_argument("--output", default="reports")
    p_report.add_argument("--jobs", type=int, default=1)
    p_report.set_defaults(fn=cmd_report)

    p_checks = sub.add_parser("checks", help="list available check ids")
    p_checks.set_defaults(fn=cmd_checks)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CacheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
