"""Command-line surface: determinant evaluation, factorization displays,
verification sweeps, series printing, and report emission.

Exit codes: 0 ok, 1 at least one asserting check failed, a cache that is
corrupt or cannot be opened or written, or an --output that cannot be
written, 2 usage error (argparse or ``UsageError``, an unknown suite
included) and nothing else.  `verify` and `sweep` open their --output
file, and `report` creates its --output directory, before any check runs.
Finding rows never affect the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence

# Only what a `det` cache hit runs is imported here: parsing, the cache and
# the family names.  `det` imports `hankel` when it eliminates (a miss, a
# recheck or a point query), and every other subcommand imports its own
# layers when it runs, so a one-shot query loads neither the check registry
# nor typing, dataclasses or pathlib.
from .cache import CacheError, cache_from_config
from .poly import Poly
from .rat import Rat, format_rat, parse_rat
from .sequences import VARIANTS, FamilyId, family_from_name

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
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


def _parse_x(text: str) -> Rat | None:
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


def _run_and_emit(items, jobs: int, fmt: str, output: str | None) -> int:
    """Run the items and print their rows, or write them to output, which is
    opened first, as a shell redirection would be; the exit status they give."""
    from .report import any_failure, sort_rows, to_csv, to_json_lines, to_text

    fh = open(output, "w", encoding="utf-8") if output else sys.stdout
    try:
        rows = sort_rows(_run_suite(items, jobs))
        payload = {"json": to_json_lines, "csv": to_csv}.get(fmt, to_text)(rows)
        print(payload, file=fh)
    finally:
        if output:
            fh.close()
    return 1 if any_failure(rows) else 0


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
    value: Poly | None = None
    from_cache = False
    if cache is not None:
        hit = cache.get(family.name, args.n, variant)
        if hit is not None:
            value = hit
            from_cache = True
    if x is not None and value is None and cache is None:
        # point query with no cache in play: substitute before eliminating
        from .hankel import variant_det_at

        rendered = raw = format_rat(variant_det_at(family, args.n, variant, x))
    else:
        if value is None or args.recheck:
            from .hankel import variant_det

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
            rendered = raw = format_rat(value(x))
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
    from .hankel import hankel_det_at

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
        ALMOST_PRODUCTS,
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
    # only the polynomial almost products take a point; products never do
    if args.x is not None and almost_ids.get(fid) not in ALMOST_PRODUCTS:
        raise UsageError(f"{fid} takes no --x")
    x = _parse_x(args.x) if args.x is not None else None
    for n in ns:
        if fid in product_ids:
            print(f"n={n}: {format_rat(product_eval(product_ids[fid], n))}")
        else:
            val = almost_product_eval(almost_ids[fid], n, x)
            out = str(val) if isinstance(val, Poly) else format_rat(val)
            print(f"n={n}: {out}")
    return 0


def cmd_series(args) -> int:
    from .sequences import GfForm, closed_form_for, f_series, t_series, tau_series

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


def pool_tasks(tasks, workers: int) -> list[tuple]:
    """One task per item, so that its n share one worker's memos, largest n
    first (a stable sort: ties keep their order); one per n where there are
    fewer items than workers.  Rows are sorted on emission."""
    if len(tasks) < workers:
        tasks = [(name, fam, n, n) for name, fam, lo, hi in tasks for n in range(lo, hi + 1)]
    return sorted(tasks, key=lambda task: -task[3])


def _run_suite(items, jobs: int) -> list[Row]:
    tasks = [
        (name, fam.name if fam is not None else None, lo, hi)
        for name, fam, lo, hi in items
    ]
    workers = pool_size(jobs, sum(hi - lo + 1 for *_, lo, hi in tasks), _available_cpus())
    rows: list[Row] = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_run_task, pool_tasks(tasks, workers)):
                rows.extend(chunk)
    else:
        for task in tasks:
            rows.extend(_run_task(task))
    return rows


def cmd_verify(args) -> int:
    from .checks import REGISTRY

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
        lo, hi = defn.default[1:]
        if args.n is not None:
            ns = _parse_range(args.n)
            lo, hi = ns[0], ns[-1]
        if hi < defn.min_n:
            raise UsageError(f"check {name!r} needs n >= {defn.min_n}")
        items.append((name, family, lo, hi))
    return _run_and_emit(items, args.jobs, args.format, args.output)


def acceptance_suite():
    """The acceptance suite's items; a module-level name, so it can be
    replaced before `sweep`/`report` run."""
    from . import checks

    return checks.acceptance_suite()


def _suite(name: str):
    """Suite `name` of the check table; `acceptance` through the name above.
    The table is loaded here either way, so forked pool workers inherit it."""
    from .checks import suite

    try:
        items = suite(name)
    except ValueError as exc:
        raise UsageError(str(exc))
    return acceptance_suite() if name == "acceptance" else items


def cmd_sweep(args) -> int:
    return _run_and_emit(_suite(args.suite), args.jobs, args.format, args.output)


def cmd_report(args) -> int:
    from collections import Counter
    from pathlib import Path

    from .report import sort_rows, to_csv, to_json_lines

    items = _suite(args.suite)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = sort_rows(_run_suite(items, args.jobs))
    (outdir / "report.jsonl").write_text(to_json_lines(rows) + "\n", encoding="utf-8")
    (outdir / "report.csv").write_text(to_csv(rows), encoding="utf-8")
    count = Counter(r.status for r in rows)
    print(f"{count['pass']} pass, {count['fail']} fail, {count['finding']} findings -> {outdir}")
    return 1 if count["fail"] else 0


def cmd_checks(_args) -> int:
    from .checks import REGISTRY

    for name in sorted(REGISTRY):
        defn = REGISTRY[name]
        fam, lo, hi = defn.default
        tag = f" [family, default {fam}]" if fam is not None else ""
        print(f"{name:18s} n={lo}..{hi}{tag}  {defn.description}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_FLAG = dict(action="store_true")
_FORMATS = dict(choices=("text", "json", "csv"), default="text")
# command -> (help, handler, its options as (flag, add_argument keywords))
_COMMANDS = {
    "det": ("evaluate H/K/M/N determinants", cmd_det, (
        ("--family", dict(required=True)), ("--n", dict(type=int, required=True)),
        ("--x", dict(default="symbolic")),
        ("--variant", dict(default="H")),
        ("--format", dict(choices=("text", "json"), default="text")),
        ("--cache", dict(default=None, help="JSON-lines cache path")),
        ("--recheck", dict(action="store_true",
                           help="verify cache hits against fresh recomputation")),
    )),
    "factor": ("smooth-part/cofactor factorization display", cmd_factor, (
        ("--family", dict(required=True)), ("--n", dict(type=int, required=True)),
        ("--x", dict(default="0")),
        ("--bound", dict(type=int, default=10**6)),
    )),
    "formula": ("evaluate product/almost-product formulas", cmd_formula, (
        ("--id", dict(required=True)),
        ("--n", dict(required=True, help="index or range a..b")),
        ("--x", dict(default=None)),
    )),
    "series": ("print series coefficients", cmd_series, (
        ("--t", _FLAG), ("--tau", _FLAG), ("--f", _FLAG),
        ("--beta", dict(type=int, default=None)),
        ("--family", dict(default=None)),
        ("--form", dict(choices=("direct", "closed"), default="direct")),
        ("--order", dict(type=int, required=True)),
    )),
    "verify": ("run named checks over an n-range", cmd_verify, (
        ("--check", dict(required=True, help="comma-separated check ids")),
        ("--family", dict(default=None)),
        ("--n", dict(default=None, help="range a..b (default per check)")),
        ("--format", _FORMATS),
        ("--jobs", dict(type=int, default=1)),
        ("--output", dict(default=None)),
    )),
    "sweep": ("run a predefined check suite", cmd_sweep, (
        ("--suite", dict(default="fast", help="a suite the check table names")),
        ("--format", _FORMATS),
        ("--jobs", dict(type=int, default=1)),
        ("--output", dict(default=None)),
    )),
    "report": ("write report.jsonl and report.csv", cmd_report, (
        ("--suite", dict(default="acceptance", help="a suite the check table names")),
        ("--output", dict(default="reports")),
        ("--jobs", dict(type=int, default=1)),
    )),
    "checks": ("list available check ids", cmd_checks, ()),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of the command argv names, or of every command when argv
    names none or asks for help.  Its usage line lists every command either
    way, so both parse argv alike and print the same messages."""
    parser = argparse.ArgumentParser(
        prog="hankelab",
        description="Exact Hankel determinant evaluation and verification",
    )
    names, metavar = list(_COMMANDS), None
    if argv and argv[0] in _COMMANDS and not {"-h", "--help"} & set(argv):
        names, metavar = [argv[0]], "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, fn, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
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
    except OSError as exc:  # an --output that cannot be written
        if exc.filename is None:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
