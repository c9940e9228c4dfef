"""Command-line surface: determinant evaluation, factorization displays,
verification sweeps, series printing, and report emission.

This module holds the parser, `main` and the one-shot queries `det` and
`factor`; the bodies of the other commands are in `commands.py`, which
`main` imports only when one of them runs.  `acceptance_suite` and
`_run_task` stay here by name: a sweep looks both up in this module when
it runs, so they can be replaced.

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
import sys
from collections.abc import Sequence
from fractions import Fraction

# Only what a `det` cache hit runs is imported here: parsing, the cache and
# the family names.  `det` imports `hankel` when it eliminates (a miss, a
# recheck or a point query), `factor` imports `hankel` and `factor`, and
# every other subcommand imports `commands` and its own layers when it
# runs, so a one-shot query loads neither the check registry nor typing,
# dataclasses or pathlib.
from .cache import CacheError, cache_from_config
from .poly import Poly
from .sequences import VARIANTS, FamilyId, family_from_name


class UsageError(Exception):
    pass


def _parse_x(text: str) -> Fraction | None:
    if text == "symbolic":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad x value {text!r}: {exc}")


def _family(text: str) -> FamilyId:
    try:
        return family_from_name(text)
    except ValueError as exc:
        raise UsageError(str(exc))


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

        rendered = raw = str(variant_det_at(family, args.n, variant, x))
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
            rendered = raw = str(value(x))
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
    parts = [value.numerator] + ([value.denominator] if value.denominator != 1 else [])
    try:
        reports = [factor_smooth(v, args.bound) for v in parts]
    except ValueError as exc:  # a bound whose sieve factor_smooth will not build
        raise UsageError(str(exc))
    if len(reports) == 1:
        print(reports[0].render())
    else:
        print(f"({reports[0].render()}) / ({reports[1].render()})")
    for rep in reports:
        if rep.cofactor != 1:
            print(
                f"cofactor {rep.cofactor}: {primality_label(rep.cofactor)}",
                file=sys.stderr,
            )
    return 0


def _run_task(task):
    """The rows of one sweep item (check, family name, lo, hi).  Every
    sweep runs each item through this name in `cli`, serially or inside a
    pooled group (`commands.pool_tasks`), so a replacement sees each item."""
    from .checks import run_check

    name, family_name, lo, hi = task
    family = family_from_name(family_name) if family_name else None
    return run_check(name, family, range(lo, hi + 1))


def acceptance_suite():
    """The acceptance suite's items; a module-level name, so it can be
    replaced before `sweep`/`report` run."""
    from . import checks

    return checks.acceptance_suite()


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_FLAG = dict(action="store_true")
_FORMATS = dict(choices=("text", "json", "csv"), default="text")
# command -> (help, handler, its options as (flag, add_argument keywords));
# the handler is named: a function of this module for the one-shot queries
# `det` and `factor`, else a function of `commands`
_COMMANDS = {
    "det": ("evaluate H/K/M/N determinants", "cmd_det", (
        ("--family", dict(required=True)), ("--n", dict(type=int, required=True)),
        ("--x", dict(default="symbolic")),
        ("--variant", dict(default="H")),
        ("--format", dict(choices=("text", "json"), default="text")),
        ("--cache", dict(default=None, help="JSON-lines cache path")),
        ("--recheck", dict(action="store_true",
                           help="verify cache hits against fresh recomputation")),
    )),
    "factor": ("smooth-part/cofactor factorization display", "cmd_factor", (
        ("--family", dict(required=True)), ("--n", dict(type=int, required=True)),
        ("--x", dict(default="0")),
        ("--bound", dict(type=int, default=10**6)),
    )),
    "formula": ("evaluate product/almost-product formulas", "cmd_formula", (
        ("--id", dict(required=True)),
        ("--n", dict(required=True, help="index or range a..b")),
        ("--x", dict(default=None)),
    )),
    "series": ("print series coefficients", "cmd_series", (
        ("--t", _FLAG), ("--tau", _FLAG), ("--f", _FLAG),
        ("--beta", dict(type=int, default=None)),
        ("--family", dict(default=None)),
        ("--form", dict(choices=("direct", "closed"), default=None, help="default: direct")),
        ("--order", dict(type=int, required=True)),
    )),
    "verify": ("run named checks over an n-range", "cmd_verify", (
        ("--check", dict(required=True, help="comma-separated check ids")),
        ("--family", dict(default=None)),
        ("--n", dict(default=None, help="range a..b (default per check)")),
        ("--format", _FORMATS),
        ("--jobs", dict(type=int, default=1)),
        ("--output", dict(default=None)),
    )),
    "sweep": ("run a predefined check suite", "cmd_sweep", (
        ("--suite", dict(default="fast", help="a suite the check table names")),
        ("--format", _FORMATS),
        ("--jobs", dict(type=int, default=1)),
        ("--output", dict(default=None)),
    )),
    "report": ("write report.jsonl and report.csv", "cmd_report", (
        ("--suite", dict(default="acceptance", help="a suite the check table names")),
        ("--output", dict(default="reports")),
        ("--jobs", dict(type=int, default=1)),
    )),
    "checks": ("list available check ids", "cmd_checks", ()),
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
        help_text, handler, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a token that starts with "-" for an option unless it is a
    # negative int or decimal: `--x -3/2` is read as `--x=-3/2`, since no
    # option starts with "-" and a digit
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--x" and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = ["--x=" + argv[i]]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        fn = globals().get(args.handler)
        if fn is None:
            from . import commands

            fn = getattr(commands, args.handler)
        return fn(args)
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
    # `python -m hankelab.cli` runs this file as `__main__`: register it as
    # `hankelab.cli` too, so that `commands` finds this module, and raises the
    # UsageError that `main` catches, instead of importing a second copy
    sys.modules["hankelab.cli"] = sys.modules[__name__]
    sys.exit(main())
