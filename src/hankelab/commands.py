"""The bodies of every subcommand but the one-shot queries `det` and
`factor`: formulas, series, verification sweeps and reports, with the
worker pool.

`cli.main` imports this module only when one of these commands runs, so a
`det` or `factor` query never compiles it.  The usage text, the exit codes
and the names the benchmark replaces (`cli.acceptance_suite`,
`cli._run_task`) stay in `cli.py`; this module reads every name of `cli`
through the module when a command runs.
"""

from __future__ import annotations

import os
import sys

from . import cli
from .poly import Poly
from .rat import format_rat

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .report import Row


def _parse_range(text: str) -> list[int]:
    """"a..b" (inclusive) or a single integer."""
    text = text.strip()
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError:
        raise cli.UsageError(f"bad range {text!r}")
    if hi < lo:
        raise cli.UsageError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


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
        raise cli.UsageError("n must be >= 0")
    product_ids = {p.value: p for p in ProductFormulaId}
    almost_ids = {a.value: a for a in AlmostProductId}
    if fid not in product_ids and fid not in almost_ids:
        raise cli.UsageError(f"unknown formula id {fid!r}")
    # only the polynomial almost products take a point; products never do
    if args.x is not None and almost_ids.get(fid) not in ALMOST_PRODUCTS:
        raise cli.UsageError(f"{fid} takes no --x")
    x = cli._parse_x(args.x) if args.x is not None else None
    for n in ns:
        if fid in product_ids:
            print(f"n={n}: {format_rat(product_eval(product_ids[fid], n))}")
        else:
            val = almost_product_eval(almost_ids[fid], n, x)
            out = str(val) if isinstance(val, Poly) else format_rat(val)
            print(f"n={n}: {out}")
    return 0


def cmd_series(args) -> int:
    from .series import GfForm, closed_form_for, f_series, t_series, tau_series

    kinds = [k for k in ("t", "tau", "f") if getattr(args, k)]
    if len(kinds) != 1:
        raise cli.UsageError("choose exactly one of --t, --tau, --f")
    kind = kinds[0]
    order = args.order
    if order < 0 or order > 500:
        raise cli.UsageError("order out of range (0..500)")
    if kind == "t":
        if args.beta is None or args.beta < 1:
            raise cli.UsageError("--t needs --beta >= 1")
        s = t_series(args.beta, order)
        print(", ".join(format_rat(c.coefficient(0)) for c in s.coeffs))
        return 0
    if kind == "tau":
        s = tau_series(order)
        print(", ".join(format_rat(c.coefficient(0)) for c in s.coeffs))
        return 0
    if args.family is None:
        raise cli.UsageError("--f needs --family")
    family = cli._family(args.family)
    if args.form == "direct":
        form = GfForm.DIRECT
        if family.kind == "binom" and family.alpha < -1:
            raise cli.UsageError("the direct form needs alpha >= -1")
    else:
        form = closed_form_for(family)
        if form is None:
            raise cli.UsageError(f"family {family.name} has no closed form")
    s = f_series(form, family, order)
    print(", ".join("[" + ", ".join(c.to_json()) + "]" for c in s.coeffs))
    return 0


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def pool_size(jobs: int, tasks: int, cpus: int) -> int:
    """Worker count for ``--jobs``: never more than the tasks or the CPUs."""
    if jobs < 1:
        raise cli.UsageError(f"--jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, tasks, cpus))


def pool_tasks(tasks, workers: int) -> list[tuple]:
    """One task per item, so that its n share one worker's memos, largest n
    first (a stable sort: ties keep their order); one per n where there are
    fewer items than workers.  Rows are sorted on emission."""
    if len(tasks) < workers:
        tasks = [(name, fam, n, n) for name, fam, lo, hi in tasks for n in range(lo, hi + 1)]
    return sorted(tasks, key=lambda task: -task[3])


def _run_suite(items, jobs: int) -> list[Row]:
    """The rows of the items, one `cli._run_task` per task; the pool pickles
    that function by its name in `cli`."""
    tasks = [
        (name, fam.name if fam is not None else None, lo, hi)
        for name, fam, lo, hi in items
    ]
    workers = pool_size(jobs, sum(hi - lo + 1 for *_, lo, hi in tasks), _available_cpus())
    rows: list[Row] = []
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(cli._run_task, pool_tasks(tasks, workers)):
                rows.extend(chunk)
    else:
        for task in tasks:
            rows.extend(cli._run_task(task))
    return rows


def cmd_verify(args) -> int:
    from .checks import REGISTRY

    names = [c.strip() for c in args.check.split(",") if c.strip()]
    if not names:
        raise cli.UsageError("no check ids given")
    for name in names:
        if name not in REGISTRY:
            raise cli.UsageError(f"unknown check {name!r}")
    family = cli._family(args.family) if args.family else None
    items = []
    for name in names:
        defn = REGISTRY[name]
        lo, hi = defn.default[1:]
        if args.n is not None:
            ns = _parse_range(args.n)
            lo, hi = ns[0], ns[-1]
        if hi < defn.min_n:
            raise cli.UsageError(f"check {name!r} needs n >= {defn.min_n}")
        items.append((name, family, lo, hi))
    return _run_and_emit(items, args.jobs, args.format, args.output)


def _suite(name: str):
    """Suite `name` of the check table; `acceptance` through `cli.acceptance_suite`.
    The table is loaded here either way, so forked pool workers inherit it."""
    from .checks import suite

    try:
        items = suite(name)
    except ValueError as exc:
        raise cli.UsageError(str(exc))
    return cli.acceptance_suite() if name == "acceptance" else items


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
