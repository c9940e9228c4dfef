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
        ALMOST_PRODUCTS, AP_POINTS, PRODUCTS, almost_product_eval, product_eval,
    )

    fid = args.id.lower()
    ns = _parse_range(args.n)
    if ns[0] < 0:
        raise cli.UsageError("n must be >= 0")
    if fid not in PRODUCTS and fid not in ALMOST_PRODUCTS and fid not in AP_POINTS:
        raise cli.UsageError(f"unknown formula id {fid!r}")
    # only the polynomial almost products take a point; products never do
    if args.x is not None and fid not in ALMOST_PRODUCTS:
        raise cli.UsageError(f"{fid} takes no --x")
    x = cli._parse_x(args.x) if args.x is not None else None
    for n in ns:
        if fid in PRODUCTS:
            print(f"n={n}: {product_eval(fid, n)}")
        else:
            print(f"n={n}: {almost_product_eval(fid, n, x)}")
    return 0


def cmd_series(args) -> int:
    from .series import CLOSED_FORMS, f_series, t_series, tau_series

    kinds = [k for k in ("t", "tau", "f") if getattr(args, k)]
    if len(kinds) != 1:
        raise cli.UsageError("choose exactly one of --t, --tau, --f")
    kind = kinds[0]
    # the options each series reads; any other one given is a usage error
    reads = {"t": ("beta",), "tau": (), "f": ("family", "form")}[kind]
    stray = [o for o in ("beta", "family", "form") if o not in reads and getattr(args, o) is not None]
    if stray:
        raise cli.UsageError(f"--{kind} takes no --{stray[0]}")
    order = args.order
    if order < 0 or order > 500:
        raise cli.UsageError("order out of range (0..500)")
    if kind == "t":
        if args.beta is None or args.beta < 1:
            raise cli.UsageError("--t needs --beta >= 1")
        print(", ".join(map(str, t_series(args.beta, order))))
        return 0
    if kind == "tau":
        print(", ".join(map(str, tau_series(order))))
        return 0
    if args.family is None:
        raise cli.UsageError("--f needs --family")
    family = cli._family(args.family)
    closed = args.form == "closed"
    if closed and family not in CLOSED_FORMS:
        raise cli.UsageError(f"family {family.name} has no closed form")
    if not closed and family.kind == "binom" and family.alpha < -1:
        raise cli.UsageError("the direct form needs alpha >= -1")
    s = f_series(family, order, closed)
    print(", ".join("[" + ", ".join(c.to_json()) + "]" for c in s))
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


def pool_tasks(tasks, workers: int) -> list[list[tuple]]:
    """The pool's tasks: the items grouped by the families whose memos they
    fill (the item's own, else every family its check reads, else the
    check's name), items that share a family in one group, so each
    family's a_k, ladders and series are built on one worker.  Groups go
    largest n first, ties to the one with more n; a group runs its items
    largest n first (stable sorts: ties keep their order).  Where there
    are fewer groups than workers, each n is a task of its own.  Rows are
    sorted on emission."""
    from .checks import REGISTRY

    def largest_n_first(tasks):
        return sorted(tasks, key=lambda task: -task[3])

    def keys(task):
        name, fam, _lo, _hi = task
        return [fam] if fam else [f.name for f in REGISTRY[name].reads] or [name]

    merged: dict[str, str] = {}  # key -> a key of its group; the links end at the group's key

    def group_of(key):
        while merged.get(key, key) != key:
            key = merged[key]
        return key

    for task in tasks:
        first, *rest = map(group_of, keys(task))
        for key in rest:
            merged[key] = first
    groups: dict[str, list[tuple]] = {}
    for task in largest_n_first(tasks):
        groups.setdefault(group_of(keys(task)[0]), []).append(task)
    if len(groups) < workers:
        return [[task] for task in largest_n_first(
            (name, fam, n, n) for name, fam, lo, hi in tasks for n in range(lo, hi + 1))]
    return sorted(groups.values(),
                  key=lambda group: (-group[0][3], -sum(hi - lo + 1 for *_, lo, hi in group)))


def _run_group(group) -> list[Row]:
    """The rows of a group's items, one `cli._run_task` per item, looked up
    in `cli` for each, so a replaced `_run_task` sees every item."""
    return [row for task in group for row in cli._run_task(task)]


def _run_suite(items, jobs: int) -> list[Row]:
    """The rows of the items: in their order in this process, or on a pool
    with one `_run_group` per task of `pool_tasks`."""
    tasks = [
        (name, fam.name if fam is not None else None, lo, hi)
        for name, fam, lo, hi in items
    ]
    workers = pool_size(jobs, sum(hi - lo + 1 for *_, lo, hi in tasks), _available_cpus())
    if workers == 1:
        return _run_group(tasks)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # forked workers inherit the loaded check table, the memos and a
    # replaced `cli._run_task`; fork is asked for where it is offered, as
    # it is not every platform's default start method
    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork") if fork else None
    rows: list[Row] = []
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        for chunk in pool.map(_run_group, pool_tasks(tasks, workers)):
            rows.extend(chunk)
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
        if family is not None and all(item[1] is None for item in defn.items):
            raise cli.UsageError(f"check {name!r} takes no --family")
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
