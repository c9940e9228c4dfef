"""hankelab benchmark runner (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a hankelab checkout; the program is imported from
its `src/`.  Every workload drives hankelab from outside, in fresh
processes, and checks every output against the golden reference in
`perfbench/golden/` (or, for the point screen, against zero residuals)
before it reports a number.  Inputs come only from --seed.

Times are reported in reference seconds: every measured process takes
machine-speed samples in its own thread, and each time is scaled by them to
a core of fixed speed (see speed.py for why and how).

With --trace 0 the end-to-end metrics of BENCHMARK.json are measured with
tracing off.  With --trace 1 one untraced iteration is followed by traced
ones on the same inputs, and the per-layer metrics come from the spans
that perfbench/tracer.py records inside the child processes.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
output matched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import speed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden"
CHILD = HERE / "child.py"

# A run ends well inside the 180 s a run may take, even if a child hangs.
RUN_DEADLINE_S = 170
SETUP_SAMPLES = 11

_live: set[int] = set()


def fail_usage(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class ProcResult:
    start: float
    wall: float
    cpu: float
    rss_kib: int
    code: int
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("HANKELAB_CACHE", None)
    return env


def spawn(argv: list[str], tag: str) -> ProcResult:
    """Run one child to completion; wall, CPU and peak RSS from wait4.

    The rusage of wait4 covers the child and every descendant it reaped, so
    the pool workers of a `--jobs` sweep are included.  Its peak RSS also
    covers the runner's own address space, which the child ran in until its
    exec, so run_child takes the children's own peaks instead.
    """
    out_path = WORK / f"{tag}.out"
    err_path = WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _live.add(proc.pid)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        _live.discard(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8")
    return ProcResult(
        t0, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, stdout
    )


@dataclass
class Measured:
    """A child's times in reference seconds, its calibration time removed."""

    proc: ProcResult
    wall: float
    cpu: float
    samples: list  # (start, duration, from_worker) of every calibration sample
    raw_work: float  # wall time less the sampling, unscaled
    rss_kib: int  # the largest peak RSS of the child and its pool workers


def run_child(mode: str, args: list[str], tag: str, trace_dir: Path | None = None,
              jobs: int = 1) -> Measured:
    """Run perfbench/child.py MODE ARGS with calibration samples in every process."""
    calib_dir = WORK / f"calib-{tag}"
    shutil.rmtree(calib_dir, ignore_errors=True)
    calib_dir.mkdir()
    trace = ["--trace", str(trace_dir)] if trace_dir is not None else []
    res = spawn([sys.executable, str(CHILD), "--calib", str(calib_dir), *trace, mode, *args], tag)
    records = speed.load_dir(str(calib_dir))
    shutil.rmtree(calib_dir, ignore_errors=True)
    samples = [(t, d, r["worker"]) for r in records for t, d in r["samples"]]
    if not samples:  # the child died before its first sample; it fails its check
        return Measured(res, res.wall, res.cpu, [], res.wall, res.rss_kib)
    wall = speed.reference_wall(res.start, res.start + res.wall, samples, jobs)
    raw_work = res.wall - sum(d / jobs if worker else d for _, d, worker in samples)
    cpu = (res.cpu - sum(d for _, d, _ in samples)) * wall / raw_work
    rss = max(r["peak_rss_kib"] for r in records) or res.rss_kib
    return Measured(res, wall, cpu, samples, raw_work, rss)


def _on_deadline(_signum, _frame):
    for pid in list(_live):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    print("perfbench: run exceeded its deadline", file=sys.stderr)
    os._exit(3)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in 0..100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Golden references
# ---------------------------------------------------------------------------


def row_sort_key(row: dict) -> tuple:
    """The documented report order: check, family, n, x."""
    n = row["n"]
    return (row["check"], row["family"] or "", n if n is not None else -1, row["x"] or "")


def row_text(row: dict) -> str:
    return json.dumps(row, sort_keys=True)


def compare_rows(stdout: str, expected: list[dict]) -> tuple[int, Counter]:
    """Number of rows that disagree with the golden rows, and the statuses.

    A row counts as failed when it is missing, differs, is extra, or is out
    of the documented sort order.
    """
    got = []
    bad_lines = 0
    for line in stdout.splitlines():
        if not line.strip():
            continue
        try:
            got.append(json.loads(line))
        except json.JSONDecodeError:
            bad_lines += 1
    want = Counter(row_text(r) for r in expected)
    have = Counter(row_text(r) for r in got)
    missing = sum((want - have).values())
    extra = sum((have - want).values())
    unsorted = sum(
        1 for a, b in zip(got, got[1:]) if row_sort_key(a) > row_sort_key(b)
    )
    statuses = Counter(r.get("status") for r in got)
    return max(missing, extra) + unsorted + bad_lines, statuses


def load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Iteration:
    raw_wall: float
    raw_work: float  # raw wall less the sampling, for span coverage
    wall: float
    cpu: float
    rss_mib: float
    op_ms: list[float]
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)


class Sweep:
    """`hankelab sweep --suite acceptance --format json` in one fresh process.

    The timed workloads run every item of the acceptance suite with its
    n-range cut at `cap` (items at a single n keep it), in an order the
    seed permutes; the rows are checked against the golden rows of the
    full 802-row sweep.  `cap=None` is the whole suite, through the plain
    CLI, checked against the golden digest and status histogram.
    """

    def __init__(self, name: str, jobs: int, cap: int | None, keep_single: bool = True):
        self.name = name
        self.jobs = jobs
        self.cap = cap
        self.keep_single = keep_single
        self.golden = load_json(GOLDEN / "acceptance.json")

    def items(self) -> list[list]:
        out = []
        for name, fam, lo, hi in self.golden["suite"]:
            if self.cap is not None and lo != hi:
                hi = min(hi, self.cap)
            elif self.cap is not None and not self.keep_single:
                continue
            if lo <= hi:
                out.append([name, fam, lo, hi])
        return out

    def plan(self, seed: int, index: int):
        items = self.items()
        random.Random(f"{self.name}:{seed}:{index}").shuffle(items)
        return items

    def expected(self, items) -> list[dict]:
        rows = self.golden["rows"]
        return [
            row
            for name, fam, lo, hi in items
            for n in range(lo, hi + 1)
            for row in rows[f"{name}|{fam or ''}|{n}"]
        ]

    def run(self, plan, index: int, trace_dir: Path | None) -> Iteration:
        tag = f"{self.name}-{index}"
        if self.cap is None:
            args = ["sweep", "--suite", "acceptance", "--format", "json", "--jobs", str(self.jobs)]
            m = run_child("cli", args, tag, trace_dir, self.jobs)
        else:
            items_path = WORK / f"{tag}.items.json"
            items_path.write_text(json.dumps(plan), encoding="utf-8")
            m = run_child("sweep", [str(items_path), str(self.jobs)], tag, trace_dir, self.jobs)
        res = m.proc
        expected = self.expected(plan)
        failed, statuses = compare_rows(res.stdout, expected)
        detail = {"statuses": dict(statuses)}
        if self.cap is None:
            digest = hashlib.sha256(res.stdout.rstrip("\n").encode()).hexdigest()
            if digest != self.golden["digest"] or dict(statuses) != self.golden["histogram"]:
                failed = max(failed, 1)
        if res.code != 0:
            failed = max(failed, 1)
        return Iteration(
            res.wall, m.raw_work, m.wall, m.cpu, m.rss_kib / 1024.0, [m.wall * 1000.0],
            len(expected), min(failed, len(expected)), detail,
        )


# The cli-queries stream: a fixed multiset, permuted by the seed.  Each
# cached key occurs CACHE_REPEATS times in one iteration, so its first
# occurrence misses the (fresh) cache and writes, and the repeats read it;
# a recheck key occurs only in recheck queries, so every ordering computes
# the same number of determinants.  Every symbolic query is at n = 8, so the
# fourteen quartet computations form the slowest group and p90 falls inside
# it; p50 falls among the cache hits.  93 operations leave ten beyond p90.
CACHE_KEYS = [("3,1", 8, "H"), ("3,1", 8, "K"), ("2,1", 8, "H"), ("2,1", 8, "N"),
              ("aex", 8, "H"), ("aex", 8, "M")]
CACHE_REPEATS = 10
RECHECK_KEYS = [("3,1", 8, "N"), ("2,1", 8, "K")]
RECHECK_REPEATS = 4
POINT_QUERIES = [
    (fam, n, var, x)
    for fam, x in (("3,1", "3/7"), ("2,1", "5/3"), ("aex", "11/9"))
    for n, var in ((4, "H"), (8, "K"), (12, "M"), (16, "N"), (20, "H"))
] + [("3,0", 18, "H", "7/2"), ("3,2", 18, "K", "1/5"), ("3k-2m", 20, "H", "2"),
     ("3k+1-shift", 14, "N", "3/4"), ("3,1", 10, "K", "7/5"), ("2,1", 10, "M", "9/4")]
FACTOR_QUERIES = [("3,1", "0"), ("2,1", "1/3"), ("3,0", "0"), ("3,2", "2")]


def cli_queries(tiny: bool = False) -> list[list[str]]:
    cached = [["det", "--family", f, "--n", str(n), "--variant", v, "--cache"]
              for f, n, v in CACHE_KEYS]
    recheck = [["det", "--family", f, "--n", str(n), "--variant", v, "--recheck", "--cache"]
               for f, n, v in RECHECK_KEYS]
    points = [["det", "--family", f, "--n", str(n), "--variant", v, "--x", x]
              for f, n, v, x in POINT_QUERIES]
    factors = [["factor", "--family", f, "--n", "20", "--x", x] for f, x in FACTOR_QUERIES]
    if tiny:
        return [cached[-1], cached[-1], points[0], factors[1]]
    return cached * CACHE_REPEATS + recheck * RECHECK_REPEATS + points + factors


class CliQueries:
    """A closed-loop stream of `hankelab` invocations, one fresh process each."""

    name = "cli-queries"

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.golden = load_json(GOLDEN / "cli_queries.json")

    def plan(self, seed: int, index: int):
        queries = cli_queries(self.tiny)
        random.Random(f"{self.name}:{seed}:{index}").shuffle(queries)
        return queries

    def matches(self, query: list[str], code: int, stdout: str) -> bool:
        return code == 0 and stdout == self.golden.get(" ".join(query))

    def cache_path(self, index: int) -> Path:
        return WORK / f"{self.name}-{index}.cache.jsonl"

    def run(self, plan, index: int, trace_dir: Path | None) -> Iteration:
        cache = self.cache_path(index)
        if cache.exists():
            cache.unlink()
        runs, failed = [], 0
        for k, query in enumerate(plan):
            args = query + [str(cache)] if query[-1] == "--cache" else query
            m = run_child("cli", args, f"{self.name}-{index}-{k}", trace_dir)
            runs.append(m)
            if not self.matches(query, m.proc.code, m.proc.stdout):
                failed += 1
        samples = [s for m in runs for s in m.samples]
        ops, cpu = [], 0.0
        for m in runs:
            f = speed.window_factor(samples, m.proc.start, m.proc.start + m.proc.wall)
            ops.append(m.raw_work * f * 1000.0)
            cpu += (m.proc.cpu - (m.proc.wall - m.raw_work)) * f
        detail = {"cache_bytes": cache.stat().st_size if cache.exists() else 0}
        # The loop is closed, so the iteration's wall time is the sum of the
        # invocations' (the runner's own time between them is left out).
        return Iteration(
            sum(m.proc.wall for m in runs), sum(m.raw_work for m in runs), sum(ops) / 1000.0,
            cpu, max(m.rss_kib for m in runs) / 1024.0, ops, len(plan), failed, detail,
        )


# Point-screen sizes: a fixed multiset of (n, q), q the denominator of x0,
# so every seed screens the same mix of sizes; the seed draws the 7-bit
# numerators.  The latency percentiles fall inside the n = 7 cluster (p50)
# and the n = 10 cluster (p90) rather than on the edge between two sizes,
# and ten points lie beyond p90.
SCREEN_NS = (2,) * 8 + (3,) * 8 + (4,) * 8 + (5,) * 8 + (6,) * 8 + (7,) * 20 \
    + (8,) * 12 + (9,) * 12 + (10,) * 16
SCREEN_QS = (3, 4, 5, 7, 8, 9, 11)
SCREEN_CANDIDATES = 3


class PointScreen:
    """Relation screen at seeded rational points, in one fresh process."""

    name = "point-screen"

    def __init__(self, tiny: bool = False):
        self.ns = (2, 3, 2, 3) if tiny else SCREEN_NS

    def plan(self, seed: int, index: int):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        points = []
        for i, n in enumerate(self.ns):
            q = SCREEN_QS[i % len(SCREEN_QS)]
            cands = []
            while len(cands) < SCREEN_CANDIDATES:
                p = rng.randrange(64, 128) * rng.choice((1, -1))
                x0 = Fraction(p, q)
                if x0.denominator == q and str(x0) not in cands:
                    cands.append(str(x0))
            points.append({"n": n, "x0": cands})
        rng.shuffle(points)
        return points

    def run(self, plan, index: int, trace_dir: Path | None) -> Iteration:
        tag = f"{self.name}-{index}"
        points_path = WORK / f"{tag}.points.json"
        points_path.write_text(json.dumps(plan), encoding="utf-8")
        m = run_child("screen", [str(points_path)], tag, trace_dir)
        res = m.proc
        results = [json.loads(line) for line in res.stdout.splitlines() if line.strip()]
        failed = len(plan) - len(results) if res.code == 0 else len(plan)
        tried = accepted = 0
        ops = []
        for want, got in zip(plan, results):
            tried += got["tried"]
            end = got["t0"] + got["ms"] / 1000.0
            ops.append(got["ms"] * speed.window_factor(m.samples, got["t0"], end))
            if got["x0"] is None or got["n"] != want["n"] or not got["zero"]:
                failed += 1
            else:
                accepted += 1
        detail = {"tried": tried, "accepted": accepted}
        return Iteration(
            res.wall, m.raw_work, m.wall, m.cpu, m.rss_kib / 1024.0, ops, len(plan),
            min(failed, len(plan)), detail,
        )


def make_workload(name: str, tiny: bool = False):
    if name == "acceptance":
        return Sweep(name, 1, 2 if tiny else 6, keep_single=not tiny)
    if name == "acceptance-jobs2":
        return Sweep(name, 2, 2 if tiny else 6, keep_single=not tiny)
    if name == "acceptance-full":
        return Sweep(name, 1, None)
    if name == "cli-queries":
        return CliQueries(tiny)
    if name == "point-screen":
        return PointScreen(tiny)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def measure_setup(workload) -> list[float]:
    """Set-up samples in reference seconds; cli-queries also loads its cache."""
    extra = []
    if isinstance(workload, CliQueries):
        cache = workload.cache_path(0)
        if cache.exists():
            extra = [str(cache)]
    probes = []
    for k in range(SETUP_SAMPLES):
        m = run_child("setup", extra, f"setup-{k}")
        if m.proc.code != 0:
            fail_usage(f"set-up probe failed: {(WORK / f'setup-{k}.err').read_text()}")
        probes.append((m, float(m.proc.stdout.strip())))
    every = [s for m, _ in probes for s in m.samples]
    out = []
    for m, done in probes:
        sampling = sum(d for t, d, _ in m.samples if t < done)
        f = speed.window_factor(every, m.proc.start, done)
        out.append((done - m.proc.start - sampling) * f)
    return out


def end_to_end(iterations: list[Iteration], setup: list[float]) -> dict:
    ops = [ms for it in iterations for ms in it.op_ms]
    return {
        "wall_s": statistics.median(it.wall for it in iterations),
        "cpu_s": statistics.median(it.cpu for it in iterations),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(it.rss_mib for it in iterations),
        "op_p50_ms": percentile(ops, 50),
        "op_p90_ms": percentile(ops, 90),
    }


def per_layer(summary: dict, it: Iteration, untraced_wall: float) -> dict:
    calls, incl = summary["calls"], summary["incl_s"]
    counters, keys = summary["counters"], summary["keys"]

    def miss(name):
        return sum(len(k) for k in keys.get(name, []))

    # Span times are raw; scale them to reference seconds like the wall time.
    scale = it.wall / it.raw_work
    out = {}
    for name in (
        "hankel.det_fraction_free", "hankel.quartet", "hankel.hankel_det",
        "hankel.det_rational", "poly.Poly.exact_div", "jet.jet_of_poly",
        "jet.int_jet_det", "identities.jet_quartet", "factor.factor_smooth",
        "factor.is_prime", "sequences.a_poly", "cache.DetCache.put",
        "checks.run_check",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "hankel.det_fraction_free", "hankel.quartet", "hankel.det_rational",
        "hankel.quartet_at", "hankel.hankel_det_at", "poly.Poly.exact_div",
        "jet.jet_of_poly", "jet.int_jet_det", "identities.jet_quartet",
        "identities.relation_residuals_at", "identities.transform_rules",
        "identities.weight_nullspace", "identities.relation_residuals",
        "closed_forms.ode_residual", "closed_forms.product_matches_determinant",
        "closed_forms.almost_product_eval", "closed_forms.three_term_check",
        "closed_forms.interlace_check", "sturm.sturm_count",
        "sturm.isolate_disjoint_from", "factor.factor_smooth", "factor.is_prime",
        "sequences.f_series", "sequences.gf_form_equiv", "sequences.a_poly",
        "sequences.conv_poly", "cache.DetCache.put", "checks.run_check",
        "report.sort_rows", "report.to_json_lines",
    ):
        out[f"{name}.s"] = incl.get(name, 0.0) * scale
    for name in ("hankel.quartet", "hankel.hankel_det", "identities.jet_quartet",
                 "sequences.a_poly"):
        out[f"{name}.miss"] = miss(name)
    out["hankel.det_fraction_free.max_order"] = counters.get(
        "hankel.det_fraction_free.max_order", 0)
    out["hankel.det_max_coeff_bits"] = counters.get("hankel.det_max_coeff_bits", 0)
    out["hankel.dets_by_kind.symbolic"] = calls.get("hankel.det_fraction_free", 0)
    out["hankel.dets_by_kind.point"] = calls.get("hankel.det_rational", 0)
    out["hankel.dets_by_kind.jet"] = calls.get("jet.int_jet_det", 0)
    tried = it.detail.get("tried", 0)
    out["screen.useful_ratio"] = it.detail["accepted"] / tried if tried else 0.0
    out["cache.DetCache.load_s"] = incl.get("cache.DetCache.__init__", 0.0) * scale
    out["cache.DetCache.get.hit"] = counters.get("cache.DetCache.get.hit", 0)
    out["cache.DetCache.get.miss"] = counters.get("cache.DetCache.get.miss", 0)
    out["cache.file_bytes"] = it.detail.get("cache_bytes", 0)
    worker_sets = summary["worker_keys"].get("symbolic", [])
    distinct = set().union(*worker_sets) if worker_sets else set()
    symbolic = sum(len(s) for s in worker_sets)
    out["cli.pool.tasks"] = summary["worker_calls"].get("cli._run_task", 0)
    out["cli.pool.symbolic_dets"] = symbolic
    out["cli.pool.redundant_ratio"] = symbolic / len(distinct) if distinct else 0.0
    out["trace.overhead"] = it.wall / untraced_wall
    out["trace.span_coverage"] = summary["top_level_s"] / it.raw_work
    return out


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    workload = make_workload(name, tiny)
    WORK.mkdir(exist_ok=True)
    iterations: list[Iteration] = []
    traced: list[tuple[Iteration, dict]] = []
    start = time.perf_counter()

    def room_for_another(last: Iteration) -> bool:
        return time.perf_counter() - start + last.raw_wall <= seconds

    index = 0
    while True:
        plan = workload.plan(seed, index)
        iterations.append(workload.run(plan, index, None))
        index += 1
        if trace or not room_for_another(iterations[-1]):
            break
    if trace:
        index = 0
        while True:
            trace_dir = WORK / f"trace-{index}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
            it = workload.run(workload.plan(seed, index), index, trace_dir)
            summary = tracer.summarize(tracer.load_dir(str(trace_dir)))
            traced.append((it, summary))
            shutil.rmtree(trace_dir, ignore_errors=True)
            index += 1
            if not room_for_another(it):
                break

    all_its = iterations + [it for it, _ in traced]
    attempted = sum(it.attempted for it in all_its)
    failed = sum(it.failed for it in all_its)
    if trace:
        per_it = [per_layer(s, it, iterations[0].wall) for it, s in traced]
        metrics = {k: statistics.median(m[k] for m in per_it) for k in per_it[0]}
        samples = len(per_it)
        first, summary = traced[0]
        scale = first.wall / first.raw_work
        self_top = sorted(
            ((k, v * scale) for k, v in summary["self_s"].items()), key=lambda kv: -kv[1]
        )[:12]
        prefix = "checks.run_check.s["
        by_check = sorted(
            ((k[len(prefix):-1], v * scale) for k, v in summary["counters"].items()
             if k.startswith(prefix)),
            key=lambda kv: -kv[1],
        )[:15]
    else:
        setup = measure_setup(workload)
        metrics = end_to_end(iterations, setup)
        samples = len(iterations)
        self_top = by_check = []
    ops = sum(len(it.op_ms) for it in iterations)
    statuses = Counter()
    for it in all_its:
        statuses.update(it.detail.get("statuses", {}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "_report": {
            "workload": name,
            "seed": seed,
            "iterations": samples,
            "ops": ops,
            "setup_samples": 0 if trace else SETUP_SAMPLES,
            "statuses": dict(statuses),
            "self_top": self_top,
            "by_check": by_check,
        },
    }


def bench_spec() -> dict:
    return load_json(ROOT / "BENCHMARK.json")


def print_result(result: dict, units: dict) -> None:
    rep = result.pop("_report")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(
        f"workload {rep['workload']} seed {rep['seed']}: {rep['iterations']} iterations, "
        f"{rep['ops']} ops, {result['attempted']} checked outputs, "
        f"fail_frac {frac:.4f}, statuses {rep['statuses'] or '-'}"
    )
    for name, value in result["metrics"].items():
        count = rep["setup_samples"] if name == "setup_s" else (
            rep["ops"] if name.startswith("op_") else rep["iterations"])
        print(f"  {name:45s} {value:14.6g} {units.get(name, ''):6s} (n={count})")
    for title, rows in (("self time by span", rep["self_top"]),
                        ("run_check time by check id", rep["by_check"])):
        if rows:
            print(f"  {title} (first traced iteration):")
            for name, secs in rows:
                print(f"    {name:48s} {secs:10.4f} s")
    result["metrics"] = {
        k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()
    }
    print(json.dumps(result, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hankelab" / "cli.py").is_file():
        fail_usage(f"no hankelab sources under {SRC}; run from a hankelab checkout")
    spec = bench_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        workloads = names + ["acceptance-full"]
    elif args.workload in names or args.workload == "acceptance-full":
        workloads = [args.workload]
    else:
        fail_usage(f"unknown workload {args.workload!r}; choose from {names}")
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    signal.signal(signal.SIGALRM, _on_deadline)
    ok = True
    for name in workloads:
        if args.workload != "all":
            signal.alarm(RUN_DEADLINE_S)
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        signal.alarm(0)
        missing = set(units) ^ set(result["metrics"])
        if missing:
            fail_usage(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")
        print_result(result, units)
        ok = ok and result["correct"]
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
