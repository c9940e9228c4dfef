"""Child-process entry of the benchmark: runs hankelab the way a user would.

    python3 perfbench/child.py --calib DIR [--trace DIR] MODE ARG...

    cli ARG...          `hankelab ARG...`
    sweep ITEMS JOBS    `hankelab sweep --suite acceptance --format json
                        --jobs JOBS`, with the suite's items replaced by the
                        [check, family or null, lo, hi] list in the JSON
                        file ITEMS
    screen POINTS       evaluates the eight symbolic relations with
                        `identities.relation_residuals_at` at each point of
                        the JSON file POINTS ([{"n": n, "x0": [candidate,
                        ...]}, ...]), moving on to the next candidate when
                        elimination meets a pivot that vanishes at x0; one
                        JSON line per point
    setup [CACHE]       imports hankelab.cli (which builds the check
                        registry), loads the determinant cache CACHE if
                        given, and prints the monotonic clock

--calib DIR takes machine-speed samples in every process (speed.py) and
writes them, with the process's peak RSS, into DIR; the runner always
passes it.  --trace DIR wraps the public functions first
(tracer.py) and every process, pool workers included, writes its spans
into DIR; spans are timed on a clock that leaves out the sampling.
"""

from __future__ import annotations

import json
import sys
import time


def _sweep(sampler, items_path: str, jobs: str) -> int:
    import hankelab.cli as cli
    from hankelab.sequences import family_from_name

    with open(items_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    items = [
        (name, family_from_name(fam) if fam else None, lo, hi)
        for name, fam, lo, hi in raw
    ]
    cli.acceptance_suite = lambda: items
    if int(jobs) > 1:
        sampler.arm_in_workers()
    else:
        sampler.arm()
    return cli.main(["sweep", "--suite", "acceptance", "--format", "json", "--jobs", jobs])


def _screen(sampler, points_path: str) -> int:
    from fractions import Fraction

    import hankelab.identities as identities
    from hankelab.jet import JetNotInvertible

    with open(points_path, encoding="utf-8") as fh:
        points = json.load(fh)
    sampler.take()
    for point in points:
        n = point["n"]
        t0 = time.perf_counter()
        tried = 0
        accepted = None
        zero = False
        for text in point["x0"]:
            tried += 1
            x0 = Fraction(text)
            try:
                residuals = [
                    r
                    for rid in identities.SYMBOLIC_RELATIONS
                    for r in identities.relation_residuals_at(rid, n, x0)
                ]
            except JetNotInvertible:
                continue
            accepted = text
            zero = all(r == 0 for r in residuals)
            break
        ms = (time.perf_counter() - t0) * 1000.0
        sampler.take()
        print(json.dumps(
            {"n": n, "x0": accepted, "tried": tried, "zero": zero, "t0": t0, "ms": ms}
        ))
    return 0


def _setup(cache: str | None = None) -> int:
    import hankelab.cli  # noqa: F401  (builds the check registry)

    if cache is not None:
        import hankelab.cache

        hankelab.cache.DetCache(cache)
    print(repr(time.perf_counter()))
    return 0


def main(argv: list[str]) -> int:
    options = {}
    while argv[:1] in (["--calib"], ["--trace"]):
        options[argv[0]] = argv[1]
        argv = argv[2:]
    import speed

    sampler = speed.Sampler(options["--calib"])
    sampler.take()
    rec = None
    if "--trace" in options:
        import tracer

        rec, _ = tracer.install(options["--trace"], sampler.clock)
    mode, rest = argv[0], argv[1:]
    try:
        if mode == "cli":
            import hankelab.cli as cli

            sampler.arm()
            return cli.main(rest)
        if mode == "sweep":
            return _sweep(sampler, *rest)
        if mode == "screen":
            return _screen(sampler, *rest)
        if mode == "setup":
            return _setup(*rest)
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        sys.stdout.flush()
        if rec is not None:
            rec.dump()
        sampler.finish()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
