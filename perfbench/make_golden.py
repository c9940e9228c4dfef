"""Regenerate the golden references in perfbench/golden/.

    python3 perfbench/make_golden.py

Run it only on a commit whose outputs are known to be right; the files it
writes define what every later benchmark run must reproduce exactly.

- golden/acceptance.json: the acceptance suite's items, the rows of every
  (check, family, n) item, the SHA-256 digest of the full sorted 802-row
  `hankelab sweep --suite acceptance --format json` output and its status
  histogram.  The per-item rows are checked to reproduce that digest.
- golden/cli_queries.json: the expected stdout of every distinct query of
  the cli-queries stream.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))


def hankelab_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "hankelab.cli", *args]


def acceptance_golden() -> dict:
    from hankelab.checks import acceptance_suite, run_check

    full = run.spawn(
        hankelab_argv(["sweep", "--suite", "acceptance", "--format", "json"]),
        "golden-sweep",
    )
    if full.code != 0:
        raise SystemExit(f"acceptance sweep exited {full.code}")
    text = full.stdout.rstrip("\n")
    suite, rows, flat = [], {}, []
    for name, fam, lo, hi in acceptance_suite():
        fam_name = fam.name if fam is not None else None
        suite.append([name, fam_name, lo, hi])
        for n in range(lo, hi + 1):
            got = [r.as_dict() for r in run_check(name, fam, [n])]
            rows[f"{name}|{fam_name or ''}|{n}"] = got
            flat.extend(got)
    flat.sort(key=run.row_sort_key)
    if "\n".join(run.row_text(r) for r in flat) != text:
        raise SystemExit("per-item rows do not reproduce the sweep output")
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "histogram": dict(Counter(r["status"] for r in flat)),
        "suite": suite,
        "rows": rows,
    }


def cli_golden() -> dict:
    out = {}
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for k, query in enumerate(run.cli_queries()):
            key = " ".join(query)
            if key in out:
                continue
            args = query + [str(Path(tmp) / f"c{k}.jsonl")] if query[-1] == "--cache" else query
            res = run.spawn(hankelab_argv(args), f"golden-cli-{k}")
            if res.code != 0:
                raise SystemExit(f"{key!r} exited {res.code}")
            out[key] = res.stdout
    return out


def main() -> None:
    run.WORK.mkdir(exist_ok=True)
    run.GOLDEN.mkdir(exist_ok=True)
    outputs = (("cli_queries.json", cli_golden()), ("acceptance.json", acceptance_golden()))
    for fname, data in outputs:
        with open(run.GOLDEN / fname, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"wrote {run.GOLDEN / fname}")


if __name__ == "__main__":
    main()
