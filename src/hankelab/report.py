"""Report rows shared by the verification suites and the CLI.

A row is {check, family, n, x, status, detail} with status one of
"pass", "fail", "finding".  Finding rows record reported-not-asserted
observations (explicit-weight mismatches, the unproven fourth-order ODE)
and never affect exit status.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple
from collections.abc import Iterable

PASS = "pass"
FAIL = "fail"
FINDING = "finding"

COLUMNS = ("check", "family", "n", "x", "status", "detail")


class Row(namedtuple("Row", COLUMNS, defaults=(None, None, None, PASS, ""))):
    """One report row; family, n and x are None when they do not apply."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return self._asdict()


def ok_row(check: str, *, family=None, n=None, x=None, detail="") -> Row:
    return Row(check, family, n, x, PASS, detail)


def fail_row(check: str, *, family=None, n=None, x=None, detail="") -> Row:
    return Row(check, family, n, x, FAIL, detail)


def finding_row(check: str, *, family=None, n=None, x=None, detail="") -> Row:
    return Row(check, family, n, x, FINDING, detail)


def verdict_row(ok: bool, check: str, *, finding_on_fail=False, **kw) -> Row:
    if ok:
        return ok_row(check, **kw)
    if finding_on_fail:
        return finding_row(check, **kw)
    return fail_row(check, **kw)


def sort_rows(rows: Iterable[Row]) -> list[Row]:
    return sorted(
        rows,
        key=lambda r: (r.check, r.family or "", r.n if r.n is not None else -1, r.x or ""),
    )


def to_json_lines(rows: Iterable[Row]) -> str:
    return "\n".join(json.dumps(r.as_dict(), sort_keys=True) for r in rows)


def to_csv(rows: Iterable[Row]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow(r.as_dict())
    return buf.getvalue()


def to_text(rows: Iterable[Row]) -> str:
    lines = []
    for r in rows:
        bits = [r.status.upper(), r.check]
        if r.family:
            bits.append(f"family={r.family}")
        if r.n is not None:
            bits.append(f"n={r.n}")
        if r.x is not None:
            bits.append(f"x={r.x}")
        if r.detail:
            bits.append(f"({r.detail})")
        lines.append(" ".join(bits))
    return "\n".join(lines)


def any_failure(rows: Iterable[Row]) -> bool:
    return any(r.status == FAIL for r in rows)
