"""Append-only JSON-lines cache for computed determinants.

One entry per line, last writer wins on duplicate keys; crash-safe and
diffable.  Keys are (family, n, variant in {H, K, M, N}).  An entry written
by another tool version is a miss: it is recomputed and rewritten.
"""

from __future__ import annotations

import json
import os
import sys
from collections import namedtuple

from .poly import Poly

TOOL_VERSION = "hankelab-0.1.0"

ENV_CACHE_PATH = "HANKELAB_CACHE"


class CacheError(ValueError):
    """A cache file that cannot be opened or written, or a line of it that
    does not parse, other than the final one."""


class CacheEntry(
    namedtuple("CacheEntry", "family n variant value version", defaults=(TOOL_VERSION,))
):
    """One cached determinant: family name, n, variant, Poly value, and the
    tool version that wrote it."""

    __slots__ = ()

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.family, self.n, self.variant)

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family,
                "n": self.n,
                "variant": self.variant,
                "value": self.value.to_json(),
                "version": self.version,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(line: str) -> "CacheEntry":
        """The entry a line states; ValueError, KeyError or TypeError when
        the line is not a JSON object with fields of the types to_json writes."""
        data = {"version": "unknown", **json.loads(line)}
        for field, kind in _FIELD_TYPES:
            if type(data[field]) is not kind:  # an int n, so not a bool or 2.5
                raise ValueError(f"{field} is {type(data[field]).__name__}, not {kind.__name__}")
        if not all(type(c) is str for c in data["value"]):
            raise ValueError("value is not a list of str")
        return CacheEntry(
            family=data["family"],
            n=data["n"],
            variant=data["variant"],
            value=Poly.from_json(data["value"]),
            version=data["version"],
        )


_FIELD_TYPES = (("family", str), ("n", int), ("variant", str), ("value", list), ("version", str))


class DetCache:
    """Read-through, append-on-miss determinant cache.

    A final line that does not parse is what a crash during ``put`` leaves
    behind: it is skipped with a warning, and the next ``put`` truncates it
    away before appending.  A bad line anywhere else, one that is not JSON
    or whose fields do not have the types ``to_json`` writes, is corruption
    and raises ``CacheError`` naming its line number; so does a path that
    cannot be opened or written, naming the system's reason.
    """

    def __init__(self, path: str):
        self.path = path
        self.entries: dict[tuple[str, int, str], CacheEntry] = {}
        self._truncate_at: int | None = None
        if not os.path.exists(path):
            return
        bad = None  # (line number, byte offset, error) of an unparsed line
        offset = 0
        with _open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, 1):
                start, offset = offset, offset + len(raw)
                if not raw.strip():
                    continue
                if bad is not None:
                    raise CacheError(f"{path}:{bad[0]}: corrupt cache line: {bad[2]}")
                try:
                    entry = CacheEntry.from_json(raw.decode("utf-8"))
                except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                    bad = (lineno, start, exc)
                    continue
                self.entries[entry.key] = entry
        if bad is not None:
            print(
                f"warning: {path}:{bad[0]}: skipping truncated final cache line",
                file=sys.stderr,
            )
            self._truncate_at = bad[1]

    def get(self, family: str, n: int, variant: str) -> Poly | None:
        entry = self.entries.get((family, n, variant))
        if entry is None or entry.version != TOOL_VERSION:
            return None
        return entry.value

    def put(self, family: str, n: int, variant: str, value: Poly) -> None:
        entry = CacheEntry(family, n, variant, value)
        self.entries[entry.key] = entry
        try:
            with open(self.path, "a", encoding="utf-8") as fh:
                if self._truncate_at is not None:
                    fh.truncate(self._truncate_at)
                    self._truncate_at = None
                fh.write(entry.to_json() + "\n")
        except OSError as exc:
            raise CacheError(f"{self.path}: {exc.strerror}") from exc


def _open(path: str, mode: str):
    try:
        return open(path, mode)
    except OSError as exc:
        raise CacheError(f"{path}: {exc.strerror}") from exc


def cache_from_config(path: str | None) -> DetCache | None:
    """Explicit path wins; otherwise the environment override, else None."""
    if path is None:
        path = os.environ.get(ENV_CACHE_PATH)
    return DetCache(path) if path else None
