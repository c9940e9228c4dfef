"""Span recorder for traced benchmark runs, kept outside the program.

`install()` wraps the public functions of the hankelab modules listed in
MODULES (plus the methods in METHODS) and rebinds each wrapper in every
hankelab module namespace that holds the original, so a name imported
with `from .hankel import hankel_det` into `checks` or `closed_forms` is
recorded as well.  A span is (name, start, end, parent); self time is
computed from the spans afterwards by `summarize`.

Counters are derived only from call arguments and results: memo misses are
distinct argument keys per process, the coefficient bit size is read off
returned determinants, cache hits are `DetCache.get` results that are not
None, and `run_check` time is also kept per check id.

Forked pool workers inherit the patches.  Each process writes its own span
file into the trace directory when it exits, and `load_dir` merges them.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import os
import sys
import time
from multiprocessing import util as mp_util

MODULES = (
    "sequences",
    "poly",
    "hankel",
    "jet",
    "identities",
    "closed_forms",
    "sturm",
    "factor",
    "checks",
    "report",
    "cache",
    "cli",
)
METHODS = {
    "poly": ("Poly.exact_div",),
    "cache": ("DetCache.__init__", "DetCache.get", "DetCache.put"),
}
# Private functions that mark a layer boundary: one pool task per call.
PRIVATE = {"cli": ("_run_task",)}
# Scalar helpers of the integer-jet inner loop: a span per call would cost
# far more than the arithmetic it times.
SKIPPED = {"jet.int_jet_mul", "jet.int_jet_div"}


def _poly_bits(p) -> int:
    bits = 0
    for c in p.coeffs:
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _family_name(family) -> str:
    return family.name


class Recorder:
    """Spans and counters of one process, in flat arrays."""

    def __init__(self, out_dir: str, clock=time.perf_counter):
        self.out_dir = out_dir
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array.array("i")
        self.parent_col = array.array("i")
        self.start_col = array.array("d")
        self.end_col = array.array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self.worker = False

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def reset_for_worker(self) -> None:
        """In a forked worker: drop the parent's spans, write our own at exit."""
        del self.name_col[:]
        del self.parent_col[:]
        del self.start_col[:]
        del self.end_col[:]
        self.stack.clear()
        self.counters.clear()
        self.keys.clear()
        self.worker = True
        mp_util.Finalize(self, self.dump, exitpriority=10)

    def add_key(self, name: str, key) -> None:
        self.keys.setdefault(name, set()).add(key)

    def bump(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def raise_to(self, name: str, value: float) -> None:
        if value > self.counters.get(name, value - 1):
            self.counters[name] = value

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        clock = self.clock
        names, parents = self.name_col, self.parent_col
        starts, ends, stack = self.start_col, self.end_col, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result, ends[idx] - starts[idx])
            return result

        return traced

    def dump(self) -> None:
        header = {
            "pid": os.getpid(),
            "worker": self.worker,
            "count": len(self.start_col),
            "names": self.names,
            "counters": self.counters,
            "keys": {k: sorted(v) for k, v in self.keys.items()},
        }
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.bin")
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_col, self.parent_col, self.start_col, self.end_col):
                col.tofile(fh)


# -- counters derived from arguments and results ----------------------------


def _hook_a_poly(rec, args, result, _seconds):
    rec.add_key("sequences.a_poly", f"{_family_name(args[0])}|{args[1]}")


def _hook_hankel_det(rec, args, result, _seconds):
    key = f"{_family_name(args[0])}|{args[1]}"
    rec.add_key("hankel.hankel_det", key)
    rec.add_key("symbolic", key + "|H")


def _hook_quartet(rec, args, result, _seconds):
    key = f"{_family_name(args[0])}|{args[1]}"
    rec.add_key("hankel.quartet", key)
    for kind in ("K", "M", "N") if args[1] >= 1 else ("K",):
        rec.add_key("symbolic", f"{key}|{kind}")


def _hook_jet_quartet(rec, args, result, _seconds):
    rec.add_key("identities.jet_quartet", f"{_family_name(args[0])}|{args[1]}|{args[2]}")


def _hook_det_fraction_free(rec, args, result, _seconds):
    rec.raise_to("hankel.det_fraction_free.max_order", len(args[0]))
    rec.raise_to("hankel.det_max_coeff_bits", _poly_bits(result))


def _hook_cache_get(rec, args, result, _seconds):
    rec.bump("cache.DetCache.get.miss" if result is None else "cache.DetCache.get.hit")


def _hook_run_check(rec, args, result, seconds):
    rec.bump(f"checks.run_check.s[{args[0]}]", seconds)


HOOKS = {
    "sequences.a_poly": _hook_a_poly,
    "hankel.hankel_det": _hook_hankel_det,
    "hankel.quartet": _hook_quartet,
    "identities.jet_quartet": _hook_jet_quartet,
    "hankel.det_fraction_free": _hook_det_fraction_free,
    "cache.DetCache.get": _hook_cache_get,
    "checks.run_check": _hook_run_check,
}


def _targets():
    """(span name, owner, attribute, original) for every wrapped callable."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"hankelab.{short}")
        for attr, obj in sorted(vars(mod).items()):
            name = f"{short}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and (not attr.startswith("_") or attr in PRIVATE.get(short, ()))
                and name not in SKIPPED
            ):
                out.append((name, mod, attr, obj))
        for dotted in METHODS.get(short, ()):
            cls_name, meth = dotted.split(".")
            cls = getattr(mod, cls_name)
            out.append((f"{short}.{dotted}", cls, meth, vars(cls)[meth]))
    return out


def install(out_dir: str, clock=time.perf_counter) -> tuple[Recorder, callable]:
    """Wrap every target; returns the recorder and a function that undoes it."""
    rec = Recorder(out_dir, clock)
    originals = {}
    undo = []
    for name, owner, attr, orig in _targets():
        wrapper = rec.wrap(name, orig, HOOKS.get(name))
        originals[id(orig)] = (orig, wrapper)
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, orig))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("hankelab"):
            continue
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, value))
    mp_util.register_after_fork(rec, Recorder.reset_for_worker)

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return rec, uninstall


# -- reading and summarizing span files --------------------------------------


def load_dir(path: str) -> list[dict]:
    """Every process's spans and counters from one trace directory."""
    procs = []
    for entry in sorted(os.listdir(path)):
        if not entry.startswith("spans-"):
            continue
        with open(os.path.join(path, entry), "rb") as fh:
            header = json.loads(fh.readline())
            cols = []
            for code in ("i", "i", "d", "d"):
                col = array.array(code)
                col.fromfile(fh, header["count"])
                cols.append(col)
        header["cols"] = cols
        procs.append(header)
    return procs


def summarize(procs: list[dict]) -> dict:
    """Per-name calls, inclusive and self seconds; counters; merged keys.

    Inclusive time counts only spans without an ancestor of the same name,
    so recursion is not counted twice.  Self time is a span's duration
    minus the durations of its direct children.
    """
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    keys_per_proc: dict[str, list[set]] = {}
    worker_calls: dict[str, int] = {}
    worker_keys: dict[str, list[set]] = {}
    top_level_s = 0.0
    for proc in procs:
        names = proc["names"]
        name_col, parent_col, start_col, end_col = proc["cols"]
        count = len(start_col)
        child_s = [0.0] * count
        for i in range(count):
            p = parent_col[i]
            if p >= 0:
                child_s[p] += end_col[i] - start_col[i]
        for i in range(count):
            name = names[name_col[i]]
            dur = end_col[i] - start_col[i]
            calls[name] = calls.get(name, 0) + 1
            if proc["worker"]:
                worker_calls[name] = worker_calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child_s[i]
            p = parent_col[i]
            nested = False
            while p >= 0:
                if name_col[p] == name_col[i]:
                    nested = True
                    break
                p = parent_col[p]
            if not nested:
                incl[name] = incl.get(name, 0.0) + dur
            if parent_col[i] < 0 and not proc["worker"]:
                top_level_s += dur
        for cname, value in proc["counters"].items():
            if cname.endswith(("max_order", "bits")):
                counters[cname] = max(counters.get(cname, 0), value)
            else:
                counters[cname] = counters.get(cname, 0) + value
        for kname, ks in proc["keys"].items():
            keys_per_proc.setdefault(kname, []).append(set(ks))
            if proc["worker"]:
                worker_keys.setdefault(kname, []).append(set(ks))
    return {
        "calls": calls,
        "incl_s": incl,
        "self_s": self_s,
        "counters": counters,
        "keys": keys_per_proc,
        "worker_calls": worker_calls,
        "worker_keys": worker_keys,
        "top_level_s": top_level_s,
    }
