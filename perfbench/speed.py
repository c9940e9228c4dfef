"""Machine-speed samples, taken inside the measured processes.

On a shared 2-vCPU KVM guest (Intel Xeon, CPython 3.11) the same work took
up to 40% longer from one second to the next, as other tenants loaded the
host's cores, and a median over a 25-second run moved by 15-30% from run to
run.  A short fixed piece of Fraction and big-integer arithmetic, run in the
same thread and interleaved with the program's work, slowed by the same
factor: the ratio of the two stayed within 2% across 25-second windows,
while the same probe on the other vCPU tracked it only to 15%.

So every measured process takes calibration samples in its own main
thread: one when it starts, one when it ends, and one per PROF_INTERVAL_S
of CPU time from a SIGPROF timer while it works (the point screen samples
between points instead).  The runner subtracts the
time the samples took and scales each measured time to the reference speed,
t * mean(REF_SAMPLE_S / sample duration).  Times are therefore reported in
reference seconds: seconds on a core where one sample takes REF_SAMPLE_S.
"""

from __future__ import annotations

import json
import math
import os
import signal
import time
from fractions import Fraction
from multiprocessing import util as mp_util

REF_SAMPLE_S = 0.0015
PROF_INTERVAL_S = 0.05
BIN_S = 0.5
WINDOW_S = 1.0
_TERMS = 600


def _calibration_work() -> Fraction:
    acc = Fraction(0)
    for i in range(1, _TERMS):
        acc += Fraction(i * 12345678901234567, i + 7)
    return acc


class Sampler:
    """Calibration samples of one process, written to OUT_DIR at the end."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.samples: list[tuple[float, float]] = []
        self.worker = False
        self.sampled_s = 0.0

    def take(self) -> float:
        t0 = time.perf_counter()
        _calibration_work()
        duration = time.perf_counter() - t0
        self.samples.append((t0, duration))
        self.sampled_s += duration
        return duration

    def clock(self) -> float:
        """The monotonic clock less the time spent sampling, for span timing."""
        return time.perf_counter() - self.sampled_s

    def _on_prof(self, _signum, _frame) -> None:
        self.take()

    def arm(self) -> None:
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, PROF_INTERVAL_S, PROF_INTERVAL_S)

    def arm_in_workers(self) -> None:
        """Sample in every forked pool worker, which writes its own file."""
        mp_util.register_after_fork(self, Sampler._start_worker)

    def _start_worker(self) -> None:
        self.samples = []
        self.sampled_s = 0.0
        self.worker = True
        self.take()
        self.arm()
        mp_util.Finalize(self, self.finish, exitpriority=20)

    def finish(self) -> None:
        """Stop sampling; write the samples and this process's peak RSS."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.take()
        record = {"worker": self.worker, "samples": self.samples, "peak_rss_kib": _peak_rss_kib()}
        path = os.path.join(self.out_dir, f"calib-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def _peak_rss_kib() -> int:
    """VmHWM: the peak resident set of this process's own address space.

    The ru_maxrss that wait4 reports also counts the parent's address space
    a child ran in before exec, so it would report the runner's size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def load_dir(path: str) -> list[dict]:
    out = []
    for entry in sorted(os.listdir(path)):
        if entry.startswith("calib-"):
            with open(os.path.join(path, entry), encoding="utf-8") as fh:
                out.append(json.load(fh))
    return out


def factor(durations: list[float]) -> float:
    """Multiply a measured time by this to get reference seconds.

    Samples fall at even steps of the measured time, and the work done in a
    step is the step over the slowdown then, so the factor is the mean of
    the per-sample factors, not the factor of the mean duration.
    """
    return sum(REF_SAMPLE_S / d for d in durations) / len(durations)


def window_factor(samples: list, start: float, end: float) -> float:
    """The factor for a short interval, from every sample within WINDOW_S of it.

    A short operation takes only a few samples of its own, while the speed
    changes over seconds, so the samples of its neighbours are used too.
    """
    near = [d for t, d, _ in samples if start - WINDOW_S <= t <= end + WINDOW_S]
    return factor(near)


def reference_wall(start: float, end: float, samples: list, jobs: int) -> float:
    """Wall time from START to END in reference seconds.

    SAMPLES are (start, duration, from_worker) from every process of one
    run.  The interval is cut into BIN_S bins, so a change of speed during
    the run is followed; each bin's time, less the sampling done in it, is
    scaled by the factor of the samples taken in it, or of the nearest bin
    that has samples.  Pool workers sample side by side, so a worker's
    sampling lengthens the wall time by its duration over `jobs`.
    """
    nbins = max(1, math.ceil((end - start) / BIN_S))
    durations: list[list[float]] = [[] for _ in range(nbins)]
    sampling = [0.0] * nbins
    for t, d, worker in samples:
        i = min(max(int((t - start) / BIN_S), 0), nbins - 1)
        durations[i].append(d)
        sampling[i] += d / jobs if worker else d
    known = [i for i in range(nbins) if durations[i]]
    total = 0.0
    for i in range(nbins):
        lo = start + i * BIN_S
        nearest = min(known, key=lambda k: abs(k - i))
        total += (min(end, lo + BIN_S) - lo - sampling[i]) * factor(durations[nearest])
    return total
