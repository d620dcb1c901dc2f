"""Timing helpers shared by the workloads: yardstick pairing, set-up time,
quantiles and the run's metadata."""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
MINIMUM_OPS = 2  # untraced operations of each kind in a traced run
# the jobs=2 and pool figures of a traced run that times no jobs=2 calls
NO_POOL = dict.fromkeys(("us_per_space.jobs2", "speedup.jobs2",
                         "search.pool.worker_cpu_s", "search.pool.busy_frac"), 0.0)


class Sampler:
    """Times calls while sampling machine speed with the yardstick.

    One yardstick pass runs right before and right after each batch of
    calls, and again every ``INTERVAL`` seconds while a call runs (from a
    SIGALRM handler, in this process).  The machine's speed drifts on a
    sub-second scale, so a long call needs the samples taken during it;
    the time spent in those samples is taken off the call's raw time.
    ``normalized = raw * reference / mean(yardstick samples of the batch)``.

    Calls that keep both processors busy (jobs=2) are not sampled: a
    yardstick pass would then compete with the workers and measure that
    contention instead of the machine.  They are timed with ``timed``
    and normalized by ``Sandwich``.
    """

    INTERVAL = 0.1

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.probes: list[float] = []
        self._last: float | None = None
        self._inside: list[float] = []
        self._spent = 0.0
        self.last_spent = 0.0  # sampling seconds inside the last batch
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._inside.append(yardstick.run())
        self._spent += time.perf_counter() - t0

    def probe(self) -> float:
        y = yardstick.run()
        self.probes.append(y)
        self._last = y
        return y

    def forget(self):
        """Other work ran since the last probe: take a fresh one next."""
        self._last = None

    def timed(self, call):
        """(result, raw seconds) of one unsampled call."""
        self._last = None
        t0 = time.perf_counter()
        result = call()
        return result, time.perf_counter() - t0

    def run(self, calls):
        """Run each zero-argument callable in turn, timing each.

        Returns (results, raw seconds per call, scale) where ``scale``
        turns raw seconds into normalized seconds for every call of the
        batch.
        """
        before = self._last if self._last is not None else self.probe()
        results, raws = [], []
        self._inside = []
        spent0 = self._spent
        clock = time.perf_counter
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        try:
            for call in calls:
                spent = self._spent
                t0 = clock()
                results.append(call())
                raws.append(clock() - t0 - (self._spent - spent))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.last_spent = self._spent - spent0
        self.probes.extend(self._inside)
        samples = [before, *self._inside, self.probe()]
        return results, raws, self.reference_s * len(samples) / sum(samples)

    def yardstick_ms(self) -> float:
        return statistics.median(self.probes) * 1000


@contextlib.contextmanager
def pinned(index: int):
    """Keep this process on one processor (the ``index``-th, cyclically).

    Calls that run on one processor are pinned in turn to each of them:
    each processor keeps its own speed for seconds at a time, and a jobs=2
    call, which runs on both, is normalized by sampled calls on both.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class Sandwich:
    """Sampled jobs=1 operations around unsampled jobs=2 ones.

    The order is 1, 2, 1, 2, ..., 1: ``jobs1[i]`` and ``jobs1[i + 1]``
    enclose ``jobs2[i]``, run pinned to different processors, and lend it
    the mean of their scales.
    """

    def __init__(self):
        self.jobs1: list[tuple[float, float]] = []   # (raw s, scale)
        self.jobs2: list[float] = []                  # raw s

    @classmethod
    def run(cls, jobs1, jobs2, deadline: float) -> "Sandwich":
        """Alternate ``jobs1()`` -> (raw, scale) and ``jobs2()`` -> raw
        until the deadline, with at least ``MINIMUM_OPS`` jobs=2 operations."""
        s = cls()

        def one():
            with pinned(len(s.jobs1)):
                s.jobs1.append(jobs1())

        one()
        while len(s.jobs2) < MINIMUM_OPS or time.perf_counter() < deadline:
            s.jobs2.append(jobs2())
            one()
        return s

    def norm1(self) -> list:
        return [raw * scale for raw, scale in self.jobs1]

    def scale2(self, i: int) -> float:
        return (self.jobs1[i][1] + self.jobs1[i + 1][1]) / 2

    def norm2(self) -> list:
        return [raw * self.scale2(i) for i, raw in enumerate(self.jobs2)]

    def metrics(self, units: int) -> dict:
        """``us_per_space.jobs2`` and ``speedup.jobs2``, with ``units``
        spaces (or requests) per operation."""
        n1, n2 = self.norm1(), self.norm2()
        return {
            "us_per_space.jobs2": statistics.median(n2) / units * 1e6,
            "speedup.jobs2": statistics.median(
                (n1[i] + n1[i + 1]) / 2 / n2[i] for i in range(len(n2))),
        }


def untraced(jobs1, deadline: float) -> list:
    """(raw s, scale) of ``jobs1()`` operations run until the deadline: the
    untraced baseline of a traced run."""
    ops = []
    while len(ops) < MINIMUM_OPS or time.perf_counter() < deadline:
        ops.append(jobs1())
    return ops


def setup_seconds(fields, reference_s: float, children: int) -> tuple[float, float, list]:
    """Median normalized time, over fresh child processes, to import
    reflexff and build ``fields``; the median normalized time of the
    ``field_make`` calls alone; and the raw per-child set-up times."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), str(reference_s),
           *(f"{p},{k}" for p, k in fields)]
    normalized, field_make, raws = [], [], []
    # the first child may compile bytecode; it is not counted
    for i in range(children + 1):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                             timeout=120).stdout
        rec = json.loads(out)
        if i:
            raws.append(rec["raw_s"])
            normalized.append(rec["normalized_s"])
            field_make.append(rec["field_make_s"])
    return statistics.median(normalized), statistics.median(field_make), raws


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def metadata(package) -> dict:
    return {
        "backend": package.BACKEND,
        "python": platform.python_version(),
        "nproc": nproc(),
        "start_method": multiprocessing.get_start_method(),
    }
