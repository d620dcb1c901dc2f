"""The exhaustive-search workloads: repeated ``exhaustive_verify`` calls.

An end-to-end run times jobs=1 calls over one fixed slice.  A traced run
first times untraced calls: on exhaustive-gf3, the workload with uneven
work per pivot pattern, jobs=1 and jobs=2 calls in turn
(``measure.Sandwich``); on exhaustive-gf2 jobs=1 calls only.  The slice is
the whole input, so the seed changes nothing here.  Every call's canonical
report bytes are compared with the pinned ones in ``expected/``, so
jobs=1 and jobs=2 reports are byte-identical.
"""

from __future__ import annotations

import os
import statistics
import time

import measure

SLICES = {
    # q, dim_v, dim_u, n
    "exhaustive-gf2": (2, 2, 3, 3),
    "exhaustive-gf3": (3, 2, 3, 2),
}
POOLED = "exhaustive-gf3"  # the workload whose traced runs also time jobs=2
GUARD = 10**7  # explicit, so REFLEXFF_GUARD in the environment cannot change the bytes


def fields(name):
    return [[SLICES[name][0], 1]]


class _Slice:
    def __init__(self, rf, name):
        q, dim_v, dim_u, n = SLICES[name]
        base = dict(field=rf.field_from_order(q), dim_u=dim_u, dim_v=dim_v, n=n,
                    guard=GUARD)
        self.rf = rf
        self.workers = min(2, measure.nproc())
        self.params = {1: rf.SearchParams(jobs=1, **base),
                       2: rf.SearchParams(jobs=self.workers, **base)}
        with open(os.path.join(measure.HERE, "expected", name + ".json"),
                  encoding="utf-8") as fh:
            self.expected = fh.read()
        self.spaces = rf.gaussian_binomial(dim_u * dim_v, n, q)
        self.attempted = 0
        self.failed = 0

    def call(self, jobs):
        # looked up at call time, so a traced run sees the wrapped function
        return self.rf.search.exhaustive_verify(self.params[jobs])

    def check(self, report):
        """Count one operation; a report whose bytes differ from the pinned
        ones (or a raised exception, passed as None) is a failure."""
        self.attempted += 1
        if report is None or self.rf.dumps(report.to_dict()) != self.expected:
            self.failed += 1

    def jobs1(self, sampler):
        """(raw s, scale) of one sampled jobs=1 call."""
        try:
            (report,), (raw,), scale = sampler.run([lambda: self.call(1)])
        except Exception as exc:  # counted as a failed operation
            print(f"jobs=1 call raised {exc!r}", flush=True)
            sampler.forget()
            report, raw, scale = None, float("nan"), float("nan")
        self.check(report)
        return raw, scale

    def jobs2(self, sampler):
        """(raw s, worker CPU s) of one unsampled jobs=2 call."""
        cpu0 = measure.children_cpu_s()
        try:
            report, raw = sampler.timed(lambda: self.call(2))
        except Exception as exc:
            print(f"jobs=2 call raised {exc!r}", flush=True)
            report, raw = None, float("nan")
        self.check(report)
        return raw, measure.children_cpu_s() - cpu0


def run(rf, name, seconds, sampler, tracer=None):
    sl = _Slice(rf, name)
    pooled = name == POOLED
    for jobs in (1, 2) if pooled else (1,):  # warm-up: pool start-up, caches
        sl.check(sl.call(jobs))
    if tracer is None:
        deadline = time.perf_counter() + seconds
        calls = []
        while len(calls) < 3 or time.perf_counter() < deadline:
            calls.append(sl.jobs1(sampler))
        t1 = [raw * scale for raw, scale in calls]
        metrics = {"us_per_space": statistics.median(t1) / sl.spaces * 1e6,
                   "report_ms.p50": statistics.median(t1) * 1e3,
                   "report_ms.p90": measure.p90(t1) * 1e3}
        return sl, metrics, {"raw_s.jobs1": [raw for raw, _ in calls],
                             "normalized_s.jobs1": t1}

    def traced():
        raw, scale = sl.jobs1(sampler)
        return raw, scale, sampler.last_spent

    deadline = time.perf_counter() + seconds * 0.4
    if not pooled:  # untraced jobs=1 calls, then traced ones
        base = measure.untraced(lambda: sl.jobs1(sampler), deadline)
        norm1 = [raw * scale for raw, scale in base]
        layers = tracer.measure(sampler, traced, time.perf_counter() + seconds * 0.6,
                                statistics.median(norm1))
        layers.update(measure.NO_POOL)
        return sl, layers, {"raw_s.jobs1": [raw for raw, _ in base],
                            "normalized_s.jobs1": norm1}
    # untraced jobs=1 and jobs=2 calls in turn, then traced jobs=1 calls
    cpu2 = []  # worker CPU seconds of each jobs=2 call

    def jobs2():
        raw, cpu = sl.jobs2(sampler)
        cpu2.append(cpu)
        return raw

    s = measure.Sandwich.run(lambda: sl.jobs1(sampler), jobs2, deadline)
    layers = tracer.measure(sampler, traced, time.perf_counter() + seconds * 0.6,
                            statistics.median(s.norm1()))
    layers.update(s.metrics(sl.spaces))
    # worker processes keep their own spans: the pool is seen from outside,
    # through the CPU time of the reaped workers of the untraced jobs=2 calls
    layers["search.pool.worker_cpu_s"] = statistics.median(
        cpu * s.scale2(i) for i, cpu in enumerate(cpu2))
    layers["search.pool.busy_frac"] = statistics.median(
        cpu / (sl.workers * raw) for raw, cpu in zip(s.jobs2, cpu2))
    return sl, layers, {"raw_s.jobs1": [raw for raw, _ in s.jobs1],
                        "normalized_s.jobs1": s.norm1(),
                        "raw_s.jobs2": s.jobs2, "normalized_s.jobs2": s.norm2()}
