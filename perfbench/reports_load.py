"""The reports workload: in-process ``reflexff.cli.main`` requests.

Inputs are generated from the seed into ``.perfbench/reports/`` under the
checkout root: the ``regular-rep`` spaces (p = 2, 3, 5 with n up to 6, 4
and 3), seeded random non-reflexive spaces with a closure witness g over
fields from GF(2) to GF(9), and small seeded spaces over GF(256) (table
path) and GF(257), GF(512) (table-free path).  Each space gets
``analyze``, ``closure`` and ``mrk`` requests; every space with a witness
also gets ``census`` and a ``trace`` of its coset's rank profile; each
``regular-rep`` space also gets its ``construct`` request.

A round runs every request once, in this process, in sampled chunks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import sys
import time

import measure

PINNED_SEED = 0
WORKDIR = os.path.join(".perfbench", "reports")
REGULAR = ([(2, n) for n in range(2, 7)] + [(3, n) for n in range(2, 5)]
           + [(5, n) for n in range(2, 4)])
# q, dim_v, dim_u, n: shapes where random spaces are often non-reflexive
NONREFLEXIVE = [(2, 2, 3, 3), (2, 2, 4, 2), (2, 3, 4, 3), (3, 2, 2, 2),
                (3, 2, 3, 2), (5, 2, 2, 2), (4, 2, 2, 2), (9, 2, 2, 2)]
# fields past the q*q table limit take the table-free kernel; GF(256) does not
BIG = [(256, 2, 2, 1), (256, 2, 2, 2), (257, 2, 2, 1), (257, 2, 2, 2),
       (512, 2, 2, 1), (512, 2, 2, 2)]
CHUNK = 12  # requests between two yardstick probes


def fields(rf):
    """Every field the requests use, as [p, k]."""
    out = {(p, 1) for p, _ in REGULAR} | {(p, n) for p, n in REGULAR}
    for q, *_ in NONREFLEXIVE + BIG:
        f = rf.field_from_order(q)
        out.add((f.p, f.k))
    return sorted([list(f) for f in out])


# -- the requests ----------------------------------------------------------


class Request:
    """One CLI invocation and what its output must satisfy."""

    def __init__(self, argv, kind, subject, fixed=False):
        self.argv = argv
        self.kind = kind          # analyze, closure, mrk, census, trace, construct
        self.subject = subject    # the _Subject it is about
        self.fixed = fixed        # output does not depend on the seed

    @property
    def key(self):
        return " ".join(self.argv)


class _Subject:
    """One space file, its witness g when it has one, and the parsed outputs
    of its requests from the first pass."""

    def __init__(self, space, path, regular=False):
        self.space, self.path, self.regular = space, path, regular
        self.g = None
        self.outputs: dict[str, dict] = {}


def _write(rf, path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rf.dumps(payload))


def _random_space(rf, rng, q, dim_v, dim_u, n):
    f = rf.field_from_order(q)
    while True:
        basis = [rf.Matrix(f, dim_v, dim_u,
                           [rng.randrange(q) for _ in range(dim_v * dim_u)])
                 for _ in range(n)]
        try:
            return rf.OperatorSpace(f, dim_u, dim_v, basis)
        except rf.DependentBasisError:
            continue


def _witness(rf, rng, space, closure):
    """A seeded member of R(S) outside S."""
    f = space.field
    while True:
        g = rf.Matrix.zero(f, space.dim_v, space.dim_u)
        for b in closure.basis:
            g = g + b.scale(rng.randrange(f.q))
        if not space.contains(g):
            return g


def build(rf, seed):
    """Write the seed's input files; return the request list."""
    os.makedirs(WORKDIR, exist_ok=True)
    rng = random.Random(seed)
    subjects = []
    for p, n in REGULAR:
        space = rf.construct_regular_rep(rf.field_make(p), n)
        path = os.path.join(WORKDIR, f"rep-p{p}-n{n}.json")
        subjects.append(_Subject(space, path, regular=True))
    tries = 0
    for shape in NONREFLEXIVE:
        while True:
            tries += 1
            if tries > 10_000:
                raise RuntimeError("no non-reflexive space found")
            space = _random_space(rf, rng, *shape)
            if not space.is_reflexive():
                break
        subjects.append(_Subject(space, os.path.join(WORKDIR, f"s{len(subjects)}.json")))
    for shape in BIG:
        space = _random_space(rf, rng, *shape)
        subjects.append(_Subject(space, os.path.join(WORKDIR, f"s{len(subjects)}.json")))

    requests = []
    for sub in subjects:
        _write(rf, sub.path, rf.space_to_json(sub.space))
        space = sub.space
        if sub.regular:
            p, n = space.field.p, space.n
            requests.append(Request(["construct", "regular-rep", "--p", str(p),
                                     "--n", str(n)], "construct", sub, fixed=True))
        for kind in ("analyze", "closure", "mrk"):
            requests.append(Request([kind, sub.path], kind, sub, fixed=sub.regular))
        if space.field.q > 9:
            continue  # the census walks all q^n coset members
        closure = space.reflexive_closure()
        if closure.n == space.n:
            continue
        sub.g = _witness(rf, rng, space, closure)
        g_path = sub.path.replace(".json", "-g.json")
        _write(rf, g_path, rf.matrix_to_json(sub.g))
        requests.append(Request(["census", sub.path, g_path], "census", sub))
        profile, *_ = rf.coset_rank_profile(rf.coset_make(space, sub.g))
        text = ",".join(f"{r}:{c}" for r, c in sorted(profile.items()))
        requests.append(Request(
            ["trace", "--q", str(space.field.q), "--p", str(space.dim_u),
             "--n", str(space.n), "--profile", text], "trace", sub))
    rng.shuffle(requests)
    return requests


def execute(cli, argv):
    """(exit code, stdout) of one in-process CLI request; an exception that
    escapes the CLI is reported as exit code -1."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:
        return -1, repr(exc)
    return code, out.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- output checks ---------------------------------------------------------


def _check(rf, req, text):
    """Seed-independent properties of one request's output; raises on a breach."""
    sub, space = req.subject, req.subject.space
    q, n = space.field.q, space.n
    out = json.loads(text)
    sub.outputs[req.kind] = out
    if req.kind == "construct":
        out.pop("_meta")
        _require(out == rf.space_to_json(space), "construct differs from the input file")
    elif req.kind == "analyze":
        _require((out["q"], out["p"], out["dim_v"], out["n"])
                 == (q, space.dim_u, space.dim_v, n), "analyze echoes the wrong shape")
        _require(out["reflexive"] == (out["closure_dim"] == n), "reflexive disagrees")
        dist = {int(r): c for r, c in out["rank_distribution"].items()}
        _require(sum(dist.values()) == (q**n - 1) // (q - 1), "rank classes miscounted")
        _require(out["mrk"] == min(dist), "mrk is not the least rank")
        if not out["reflexive"]:
            _require(out["mrk"] <= 2 * n - 2, "mrk(S) <= 2n - 2 broken")
        if sub.regular:
            _require(out["mrk"] == n and out["closure_dim"] == n * n,
                     "regular-rep is not full-closure with mrk n")
    elif req.kind == "closure":
        closure = rf.space_from_json(out)
        _require(all(closure.contains(b) for b in space.basis), "S is not inside R(S)")
        _require(closure.n == space.reflexive_closure().n, "closure dimension")
        if sub.g is not None:
            _require(closure.contains(sub.g), "witness g is not in R(S)")
    elif req.kind == "mrk":
        value, witness = space.mrk()
        _require(out["mrk"] == value and out["witness"] == list(witness),
                 "mrk request disagrees with the rank scan")
    elif req.kind == "census":
        coset = rf.coset_make(space, sub.g)
        total = int(out["incidence_count"])
        if q ** (space.dim_u + n) <= rf.census.BRUTE_GUARD:
            _require(total == rf.incidence_count(coset, "brute"),
                     "incidence by formula differs from brute force")
        _require(sum(out["rank_profile"].values()) == q**n, "coset size")
        _require(total >= q**n + q**space.dim_u - 1, "coverage floor broken")
    elif req.kind == "trace":
        census = sub.outputs["census"]
        _require(out["incidence_exact"] == census["incidence_count"],
                 "trace and census disagree on #N")


def _require(ok, what):
    if not ok:
        raise AssertionError(what)


def _round_trip(rf, sub):
    with open(sub.path, encoding="utf-8") as fh:
        text = fh.read()
    _require(rf.dumps(rf.space_to_json(rf.load_space(sub.path))) == text,
             f"{sub.path} does not survive a load/dump round trip")


# -- the run -----------------------------------------------------------------


class _Run:
    def __init__(self, rf, seed, sampler):
        import reflexff.cli

        self.rf, self.cli, self.sampler = rf, reflexff.cli, sampler
        self.requests = build(rf, seed)
        self.attempted = self.failed = 0
        self.expected = self._first_pass(seed)

    def _first_pass(self, seed):
        """Run and check every request once; return its output digests."""
        path = os.path.join(measure.HERE, "expected", f"reports-seed{PINNED_SEED}.json")
        with open(path, encoding="utf-8") as fh:
            pinned = json.load(fh)
        for sub in {id(r.subject): r.subject for r in self.requests}.values():
            self._guarded(f"round trip of {sub.path}", _round_trip, self.rf, sub)
        digests = {}

        def first(req):
            code, text = execute(self.cli, req.argv)
            _require(code == 0, f"exit code {code}")
            _check(self.rf, req, text)
            d = digest(text)
            if seed == PINNED_SEED or req.fixed:
                _require(pinned.get(req.key) == d, "bytes differ from the pinned ones")
            digests[req.key] = d

        # census before trace: the trace check reads the census output
        for req in sorted(self.requests, key=lambda r: r.kind == "trace"):
            self._guarded(req.key, first, req)
        return [digests.get(r.key) for r in self.requests]

    def _guarded(self, what, check, *args):
        self.attempted += 1
        try:
            check(*args)
        except Exception as exc:  # a failed check is counted, and the run goes on
            self.failed += 1
            print(f"check failed: {what}: {exc!r}", file=sys.stderr)

    def jobs1(self):
        """One in-process round.

        Returns (raw s per request, normalized s per request, yardstick
        seconds spent inside the requests).
        """
        raws, norms, sampling = [], [], 0.0
        for lo in range(0, len(self.requests), CHUNK):
            chunk = self.requests[lo:lo + CHUNK]
            results, chunk_raws, scale = self.sampler.run(
                [lambda r=r: execute(self.cli, r.argv) for r in chunk])
            sampling += self.sampler.last_spent
            for i, (code, text) in enumerate(results, lo):
                self._count(code == 0 and digest(text) == self.expected[i])
            raws.extend(chunk_raws)
            norms.extend(t * scale for t in chunk_raws)
        return raws, norms, sampling

    def _count(self, ok):
        self.attempted += 1
        self.failed += not ok


def run(rf, seed, seconds, sampler, tracer=None):
    r = _Run(rf, seed, sampler)
    n = len(r.requests)
    r.jobs1()  # warm-up
    if tracer is None:
        deadline = time.perf_counter() + seconds
        rounds = []
        while len(rounds) < 3 or time.perf_counter() < deadline:
            rounds.append(r.jobs1())
        totals = [sum(norms) for _, norms, _ in rounds]
        latency = [statistics.median(norms[i] for _, norms, _ in rounds)
                   for i in range(n)]
        metrics = {"us_per_space": statistics.median(totals) / n * 1e6,
                   "report_ms.p50": statistics.median(latency) * 1e3,
                   "report_ms.p90": measure.p90(latency) * 1e3}
        return r, metrics, {"requests": n,
                            "raw_s.jobs1_round": [sum(raws) for raws, _, _ in rounds],
                            "normalized_s.jobs1_round": totals}
    # traced run: jobs=1 rounds untraced, then traced jobs=1 rounds
    def jobs1():
        raws, norms, _ = r.jobs1()
        return sum(raws), sum(norms) / sum(raws)

    base = measure.untraced(jobs1, time.perf_counter() + seconds * 0.4)
    norm1 = [raw * scale for raw, scale in base]

    def traced():
        raws, norms, sampling = r.jobs1()
        return sum(raws), sum(norms) / sum(raws), sampling

    layers = tracer.measure(sampler, traced, time.perf_counter() + seconds * 0.6,
                            statistics.median(norm1))
    # no jobs option on these requests, and no search runs here
    layers.update(measure.NO_POOL)
    return r, layers, {"requests": n,
                       "raw_s.jobs1_round": [raw for raw, _ in base],
                       "normalized_s.jobs1_round": norm1}
