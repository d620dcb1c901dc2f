"""Enumeration and verification of operator spaces at desk scale.

The exhaustive mode walks every n-dimensional subspace of the space of
dim_v x dim_u matrices over GF(q) exactly once, via unique reduced row
echelon bases grouped by pivot-column pattern.  Pattern groups are
independent, so the work splits by pivot pattern and the merged report is
identical for any worker count; the patterns are uneven (the largest holds
59.6% of the q=3, 2x3, n=2 slice), so the largest one bounds the speedup.
The random mode samples seeded uniform bases, runs serially and is
reproducible from (seed, sample count).

A pattern's bases are one lazy ``itertools.product`` over the choices of
its k x ambient entries (1 at a row's pivot, every value at a non-pivot
column right of it, 0 elsewhere), cut into row tuples by one
``operator.itemgetter``; ``enumerate_subspaces`` yields the same bases in
the same order, pattern by pattern, free entries in lexicographic order.

Candidates stay flat RREF entry tuples throughout the scan: the closure
test and the rank walk of ``opspace`` read them directly, and no
``Matrix`` or ``OperatorSpace`` is built per candidate.

Every non-reflexive space encountered is checked against the minimal-rank
bound mrk(S) <= 2n - 2 (plus the weaker n(n+1)/2 and n^2 bounds); any
breach is collected and raised loudly.  The slice with q > n >= 3 also
records whether the sharper 2n - 3 bound held on the scanned population,
as observational data only.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass, field as dc_field
from itertools import combinations, product
from operator import itemgetter

from .errors import GuardExceeded, TheoremViolation
from .field import FieldSpec, field_make
from .matrix import Matrix, rref_rows
from .opspace import (OperatorSpace, _guard_points, _guard_system, _projective,
                      closure_system, default_guard, rank_walk)

RNG_NAME = "python-mt19937"


def gaussian_binomial(m: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^m."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    if k < 0 or m < 0:
        raise ValueError("dimensions must be non-negative")
    if k > m:
        raise ValueError(f"k={k} exceeds m={m}")
    k = min(k, m - k)  # [m, k]_q = [m, m - k]_q
    num = 1
    den = 1
    for i in range(k):
        num *= q**(m - i) - 1
        den *= q**(k - i) - 1
    assert num % den == 0
    return num // den


def _pattern_subspaces(q, ambient, pivots):
    """All RREF bases with the given pivot columns, free entries in
    lexicographic row-major order, as tuples of row tuples."""
    k = len(pivots)
    if k == 0:
        return iter(((),))
    # product copies each argument that is not a tuple: the free entries
    # share one tuple of values.  Star-arguments come from lists: CPython
    # grows a tuple from a generator outside its tuple free list but frees
    # it onto that list, which then fills to 2,000 spare tuples per length.
    pivset, free = set(pivots), tuple(range(q))
    bases = product(*[(1,) if j == pc else
                      free if j > pc and j not in pivset else (0,)
                      for pc in pivots for j in range(ambient)])
    if k == 1:
        return zip(bases)
    return map(itemgetter(*[slice(i, i + ambient)
                            for i in range(0, k * ambient, ambient)]), bases)


def _count_subspaces(m: int, k: int, q: int, guard: int) -> int:
    """[m, k]_q, or GuardExceeded when it passes the guard.  Since
    [m, k]_q >= 2^(k(m - k)), the shape alone decides a count far past the
    guard, which is then never formed."""
    low = min(k, m - k)
    if low * (m - low) < guard.bit_length():
        total = gaussian_binomial(m, k, q)
        if total <= guard:
            return total
    raise GuardExceeded(f"enumeration of the {k}-dimensional subspaces of "
                        f"GF({q})^{m} exceeds the guard {guard}")


def enumerate_subspaces(q: int, ambient: int, k: int):
    """Each k-dimensional subspace of GF(q)^ambient exactly once, as its
    unique RREF basis; ordered by pivot pattern, then free entries.  Lazy
    and unguarded: a bad q or k raises ValueError at the first ``next``, and
    a caller that walks a whole slice bounds it first, as ``exhaustive_verify``
    does with its guard (``_count_subspaces``)."""
    gaussian_binomial(ambient, k, q)
    for pivots in combinations(range(ambient), k):
        yield from _pattern_subspaces(q, ambient, pivots)


@dataclass(frozen=True)
class SearchParams:
    field: FieldSpec
    dim_u: int
    dim_v: int
    n: int
    mode: str = "exhaustive"
    samples: int = 0
    seed: int = 0
    jobs: int = 1
    guard: int | None = None


@dataclass
class SearchReport:
    q: int
    p: int
    dim_v: int
    n: int
    mode: str
    population: int | None          # subspace count in exhaustive mode
    samples: int | None
    seed: int | None
    rng: str | None
    guard: int
    spaces_examined: int
    reflexive_count: int
    nonreflexive_count: int
    mrk_histogram: dict
    max_mrk: int | None
    max_mrk_witness: tuple | None   # canonical RREF basis, flattened rows
    violations: list
    bound_2n_minus_3_status: str
    bound_2n_minus_3_witness: tuple | None
    extremal: dict | None = None

    def to_dict(self) -> dict:
        ext = self.extremal
        return {
            **vars(self),
            "population": None if self.population is None else str(self.population),
            "guard": str(self.guard),
            "mrk_histogram": {str(k): v for k, v in sorted(self.mrk_histogram.items())},
            "max_mrk_witness": _wit(self.max_mrk_witness),
            "violations": [{**v, "basis": _wit(v["basis"])} for v in self.violations],
            "bound_2n_minus_3_witness": _wit(self.bound_2n_minus_3_witness),
            "extremal": None if ext is None else {
                **ext, "witnesses": [_wit(w) for w in ext["witnesses"]]},
        }


def _wit(basis):
    if basis is None:
        return None
    return [list(row) for row in basis]


@dataclass
class _Acc:
    reflexive: int = 0
    nonreflexive: int = 0
    hist: dict = dc_field(default_factory=dict)
    max_mrk: int | None = None
    max_witness: tuple | None = None
    extremal: list = dc_field(default_factory=list)
    violations: list = dc_field(default_factory=list)
    bad_2n3: tuple | None = None

    def merge(self, other: "_Acc"):
        self.reflexive += other.reflexive
        self.nonreflexive += other.nonreflexive
        for k, v in other.hist.items():
            self.hist[k] = self.hist.get(k, 0) + v
        if other.max_mrk is not None:
            if self.max_mrk is None or other.max_mrk > self.max_mrk:
                self.max_mrk = other.max_mrk
                self.max_witness = other.max_witness
                self.extremal = list(other.extremal)
            elif other.max_mrk == self.max_mrk:
                self.extremal.extend(other.extremal)
        self.violations.extend(other.violations)
        if self.bad_2n3 is None:
            self.bad_2n3 = other.bad_2n3
        return self


def _mrk(field, dim_u: int, dim_v: int, rows) -> int:
    """Minimal rank over the nonzero members of span(rows).  The walk stops
    at the first rank-1 member: no nonzero member has a smaller rank."""
    best = None
    for _, _, r in rank_walk(field, dim_u, dim_v, rows,
                             _projective[field.q, len(rows)]):
        if best is None or r < best:
            best = r
            if r == 1:
                break
    return best


def _scan_one(acc: _Acc, params: SearchParams, rows: tuple,
              collect_extremal: bool):
    """Classify span(rows), a space of the slice ``params``; ``rows`` is its
    canonical RREF basis as flat row-major entry tuples."""
    field, dim_u, dim_v = params.field, params.dim_u, params.dim_v
    n = len(rows)
    if len(closure_system(field, dim_u, dim_v, rows)) == dim_u * dim_v - n:
        acc.reflexive += 1
        return
    acc.nonreflexive += 1
    mrk = _mrk(field, dim_u, dim_v, rows)
    acc.hist[mrk] = acc.hist.get(mrk, 0) + 1
    for bound_name, bound in (("2n-2", 2 * n - 2),
                              ("n(n+1)/2", n * (n + 1) // 2),
                              ("n^2", n * n)):
        if mrk > bound:
            acc.violations.append({"basis": rows, "mrk": mrk, "bound": bound_name})
    if field.q > n >= 3 and mrk > 2 * n - 3 and acc.bad_2n3 is None:
        acc.bad_2n3 = rows
    if acc.max_mrk is None or mrk > acc.max_mrk:
        acc.max_mrk = mrk
        acc.max_witness = rows
        acc.extremal = [rows] if collect_extremal else []
    elif mrk == acc.max_mrk and collect_extremal:
        acc.extremal.append(rows)


def _scan_pattern(params: SearchParams, collect_extremal: bool, pivots) -> _Acc:
    acc = _Acc()
    for rows in _pattern_subspaces(params.field.q, params.dim_u * params.dim_v,
                                   pivots):
        _scan_one(acc, params, rows, collect_extremal)
    return acc


def _run_exhaustive(params: SearchParams, ambient: int,
                    collect_extremal: bool) -> _Acc:
    # n = 0 has the one pattern (), whose one basis () is the zero space
    patterns = list(combinations(range(ambient), params.n))
    scan = functools.partial(_scan_pattern, params, collect_extremal)
    workers = min(params.jobs, len(patterns), os.cpu_count() or 1)
    if workers <= 1:
        parts = map(scan, patterns)
    else:
        import multiprocessing  # only a pooled search pays for these imports
        import signal

        # workers inherit SIGINT blocked (fork and exec keep the mask): Ctrl-C
        # stops this process alone, and leaving the with block ends the pool
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            pool = multiprocessing.Pool(workers)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        with pool:
            parts = pool.map(scan, patterns)
    acc = _Acc()
    for part in parts:
        acc.merge(part)
    return acc


def _run_random(params: SearchParams, ambient: int,
                collect_extremal: bool) -> _Acc:
    f = params.field
    q = f.q
    rng = random.Random(params.seed)
    acc = _Acc()
    for _ in range(params.samples):
        while True:
            rows = [tuple(rng.randrange(q) for _ in range(ambient))
                    for _ in range(params.n)]
            rref, _ = rref_rows(f, rows, width=ambient)
            if len(rref) == params.n:
                break
        _scan_one(acc, params, rref, collect_extremal)
    return acc


def _search(params: SearchParams, mode: str, extremal: bool) -> SearchReport:
    """Validate, bound, run and report the search ``params`` in ``mode``.

    A malformed mode, the other mode, a malformed shape, n, job count,
    guard, sample count or seed raises ValueError, and a slice, its closure walk,
    a sample walk past the guard, a sample draw past the process guard
    (``default_guard``), a shape past the closure-system bound
    (``opspace.SYSTEM_GUARD``) or a sample count past the guard raises
    GuardExceeded, before any scan;
    a broken rank bound raises TheoremViolation carrying the report."""
    if params.mode not in ("exhaustive", "random"):
        raise ValueError(
            f"mode must be 'exhaustive' or 'random', got {params.mode!r}")
    if params.mode != mode:
        raise ValueError(f"{params.mode} mode is run by {params.mode}_verify")
    for name in ("dim_u", "dim_v", "n", "samples", "seed", "jobs", "guard"):
        value = getattr(params, name)
        if type(value) is not int and (name != "guard" or value is not None):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if params.dim_u < 1 or params.dim_v < 1:
        raise ValueError("dim_u and dim_v must be >= 1")
    f, n = params.field, params.n
    ambient = params.dim_u * params.dim_v
    if not 0 <= n <= ambient:
        raise ValueError(f"n must lie in [0, {ambient}], got {n}")
    if params.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {params.jobs}")
    guard = default_guard() if params.guard is None else params.guard
    if guard < 1:
        raise ValueError(f"guard must be at least 1, got {guard}")
    sampled = mode == "random"
    if sampled:
        if params.samples < 1:
            raise ValueError("random mode needs samples >= 1")
        # each sample walks these points and members, as analyze and mrk do
        _guard_points(f.q, params.dim_u, "closure", guard)
        _guard_points(f.q, n, "rank scan", guard)
        # and first draws n*ambient entries.  --guard counts walk steps, and
        # a bound as low as a 2x2 sample's point count must still admit it,
        # so the process guard bounds the draw
        limit = default_guard()
        if n * ambient > limit:
            raise GuardExceeded(f"random sample of {n} x {ambient} entries "
                                f"exceeds the guard {limit}")
        population = None
    else:
        population = _count_subspaces(ambient, n, f.q, guard)
        if n < ambient:
            # every space short of the whole walks the points; only n = 0 has
            # a population (1) below their count
            _guard_points(f.q, params.dim_u, "closure", guard)
    # a basis, like the closure system, has width ambient and at most
    # ambient rows
    _guard_system(params.dim_u, params.dim_v)
    if sampled and params.samples > guard:
        raise GuardExceeded(f"random search of {params.samples} samples "
                            f"exceeds the guard {guard}")
    acc = (_run_random if sampled else _run_exhaustive)(params, ambient, extremal)
    if f.q > n >= 3:
        status = "holds" if acc.bad_2n3 is None else "violated"
    else:
        status = "not-applicable"
    report = SearchReport(
        q=f.q,
        p=params.dim_u,
        dim_v=params.dim_v,
        n=n,
        mode=mode,
        population=population,
        samples=params.samples if sampled else None,
        seed=params.seed if sampled else None,
        rng=RNG_NAME if sampled else None,
        guard=guard,
        spaces_examined=acc.reflexive + acc.nonreflexive,
        reflexive_count=acc.reflexive,
        nonreflexive_count=acc.nonreflexive,
        mrk_histogram=acc.hist,
        max_mrk=acc.max_mrk,
        max_mrk_witness=acc.max_witness,
        violations=acc.violations,
        bound_2n_minus_3_status=status,
        bound_2n_minus_3_witness=acc.bad_2n3,
        extremal={
            "max_mrk": acc.max_mrk,
            "witnesses": acc.extremal,
            "equals": [label for label, value in
                       (("2n-2", 2 * n - 2), ("2n-3", 2 * n - 3), ("n", n))
                       if acc.max_mrk == value]} if extremal else None,
    )
    if report.violations:
        raise TheoremViolation(
            "THEOREM VIOLATION: a scanned non-reflexive space broke a rank bound",
            report)
    return report


def exhaustive_verify(params: SearchParams) -> SearchReport:
    """Classify every n-dimensional space in the configured slice."""
    return _search(params, "exhaustive", extremal=False)


def random_verify(params: SearchParams) -> SearchReport:
    """Classify seeded random spaces; reproducible from the seed."""
    return _search(params, "random", extremal=False)


def find_extremal(params: SearchParams) -> SearchReport:
    """Like the verifiers, with every maximum-mrk witness collected."""
    return _search(params, params.mode, extremal=True)


def construct_regular_rep(base: FieldSpec, n: int) -> OperatorSpace:
    """Multiplication operators of the degree-n extension of GF(q).

    U = V = GF(q^n) as GF(q)^n in the power basis of the extension
    generator; the returned basis consists of the n multiplication
    matrices of the basis elements.  Every nonzero member is invertible,
    so the space has minimal rank exactly n, and for n >= 2 it is
    non-reflexive with full reflexive closure.

    Only prime q is supported: for q = p^j with j > 1 the construction
    would need an embedding of GF(q) into GF(p^(j*n)), which this
    release does not implement.
    """
    if base.k != 1:
        raise ValueError("regular representation requires a prime base field")
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    p = base.p
    ext = field_make(p, n) if n > 1 else base
    alpha_pow = [p**i for i in range(n)]  # encodings of the power basis
    basis = []
    for i in range(n):
        ent = [0] * (n * n)
        for c in range(n):
            prod = ext.mul(alpha_pow[i], alpha_pow[c])
            for r in range(n):
                ent[r * n + c] = prod % p
                prod //= p
        basis.append(Matrix(base, n, n, ent))
    return OperatorSpace(base, n, n, basis)
