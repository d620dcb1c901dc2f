"""Enumeration and verification of operator spaces at desk scale.

The exhaustive mode walks every n-dimensional subspace of the space of
dim_v x dim_u matrices over GF(q) exactly once, via unique reduced row
echelon bases grouped by pivot-column pattern.  Pattern groups are
independent, so the work splits by pivot pattern and the merged report is
identical for any worker count; the patterns are uneven (the largest holds
59.6% of the q=3, 2x3, n=2 slice), so the largest one bounds the speedup.
The random mode samples seeded uniform bases, runs serially and is
reproducible from (seed, sample count).

Candidates stay flat RREF entry tuples throughout the scan: the closure
test and the rank walk of ``opspace`` read them directly, and only the
``deep_checks`` witness path builds an ``OperatorSpace``.

Every non-reflexive space encountered is checked against the minimal-rank
bound mrk(S) <= 2n - 2 (plus the weaker n(n+1)/2 and n^2 bounds); any
breach is collected and raised loudly.  The slice with q > n >= 3 also
records whether the sharper 2n - 3 bound held on the scanned population,
as observational data only.
"""

from __future__ import annotations

import multiprocessing
import os
import random
from dataclasses import dataclass, field as dc_field
from itertools import combinations, product

from .errors import GuardExceeded, TheoremViolation
from .field import FieldSpec, field_make
from .matrix import Matrix, iter_projective, rref_rows
from .opspace import OperatorSpace, closure_system, hyperplane_lld_check, rank_walk

DEFAULT_GUARD = 10**7
RNG_NAME = "python-mt19937"


def default_guard() -> int:
    """Enumeration guard; the REFLEXFF_GUARD environment variable overrides.

    A value that is not a positive integer raises ValueError (malformed
    input), not GuardExceeded.
    """
    raw = os.environ.get("REFLEXFF_GUARD", "")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"REFLEXFF_GUARD={raw!r} is not an integer") from None
        if value < 1:
            raise ValueError("REFLEXFF_GUARD must be positive")
        return value
    return DEFAULT_GUARD


def gaussian_binomial(m: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^m."""
    if k < 0 or m < 0:
        raise ValueError("dimensions must be non-negative")
    if k > m:
        raise ValueError(f"k={k} exceeds m={m}")
    num = 1
    den = 1
    for i in range(k):
        num *= q**(m - i) - 1
        den *= q**(k - i) - 1
    assert num % den == 0
    return num // den


def _pattern_free_positions(pivots, ambient):
    pivset = set(pivots)
    return [(i, j)
            for i in range(len(pivots))
            for j in range(pivots[i] + 1, ambient)
            if j not in pivset]


def _pattern_subspaces(q, ambient, pivots):
    """All RREF bases with the given pivot columns, free entries in
    lexicographic order."""
    k = len(pivots)
    free = _pattern_free_positions(pivots, ambient)
    template = [[0] * ambient for _ in range(k)]
    for i, pc in enumerate(pivots):
        template[i][pc] = 1
    for assignment in product(range(q), repeat=len(free)):
        rows = [list(r) for r in template]
        for (i, j), val in zip(free, assignment):
            rows[i][j] = val
        yield tuple(tuple(r) for r in rows)


def enumerate_subspaces(q: int, ambient: int, k: int, guard: int | None = None):
    """Each k-dimensional subspace of GF(q)^ambient exactly once, as its
    unique RREF basis; ordered by pivot pattern, then free entries."""
    total = gaussian_binomial(ambient, k, q)
    if guard is not None and total > guard:
        raise GuardExceeded(
            f"enumeration of {total} subspaces exceeds the guard {guard}")
    if k == 0:
        yield ()
        return
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
    deep_checks: bool = False

    def guard_value(self) -> int:
        if self.guard is None:
            return default_guard()
        if self.guard < 1:
            raise ValueError(f"guard must be at least 1, got {self.guard}")
        return self.guard


def _ambient(params: SearchParams) -> int:
    """dim_u * dim_v of a well-formed search, in either mode; a malformed
    shape, n, job count or guard raises ValueError before any scan."""
    if params.dim_u < 1 or params.dim_v < 1:
        raise ValueError("dim_u and dim_v must be >= 1")
    ambient = params.dim_u * params.dim_v
    if not 0 <= params.n <= ambient:
        raise ValueError(f"n must lie in [0, {ambient}], got {params.n}")
    if params.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {params.jobs}")
    params.guard_value()
    return ambient


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
        return {
            "q": self.q,
            "p": self.p,
            "dim_v": self.dim_v,
            "n": self.n,
            "mode": self.mode,
            "population": None if self.population is None else str(self.population),
            "samples": self.samples,
            "seed": self.seed,
            "rng": self.rng,
            "guard": str(self.guard),
            "spaces_examined": self.spaces_examined,
            "reflexive_count": self.reflexive_count,
            "nonreflexive_count": self.nonreflexive_count,
            "mrk_histogram": {str(k): v for k, v in sorted(self.mrk_histogram.items())},
            "max_mrk": self.max_mrk,
            "max_mrk_witness": _wit(self.max_mrk_witness),
            "violations": [
                {"basis": _wit(v["basis"]), "mrk": v["mrk"], "bound": v["bound"]}
                for v in self.violations
            ],
            "bound_2n_minus_3_status": self.bound_2n_minus_3_status,
            "bound_2n_minus_3_witness": _wit(self.bound_2n_minus_3_witness),
            "extremal": None if self.extremal is None else {
                "max_mrk": self.extremal["max_mrk"],
                "witnesses": [_wit(w) for w in self.extremal["witnesses"]],
                "equals": self.extremal["equals"],
            },
        }


def _wit(basis):
    if basis is None:
        return None
    return [list(row) for row in basis]


@dataclass
class _Acc:
    examined: int = 0
    reflexive: int = 0
    nonreflexive: int = 0
    hist: dict = dc_field(default_factory=dict)
    max_mrk: int | None = None
    max_witness: tuple | None = None
    extremal: list = dc_field(default_factory=list)
    violations: list = dc_field(default_factory=list)
    bad_2n3: tuple | None = None

    def merge(self, other: "_Acc"):
        self.examined += other.examined
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
                             iter_projective(field.q, len(rows))):
        if best is None or r < best:
            best = r
            if r == 1:
                break
    return best


def _scan_one(acc: _Acc, field, dim_u: int, dim_v: int, rows: tuple,
              collect_extremal: bool, deep_checks: bool, check_2n3: bool):
    """Classify span(rows); ``rows`` is its canonical RREF basis as flat
    row-major entry tuples."""
    n = len(rows)
    acc.examined += 1
    _, piv = closure_system(field, dim_u, dim_v, rows)
    if len(piv) == dim_u * dim_v - n:
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
    if check_2n3 and mrk > 2 * n - 3 and acc.bad_2n3 is None:
        acc.bad_2n3 = rows
    if acc.max_mrk is None or mrk > acc.max_mrk:
        acc.max_mrk = mrk
        acc.max_witness = rows
        acc.extremal = [rows] if collect_extremal else []
    elif mrk == acc.max_mrk and collect_extremal:
        acc.extremal.append(rows)
    if deep_checks:
        space = OperatorSpace(field, dim_u, dim_v,
                              [Matrix(field, dim_v, dim_u, row) for row in rows])
        witness = next(b for b in space.reflexive_closure().basis
                       if not space.contains(b))
        if not hyperplane_lld_check(space, witness):
            acc.violations.append(
                {"basis": rows, "mrk": mrk, "bound": "hyperplane-lld"})


def _scan_pattern(args):
    (p, k, modulus, dim_u, dim_v, n, pivots, collect_extremal,
     deep_checks, check_2n3) = args
    f = field_make(p, k, modulus)
    ambient = dim_u * dim_v
    acc = _Acc()
    for rows in _pattern_subspaces(f.q, ambient, pivots):
        _scan_one(acc, f, dim_u, dim_v, rows, collect_extremal, deep_checks,
                  check_2n3)
    return acc


def _run_exhaustive(params: SearchParams, collect_extremal: bool) -> _Acc:
    f = params.field
    ambient = _ambient(params)
    guard = params.guard_value()
    total = gaussian_binomial(ambient, params.n, f.q)
    if total > guard:
        raise GuardExceeded(
            f"enumeration of {total} subspaces exceeds the guard {guard}")
    check_2n3 = f.q > params.n >= 3
    # n = 0 has the one pattern (), whose one basis () is the zero space
    patterns = list(combinations(range(ambient), params.n))
    job_args = [
        (f.p, f.k, f.modulus, params.dim_u, params.dim_v, params.n, piv,
         collect_extremal, params.deep_checks, check_2n3)
        for piv in patterns
    ]
    acc = _Acc()
    workers = min(params.jobs, len(patterns), os.cpu_count() or 1)
    if workers <= 1:
        for args in job_args:
            acc.merge(_scan_pattern(args))
    else:
        with multiprocessing.Pool(workers) as pool:
            for part in pool.map(_scan_pattern, job_args):
                acc.merge(part)
    return acc


def _run_random(params: SearchParams, collect_extremal: bool) -> _Acc:
    ambient = _ambient(params)
    if params.samples < 1:
        raise ValueError("random mode needs samples >= 1")
    f = params.field
    q = f.q
    check_2n3 = q > params.n >= 3
    rng = random.Random(params.seed)
    acc = _Acc()
    for _ in range(params.samples):
        while True:
            rows = [tuple(rng.randrange(q) for _ in range(ambient))
                    for _ in range(params.n)]
            rref, _ = rref_rows(f, rows, width=ambient)
            if len(rref) == params.n:
                break
        _scan_one(acc, f, params.dim_u, params.dim_v, rref, collect_extremal,
                  params.deep_checks, check_2n3)
    return acc


def _build_report(params: SearchParams, acc: _Acc, mode: str,
                  extremal: bool) -> SearchReport:
    f = params.field
    n = params.n
    if f.q > n >= 3:
        if acc.bad_2n3 is not None:
            status = "violated"
        else:
            status = "holds"
    else:
        status = "not-applicable"
    report = SearchReport(
        q=f.q,
        p=params.dim_u,
        dim_v=params.dim_v,
        n=n,
        mode=mode,
        population=(gaussian_binomial(params.dim_u * params.dim_v, n, f.q)
                    if mode == "exhaustive" else None),
        samples=params.samples if mode == "random" else None,
        seed=params.seed if mode == "random" else None,
        rng=RNG_NAME if mode == "random" else None,
        guard=params.guard_value(),
        spaces_examined=acc.examined,
        reflexive_count=acc.reflexive,
        nonreflexive_count=acc.nonreflexive,
        mrk_histogram=dict(acc.hist),
        max_mrk=acc.max_mrk,
        max_mrk_witness=acc.max_witness,
        violations=list(acc.violations),
        bound_2n_minus_3_status=status,
        bound_2n_minus_3_witness=acc.bad_2n3,
    )
    if extremal:
        labels = []
        if acc.max_mrk is not None:
            if acc.max_mrk == 2 * n - 2:
                labels.append("2n-2")
            if acc.max_mrk == 2 * n - 3:
                labels.append("2n-3")
            if acc.max_mrk == n:
                labels.append("n")
        report.extremal = {
            "max_mrk": acc.max_mrk,
            "witnesses": list(acc.extremal),
            "equals": labels,
        }
    return report


def _finish(params: SearchParams, acc: _Acc, mode: str,
            extremal: bool) -> SearchReport:
    report = _build_report(params, acc, mode, extremal)
    if report.violations:
        raise TheoremViolation(
            "THEOREM VIOLATION: a scanned non-reflexive space broke a rank bound",
            report)
    return report


def exhaustive_verify(params: SearchParams) -> SearchReport:
    """Classify every n-dimensional space in the configured slice."""
    acc = _run_exhaustive(params, collect_extremal=False)
    return _finish(params, acc, "exhaustive", extremal=False)


def random_verify(params: SearchParams) -> SearchReport:
    """Classify seeded random spaces; reproducible from the seed."""
    acc = _run_random(params, collect_extremal=False)
    return _finish(params, acc, "random", extremal=False)


def find_extremal(params: SearchParams) -> SearchReport:
    """Like the verifiers, with every maximum-mrk witness collected."""
    if params.mode == "random":
        acc = _run_random(params, collect_extremal=True)
    else:
        acc = _run_exhaustive(params, collect_extremal=True)
    return _finish(params, acc, params.mode, extremal=True)


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
