import random

import pytest

from reflexff import (
    GuardExceeded,
    Matrix,
    OperatorSpace,
    SearchParams,
    TheoremViolation,
    analyze,
    construct_regular_rep,
    dumps,
    enumerate_subspaces,
    exhaustive_verify,
    field_make,
    find_extremal,
    gaussian_binomial,
    random_verify,
    rref_rows,
)
from oracles import span_set

GF2 = field_make(2)
GF3 = field_make(3)


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(6, 2, 2) == 651
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 5, 3) == 1
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3, 2)


def test_enumerate_lines_of_gf2_squared():
    got = {rows[0] for rows in enumerate_subspaces(2, 2, 1)}
    assert got == {(1, 0), (0, 1), (1, 1)}


def test_enumerate_counts_and_uniqueness():
    for q, ambient, k in [(2, 4, 2), (3, 3, 2), (2, 5, 1), (4, 3, 1)]:
        subs = list(enumerate_subspaces(q, ambient, k))
        assert len(subs) == gaussian_binomial(ambient, k, q)
        assert len(set(subs)) == len(subs)


def test_enumerate_whole_space_case():
    assert list(enumerate_subspaces(3, 2, 2)) == [((1, 0), (0, 1))]


def test_enumerate_yields_canonical_rref_bases():
    f = field_make(3)
    for rows in enumerate_subspaces(3, 3, 2):
        canon, _ = rref_rows(f, rows)
        assert canon == rows


def test_enumerate_matches_brute_span_dedup():
    # deduplicate all ordered independent pairs by their span
    from itertools import product

    f = GF2
    spans = set()
    for u in product(range(2), repeat=4):
        if not any(u):
            continue
        for v in product(range(2), repeat=4):
            rows, _ = rref_rows(f, [u, v])
            if len(rows) == 2:
                spans.add(rows)
    enumerated = set(enumerate_subspaces(2, 4, 2))
    assert enumerated == spans


def test_enumerate_guard():
    with pytest.raises(GuardExceeded):
        list(enumerate_subspaces(2, 6, 2, guard=100))


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("REFLEXFF_GUARD", "10")
    params = SearchParams(field=GF2, dim_u=2, dim_v=2, n=2)
    with pytest.raises(GuardExceeded):
        exhaustive_verify(params)
    # a malformed or non-positive override is bad input, not a tripped guard
    for raw in ("junk", "0", "-5"):
        monkeypatch.setenv("REFLEXFF_GUARD", raw)
        with pytest.raises(ValueError, match="REFLEXFF_GUARD"):
            exhaustive_verify(params)


def test_exhaustive_tiny_slice():
    params = SearchParams(field=GF2, dim_u=2, dim_v=2, n=2, deep_checks=True)
    report = exhaustive_verify(params)
    assert report.spaces_examined == 35
    assert report.reflexive_count + report.nonreflexive_count == 35
    assert report.violations == []
    assert report.max_mrk == 2
    assert sum(report.mrk_histogram.values()) == report.nonreflexive_count


def test_exhaustive_matches_brute_closure_classification():
    # oracle: classify all 35 spaces by full 16-candidate closure enumeration
    from oracles import brute_closure_set

    nonreflexive = 0
    for rows in enumerate_subspaces(2, 4, 2):
        basis = [Matrix(GF2, 2, 2, r) for r in rows]
        s = OperatorSpace(GF2, 2, 2, basis)
        members = brute_closure_set(s)
        if len(members) > 4:  # more than q^n members: closure is bigger
            nonreflexive += 1
    report = exhaustive_verify(SearchParams(field=GF2, dim_u=2, dim_v=2, n=2))
    assert report.nonreflexive_count == nonreflexive


def test_exhaustive_n1_all_reflexive():
    params = SearchParams(field=GF2, dim_u=2, dim_v=2, n=1)
    report = exhaustive_verify(params)
    assert report.spaces_examined == gaussian_binomial(4, 1, 2) == 15
    assert report.reflexive_count == 15
    assert report.nonreflexive_count == 0
    assert report.max_mrk is None


def test_exhaustive_worker_invariance():
    p1 = SearchParams(field=GF2, dim_u=2, dim_v=2, n=2, jobs=1)
    p2 = SearchParams(field=GF2, dim_u=2, dim_v=2, n=2, jobs=4)
    assert exhaustive_verify(p1).to_dict() == exhaustive_verify(p2).to_dict()


@pytest.mark.parametrize("jobs", [0, -3])
def test_exhaustive_rejects_jobs_below_one(jobs):
    params = SearchParams(field=GF2, dim_u=2, dim_v=2, n=2, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        exhaustive_verify(params)


@pytest.mark.parametrize("jobs", [0, -3])
def test_random_rejects_jobs_below_one(jobs):
    params = SearchParams(field=GF2, dim_u=2, dim_v=2, n=2, mode="random",
                          samples=3, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        random_verify(params)


def test_benchmark_slice_gf2_counts_and_jobs_invariance():
    # the exhaustive-gf2 slice of the benchmark: GF(2), dim_v=2, dim_u=3, n=3
    base = dict(field=GF2, dim_u=3, dim_v=2, n=3)
    report = exhaustive_verify(SearchParams(jobs=1, **base))
    assert report.spaces_examined == 1395
    assert report.nonreflexive_count == 951
    assert report.mrk_histogram == {1: 903, 2: 48}
    assert report.max_mrk == 2
    pooled = exhaustive_verify(SearchParams(jobs=2, **base))
    assert dumps(pooled.to_dict()) == dumps(report.to_dict())


def test_spawn_workers_rebuild_the_closure_memo(monkeypatch):
    import multiprocessing
    import os

    import reflexff.search as search

    # spawned workers start from a fresh import, so each builds its own
    # closure memo; the merged report must not depend on it
    spawn_pool = multiprocessing.get_context("spawn").Pool
    sizes = []

    def pool(processes):
        sizes.append(processes)
        return spawn_pool(processes)

    monkeypatch.setattr(search.multiprocessing, "Pool", pool)
    base = dict(field=GF2, dim_u=2, dim_v=3, n=2)
    serial = exhaustive_verify(SearchParams(jobs=1, **base))
    pooled = exhaustive_verify(SearchParams(jobs=2, **base))
    assert dumps(pooled.to_dict()) == dumps(serial.to_dict())
    assert sizes == ([2] if (os.cpu_count() or 1) >= 2 else [])


def test_benchmark_slice_gf3_counts():
    # the exhaustive-gf3 slice of the benchmark: GF(3), dim_v=2, dim_u=3, n=2
    report = exhaustive_verify(SearchParams(field=GF3, dim_u=3, dim_v=2, n=2))
    assert report.spaces_examined == 11011
    assert report.nonreflexive_count == 650
    assert report.mrk_histogram == {1: 416, 2: 234}


def test_exhaustive_pool_is_capped(monkeypatch):
    import reflexff.search as search

    sizes = []

    class RecordingPool:
        # runs the work in-process; only the requested size is recorded
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(search.multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    serial = exhaustive_verify(
        SearchParams(field=GF2, dim_u=2, dim_v=2, n=2)).to_dict()
    assert sizes == []
    # 6 pivot patterns on this slice, 4 CPUs: the CPU count caps the pool
    huge = SearchParams(field=GF2, dim_u=2, dim_v=2, n=2, jobs=10**9)
    assert exhaustive_verify(huge).to_dict() == serial
    # 3 pivot patterns on this slice: the pattern count caps the pool
    few = SearchParams(field=GF2, dim_u=3, dim_v=1, n=1, jobs=10**9)
    exhaustive_verify(few)
    # 2 workers asked for: the request itself is the smallest bound
    two = SearchParams(field=GF2, dim_u=2, dim_v=2, n=2, jobs=2)
    assert exhaustive_verify(two).to_dict() == serial
    assert sizes == [4, 3, 2]


def test_random_verify_reproducible():
    params = SearchParams(field=GF3, dim_u=3, dim_v=2, n=2, mode="random",
                          samples=60, seed=123)
    r1 = random_verify(params)
    r2 = random_verify(params)
    assert r1.to_dict() == r2.to_dict()
    assert r1.spaces_examined == 60
    assert r1.violations == []
    assert r1.rng == "python-mt19937"
    r3 = random_verify(SearchParams(field=GF3, dim_u=3, dim_v=2, n=2,
                                    mode="random", samples=60, seed=124))
    assert r3.to_dict() != r1.to_dict()  # seed matters


def test_random_verify_bound_holds_bigger_slice():
    params = SearchParams(field=GF2, dim_u=5, dim_v=5, n=3, mode="random",
                          samples=80, seed=7)
    report = random_verify(params)
    assert report.violations == []
    assert all(int(k) <= 4 for k in report.mrk_histogram)


def test_regular_rep_q2_n2_is_the_worked_example():
    s = construct_regular_rep(GF2, 2)
    assert [m.entries for m in s.basis] == [(1, 0, 0, 1), (0, 1, 1, 1)]
    rep = analyze(s)
    assert (rep.reflexive, rep.closure_dim, rep.mrk) == (False, 4, 2)


def test_regular_rep_multiplicativity():
    # L_a @ L_b must equal L_(a*b), checked over all pairs for q^n <= 64
    for q, n in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                 (5, 2), (7, 2)]:
        base = field_make(q)
        ext = field_make(q, n)
        s = construct_regular_rep(base, n)

        def lmat(a):
            ent = [0] * (n * n)
            for c in range(n):
                prod = ext.mul(a, q**c)
                for r in range(n):
                    ent[r * n + c] = prod % q
                    prod //= q
            return Matrix(base, n, n, ent)

        assert [m.entries for m in s.basis] == [lmat(q**i).entries for i in range(n)]
        for a in range(ext.q):
            for b in range(ext.q):
                assert (lmat(a) @ lmat(b)) == lmat(ext.mul(a, b))


def test_regular_rep_every_nonzero_member_invertible():
    from reflexff import iter_projective, mat_rank

    for q, n in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        s = construct_regular_rep(field_make(q), n)
        for coeffs in iter_projective(q, n):
            assert mat_rank(s.element(coeffs)) == n
        assert s.mrk()[0] == n


def test_regular_rep_rejects_extension_base():
    with pytest.raises(ValueError):
        construct_regular_rep(field_make(2, 2), 2)
    with pytest.raises(ValueError):
        construct_regular_rep(GF2, 0)


def test_regular_rep_n1():
    s = construct_regular_rep(GF3, 1)
    assert s.n == 1 and s.basis[0] == Matrix.identity(GF3, 1)
    assert s.is_reflexive()


def test_find_extremal_tiny_slice():
    report = find_extremal(SearchParams(field=GF2, dim_u=2, dim_v=2, n=2))
    ext = report.extremal
    assert ext["max_mrk"] == 2
    assert set(ext["equals"]) == {"2n-2", "n"}
    regular = construct_regular_rep(GF2, 2).canonical_basis()
    assert regular in [tuple(map(tuple, w)) for w in ext["witnesses"]]


def test_find_extremal_n1_empty():
    report = find_extremal(SearchParams(field=GF2, dim_u=2, dim_v=2, n=1))
    assert report.extremal["max_mrk"] is None
    assert report.extremal["witnesses"] == []


def test_2n_minus_3_status_applicability():
    r = exhaustive_verify(SearchParams(field=GF2, dim_u=2, dim_v=2, n=2))
    assert r.bound_2n_minus_3_status == "not-applicable"  # needs q > n >= 3
    r = random_verify(SearchParams(field=field_make(5), dim_u=3, dim_v=3, n=3,
                                   mode="random", samples=8, seed=3))
    assert r.bound_2n_minus_3_status in ("holds", "violated")


def test_theorem_violation_raises_loudly(monkeypatch):
    import reflexff.search as search

    def fake_walk(field, dim_u, dim_v, flats, coeff_vectors, offset=None):
        yield (1,) * len(flats), [1] * (dim_u * dim_v), 99

    monkeypatch.setattr(search, "rank_walk", fake_walk)
    with pytest.raises(TheoremViolation) as exc:
        exhaustive_verify(SearchParams(field=GF2, dim_u=2, dim_v=2, n=2))
    report = exc.value.report
    assert report.violations
    assert any(v["bound"] == "2n-2" for v in report.violations)


def test_nonreflexive_spaces_satisfy_all_recorded_bounds():
    report = exhaustive_verify(
        SearchParams(field=GF3, dim_u=2, dim_v=2, n=2, deep_checks=True))
    assert report.spaces_examined == 130
    assert report.violations == []
    n = 2
    for k in report.mrk_histogram:
        assert k <= 2 * n - 2
        assert k <= n * (n + 1) // 2
        assert k <= n * n


def test_searchreport_json_shape():
    report = exhaustive_verify(SearchParams(field=GF2, dim_u=2, dim_v=2, n=2))
    d = report.to_dict()
    assert d["population"] == "35"
    assert d["mrk_histogram"] == {"1": 9, "2": 2}
    assert isinstance(d["guard"], str)
    assert d["max_mrk_witness"] is not None
