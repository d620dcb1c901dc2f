import multiprocessing
import os
import random
from itertools import combinations

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
    load_space,
    random_verify,
    rref_rows,
)
from reflexff import search
from oracles import brute_rank, combine, duality_closure_set, space_element_set, span_set
from reference import reference_pattern_subspaces

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


@pytest.mark.parametrize("q", [1, 0, -2, 2.5, True, "2"])
def test_gaussian_binomial_rejects_a_bad_q(q):
    # a q that is no field order is refused up front, never counted
    for k in (0, 1, 2):
        with pytest.raises(ValueError, match="q must be an integer >= 2"):
            gaussian_binomial(3, k, q)
        with pytest.raises(ValueError, match="q must be an integer >= 2"):
            next(enumerate_subspaces(q, 3, k))


def test_enumerate_lines_of_gf2_squared():
    got = {rows[0] for rows in enumerate_subspaces(2, 2, 1)}
    assert got == {(1, 0), (0, 1), (1, 1)}


def test_enumerate_counts_and_uniqueness():
    for q, ambient, k in [(2, 4, 2), (3, 3, 2), (2, 5, 1), (4, 3, 1)]:
        subs = list(enumerate_subspaces(q, ambient, k))
        assert len(subs) == gaussian_binomial(ambient, k, q)
        assert len(set(subs)) == len(subs)
    # a search's guard of exactly the count admits the slice, one less
    # refuses it; the enumeration yields exactly that many bases
    for q in (2, 3, 4):
        for ambient in range(1, 5):
            for k in range(ambient + 1):
                total = gaussian_binomial(ambient, k, q)
                assert search._count_subspaces(ambient, k, q, total) == total
                assert len(list(enumerate_subspaces(q, ambient, k))) == total
                if total > 1:
                    with pytest.raises(GuardExceeded):
                        search._count_subspaces(ambient, k, q, total - 1)
    # k = 0 is the one empty pivot pattern, with the one empty basis
    assert list(enumerate_subspaces(2, 4, 0)) == [()]


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


_ENUMERATION_GRID = ([(2, a) for a in range(7)] + [(3, a) for a in range(6)]
                     + [(q, a) for q in (4, 5) for a in range(5)])


@pytest.mark.parametrize("q, ambient, k", [
    *((q, a, k) for q, a in _ENUMERATION_GRID for k in range(a + 1)),
    (3, 6, 2)])
def test_pattern_subspaces_match_the_template_reference(q, ambient, k):
    # same bases, same order, same types, pattern by pattern
    for pivots in combinations(range(ambient), k):
        got = list(search._pattern_subspaces(q, ambient, pivots))
        want = list(reference_pattern_subspaces(q, ambient, pivots))
        assert got == want
        assert all(type(rows) is tuple and len(rows) == k
                   and all(type(r) is tuple and len(r) == ambient
                           and all(type(e) is int for e in r) for r in rows)
                   for rows in got)


def test_enumeration_yields_before_walking_its_pattern(python_child):
    # the first of [64, 2]_2 bases comes at once: nothing is materialised
    code, _, err = python_child(
        "from reflexff import enumerate_subspaces\n"
        "rows = next(enumerate_subspaces(2, 64, 2))\n"
        "assert rows == ((1,) + (0,) * 63, (0, 1) + (0,) * 62)\n")
    assert code == 0, err


def test_enumerate_guard():
    # [6, 2]_2 = 651 spaces: a search of 2x3 maps with n = 2 is refused
    with pytest.raises(GuardExceeded, match="guard 100"):
        search._count_subspaces(6, 2, 2, 100)
    with pytest.raises(GuardExceeded, match=r"2-dimensional subspaces of GF\(2\)\^6"):
        exhaustive_verify(SearchParams(field=GF2, dim_u=2, dim_v=3, n=2, guard=100))
    # [240, 120]_2 has over 4300 digits: the message names the shape instead
    with pytest.raises(GuardExceeded, match=r"120-dimensional subspaces of GF\(2\)\^240"):
        search._count_subspaces(240, 120, 2, 100)


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
    params = SearchParams(field=GF2, dim_u=2, dim_v=2, n=2)
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


@pytest.mark.parametrize("name", ["dim_u", "dim_v", "n", "samples", "seed", "jobs",
                                  "guard"])
@pytest.mark.parametrize("value", [True, False, 2.0, "2"])
def test_search_refuses_a_count_that_is_not_an_int(name, value):
    # a bool was echoed into the report as true, or as "True" for the guard;
    # a float job count failed inside multiprocessing with a TypeError
    for mode, run in (("exhaustive", exhaustive_verify), ("random", random_verify)):
        params = SearchParams(**{**dict(field=GF2, dim_u=2, dim_v=2, n=1, mode=mode,
                                        samples=3, seed=5, guard=1000), name: value})
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            run(params)
    # None is the guard's default, and nothing else's
    assert random_verify(SearchParams(field=GF2, dim_u=2, dim_v=2, n=1, mode="random",
                                      samples=3, guard=None)).guard > 0


@pytest.mark.parametrize("mode", ["Random", "", "exhaustive "])
def test_unknown_mode_is_rejected(mode):
    params = SearchParams(field=GF2, dim_u=2, dim_v=2, n=1, mode=mode, samples=3)
    for run in (find_extremal, exhaustive_verify, random_verify):
        with pytest.raises(ValueError, match="mode"):
            run(params)


def test_verifiers_reject_the_other_mode(monkeypatch):
    scanned = []
    monkeypatch.setattr(search, "_scan_one", lambda *a: scanned.append(a))
    base = dict(field=GF2, dim_u=2, dim_v=2, n=2, samples=3)
    with pytest.raises(ValueError, match="random mode"):
        exhaustive_verify(SearchParams(mode="random", **base))
    with pytest.raises(ValueError, match="exhaustive mode"):
        random_verify(SearchParams(mode="exhaustive", **base))
    assert scanned == []


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


@pytest.mark.parametrize("jobs", [2, 3])
def test_spawn_workers_rebuild_the_closure_memo(monkeypatch, jobs):
    import reflexff.search as search

    # spawned workers start from a fresh import, so each builds its own
    # closure memo; the merged report must not depend on it
    spawn_pool = multiprocessing.get_context("spawn").Pool
    sizes = []

    def pool(processes):
        sizes.append(processes)
        return spawn_pool(processes)

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    base = dict(field=GF2, dim_u=2, dim_v=3, n=2)
    serial = exhaustive_verify(SearchParams(jobs=1, **base))
    pooled = exhaustive_verify(SearchParams(jobs=jobs, **base))
    assert dumps(pooled.to_dict()) == dumps(serial.to_dict())
    assert sizes == [jobs]


@pytest.mark.parametrize("jobs", [2, 3])
def test_spawn_workers_walk_ranks_from_an_empty_memo(monkeypatch, jobs):
    import reflexff.search as search

    # the exhaustive-gf2 slice: the parent's rank memo is warm, every
    # spawned worker's starts empty; the merged report must not depend on it
    spawn_pool = multiprocessing.get_context("spawn").Pool
    monkeypatch.setattr(multiprocessing, "Pool", spawn_pool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    base = dict(field=GF2, dim_u=3, dim_v=2, n=3)
    serial = exhaustive_verify(SearchParams(jobs=1, **base))
    pooled = exhaustive_verify(SearchParams(jobs=jobs, **base))
    assert pooled.nonreflexive_count == 951
    assert dumps(pooled.to_dict()) == dumps(serial.to_dict())


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_find_extremal_merges_witnesses_across_workers(monkeypatch, method):
    # all 48 mrk-2 spaces of the exhaustive-gf2 slice lie in its first
    # pivot pattern; the 182 of GF(2), dim_u=2, dim_v=3, n=2 lie in six.
    # Their merged list must follow the enumeration whatever the split.
    context_pool = multiprocessing.get_context(method).Pool
    sizes = []

    def pool(processes):
        sizes.append(processes)
        return context_pool(processes)

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    for dim_u, dim_v, n, count in ((3, 2, 3, 48), (2, 3, 2, 182)):
        base = dict(field=GF2, dim_u=dim_u, dim_v=dim_v, n=n)
        serial = find_extremal(SearchParams(jobs=1, **base)).to_dict()
        witnesses = [tuple(map(tuple, w)) for w in serial["extremal"]["witnesses"]]
        assert len(witnesses) == count
        order = {rows: i for i, rows in
                 enumerate(enumerate_subspaces(2, dim_u * dim_v, n))}
        assert sorted(witnesses, key=order.get) == witnesses
        for jobs in (2, 3):
            pooled = find_extremal(SearchParams(jobs=jobs, **base))
            assert dumps(pooled.to_dict()) == dumps(serial)
    assert sizes == [2, 3, 2, 3]


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

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
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
            member = combine(s.field, [b.entries for b in s.basis], coeffs, n * n)
            assert mat_rank(Matrix(s.field, n, n, member)) == n
        assert s.mrk()[0] == n


def test_regular_rep_rejects_extension_base():
    with pytest.raises(ValueError):
        construct_regular_rep(field_make(2, 2), 2)
    with pytest.raises(ValueError):
        construct_regular_rep(GF2, 0)
    for n in (True, 2.0):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            construct_regular_rep(GF2, n)


def test_regular_rep_n1():
    s = construct_regular_rep(GF3, 1)
    assert s.n == 1 and s.basis[0] == Matrix(GF3, 1, 1, (1,))
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


TIGHT = os.path.join(os.path.dirname(__file__), "fixtures", "tight-gf2-4x4-n3.json")


def test_tight_witness_attains_2n_minus_2():
    # a non-reflexive GF(2) 4x4 space with n = 3 and mrk = 4 = 2n - 2, found
    # by a seeded hill-climb; at n = 2 the bound 2n - 2 equals n, so only a
    # witness with n >= 3 tells the two apart
    space = load_space(TIGHT)
    n = space.n
    assert n == 3
    report = analyze(space)
    assert (report.reflexive, report.mrk) == (False, 2 * n - 2)

    rows = space.canonical_basis()
    acc = search._Acc()
    params = SearchParams(field=GF2, dim_u=4, dim_v=4, n=n, guard=10**13)
    search._scan_one(acc, params, rows, True)
    assert (acc.nonreflexive, acc.hist, acc.violations) == (1, {4: 1}, [])

    # members and closure again, with no row reduction
    members = [e for e in space_element_set(space) if any(e)]
    assert len(members) == 7
    assert {brute_rank(Matrix(GF2, 4, 4, e)) for e in members} == {4}
    assert len(duality_closure_set(space)) > 2**n


def test_tight_witness_is_labelled_2n_minus_2(monkeypatch):
    space = load_space(TIGHT)
    rows = space.canonical_basis()

    def scan_the_witness(params, ambient, extremal):
        acc = search._Acc()
        search._scan_one(acc, params, rows, extremal)
        return acc

    monkeypatch.setattr(search, "_run_exhaustive", scan_the_witness)
    report = find_extremal(
        SearchParams(field=GF2, dim_u=4, dim_v=4, n=3, guard=10**13))
    assert report.violations == []
    assert report.extremal["max_mrk"] == 4
    assert report.extremal["equals"] == ["2n-2"]


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
    report = exhaustive_verify(SearchParams(field=GF3, dim_u=2, dim_v=2, n=2))
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
