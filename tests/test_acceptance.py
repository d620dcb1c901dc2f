"""Acceptance suite: one test per criterion, exact assertions only.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion (add ``-s`` to see the explicit ACCEPTANCE lines).
"""

import contextlib
import io
import random
import time

from reflexff import (
    DependentBasisError,
    Matrix,
    OperatorSpace,
    SearchParams,
    analyze,
    construct_regular_rep,
    coset_make,
    exhaustive_verify,
    field_make,
    find_extremal,
    incidence_count,
    exhaustive_verify as _ev,
    proof_trace,
    random_verify,
)
from reflexff.cli import main as cli_main
from oracles import brute_closure_set, space_element_set

GF2 = field_make(2)
GF3 = field_make(3)


def _pass(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def _random_space(rng, f, dim_u, dim_v, n):
    while True:
        try:
            basis = [Matrix(f, dim_v, dim_u,
                            [rng.randrange(f.q) for _ in range(dim_u * dim_v)])
                     for _ in range(n)]
            return OperatorSpace(f, dim_u, dim_v, basis)
        except DependentBasisError:
            continue


def test_criterion_1_exhaustive_tiny():
    t0 = time.perf_counter()
    report = find_extremal(SearchParams(field=GF2, dim_u=2, dim_v=2, n=2))
    elapsed = time.perf_counter() - t0
    assert report.spaces_examined == 35
    assert report.reflexive_count + report.nonreflexive_count == 35
    assert report.violations == []
    assert all(k <= 2 for k in report.mrk_histogram)
    assert report.max_mrk == 2
    regular = construct_regular_rep(GF2, 2)
    witnesses = [tuple(map(tuple, w)) for w in report.extremal["witnesses"]]
    assert regular.canonical_basis() in witnesses
    assert elapsed < 1.0
    _pass(1, f"35 spaces, 0 violations, max mrk 2 with the regular "
             f"representation as witness, {elapsed:.3f}s")


def test_criterion_2_exhaustive_small():
    t0 = time.perf_counter()
    r1 = exhaustive_verify(SearchParams(field=GF2, dim_u=3, dim_v=2, n=2))
    e1 = time.perf_counter() - t0
    assert r1.spaces_examined == 651
    assert r1.violations == []
    assert all(k <= 2 for k in r1.mrk_histogram)
    assert e1 < 10.0

    t0 = time.perf_counter()
    r2 = exhaustive_verify(SearchParams(field=GF3, dim_u=2, dim_v=2, n=2))
    e2 = time.perf_counter() - t0
    assert r2.spaces_examined == 130
    assert r2.violations == []
    assert all(k <= 2 for k in r2.mrk_histogram)
    assert e2 < 10.0
    _pass(2, f"651 spaces ({e1:.3f}s) and 130 spaces ({e2:.3f}s), 0 violations")


def test_criterion_3_division_algebra_family():
    cases = [(GF2, 2, 4), (GF2, 3, 9), (GF3, 2, 4)]
    for f, n, full_dim in cases:
        space = construct_regular_rep(f, n)
        rep = analyze(space)
        assert rep.reflexive is False
        assert rep.mrk == n
        assert rep.closure_dim == full_dim == space.dim_u * space.dim_v
    # brute-force closure oracle for the GF(2), n=2 case: all 16 candidates
    space = construct_regular_rep(GF2, 2)
    members = brute_closure_set(space)
    assert len(members) == 16
    assert space_element_set(space.reflexive_closure()) == members
    _pass(3, "regular representations: non-reflexive, mrk = n, "
             "full closure (dims 4, 9, 4), oracle-checked at GF(2) n=2")


def test_criterion_4_census_equality_case():
    space = OperatorSpace(GF2, 2, 2, [Matrix(GF2, 2, 2, (1, 0, 0, 1)),
                                      Matrix(GF2, 2, 2, (0, 1, 1, 1))])
    g = Matrix(GF2, 2, 2, (1, 0, 0, 0))
    coset = coset_make(space, g)
    formula = incidence_count(coset, "formula")
    brute = incidence_count(coset, "brute")
    assert formula == brute == 7
    assert formula == 2**coset.n + 2**coset.p - 1
    _pass(4, "|N| = 7 = q^n + q^p - 1, formula mode = brute mode")


def test_criterion_5_incidence_identity_on_random_cosets():
    rng = random.Random(55_2026)
    grids = [(GF2, 2, 2, 2), (GF2, 3, 2, 2), (GF2, 2, 3, 2), (GF2, 3, 3, 2),
             (GF2, 4, 2, 2), (GF2, 2, 2, 3), (GF3, 2, 2, 2), (GF3, 3, 2, 2)]
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 4000, "could not assemble enough non-reflexive spaces"
        f, dim_u, dim_v, n = grids[attempts % len(grids)]
        space = _random_space(rng, f, dim_u, dim_v, n)
        closure = space.reflexive_closure()
        if closure.n == space.n:
            continue
        witnesses = [b for b in closure.basis if not space.contains(b)][:2]
        for g in witnesses:
            coset = coset_make(space, g)
            assert (incidence_count(coset, "formula")
                    == incidence_count(coset, "brute"))
            checked += 1
    _pass(5, f"{checked} random cosets: rank-sum formula = brute pair count")


def test_criterion_6_tracer_claim1_contradiction_grid():
    hits = 0
    for q in (2, 3, 4):
        for n in (2, 3, 4):
            for p in range(2 * n - 1, 2 * n + 3):
                rep = proof_trace(q, p, n, {n: q**n})
                assert rep.regime_met
                assert rep.incidence_exact == q**n * q**(p - n) == q**p
                assert q**p < q**n + q**p - 1
                assert rep.contradiction
                assert rep.contradiction_via == "claim1"
                hits += 1
    assert hits == 36
    _pass(6, "claim-1 contradiction on all 36 (q, n, p) grid points")


def test_criterion_7_invariant_suite_1000_spaces():
    rng = random.Random(7_2026)
    grid = [(f, p, v, n)
            for f in (GF2, GF3)
            for p in range(1, 6)
            for v in range(1, 6)
            for n in range(1, 4)
            if n <= p * v]
    nonreflexive_seen = 0
    for i in range(1000):
        f, p, v, n = grid[rng.randrange(len(grid))]
        space = _random_space(rng, f, p, v, n)
        closure = space.reflexive_closure()

        # S is contained in R(S), and R is idempotent
        assert all(closure.contains(b) for b in space.basis)
        assert closure.reflexive_closure() == closure
        assert space.is_reflexive() == (closure.n == n)

        if n == 1:
            assert closure.n == 1  # 1-dimensional spaces are reflexive

        # evaluation spaces ignore scaling of the argument
        x = tuple(rng.randrange(f.q) for _ in range(p))
        base = space.eval_space(x)
        for lam in range(2, f.q):
            assert space.eval_space(tuple(f.mul(lam, c) for c in x)) == base

        mrk_value, _ = space.mrk()
        if closure.n > n:
            nonreflexive_seen += 1
            assert mrk_value <= 2 * n - 2
            g = next(b for b in closure.basis if not space.contains(b))
            extended = OperatorSpace(f, space.dim_u, space.dim_v,
                                     space.basis + (g,))
            assert extended.is_lld()

        reduced, _ = space.reduced()
        assert reduced.n == n
        assert reduced.mrk()[0] == mrk_value
        assert reduced.is_reflexive() == space.is_reflexive()
    assert nonreflexive_seen > 50  # the suite genuinely exercised the bound
    _pass(7, f"1000 random spaces, {nonreflexive_seen} non-reflexive, "
             f"all invariants exact")


def _cli_stdout(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(args)
    assert code == 0
    return buf.getvalue()


def test_criterion_8_determinism():
    base = ["search", "--q", "2", "--dim-u", "2", "--dim-v", "2", "--n", "2",
            "--mode", "exhaustive"]
    out1 = _cli_stdout(base + ["--jobs", "1"])
    out8 = _cli_stdout(base + ["--jobs", "8"])
    assert out1 == out8

    rand = ["search", "--q", "2", "--dim-u", "3", "--dim-v", "3", "--n", "2",
            "--mode", "random", "--samples", "50", "--seed", "42"]
    r1 = _cli_stdout(rand)
    r2 = _cli_stdout(rand)
    assert r1 == r2

    # library level as well
    rep1 = random_verify(SearchParams(field=GF2, dim_u=3, dim_v=3, n=2,
                                      mode="random", samples=50, seed=42))
    rep2 = random_verify(SearchParams(field=GF2, dim_u=3, dim_v=3, n=2,
                                      mode="random", samples=50, seed=42))
    assert rep1.to_dict() == rep2.to_dict()
    _pass(8, "jobs-count invariance and seeded reproducibility, byte-identical")
