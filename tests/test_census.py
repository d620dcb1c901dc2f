import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from reflexff import (
    GuardExceeded,
    Matrix,
    MembershipError,
    OperatorSpace,
    census_report,
    construct_regular_rep,
    coset_make,
    coset_rank_profile,
    field_from_order,
    field_make,
    incidence_count,
    mat_rank,
    nprime_count,
    proof_trace,
)
from reflexff import census, kernels, matrix, opspace
from oracles import brute_closure_set, space_element_set

GF2 = field_make(2)
GF3 = field_make(3)


def worked_coset():
    ident = Matrix.identity(GF2, 2)
    m = Matrix(GF2, 2, 2, (0, 1, 1, 1))
    s = OperatorSpace(GF2, 2, 2, [ident, m])
    e11 = Matrix(GF2, 2, 2, (1, 0, 0, 0))
    return coset_make(s, e11)


def test_coset_validation():
    ident = Matrix.identity(GF2, 2)
    m = Matrix(GF2, 2, 2, (0, 1, 1, 1))
    s = OperatorSpace(GF2, 2, 2, [ident, m])
    e11 = Matrix(GF2, 2, 2, (1, 0, 0, 0))
    t = coset_make(s, e11)
    assert t.size() == 4
    with pytest.raises(MembershipError) as exc:
        coset_make(s, ident)
    assert exc.value.which == "in_space"
    e12 = Matrix(GF2, 2, 2, (0, 1, 0, 0))
    e21 = Matrix(GF2, 2, 2, (0, 0, 1, 0))
    s2 = OperatorSpace(GF2, 2, 2, [e11, e12])
    with pytest.raises(MembershipError) as exc:
        coset_make(s2, e21)
    assert exc.value.which == "not_in_closure"


def test_coset_avoids_zero_and_has_q_to_n_members():
    t = worked_coset()
    members = [h for _, h in t.elements()]
    assert len(members) == 4
    assert len(set(m.entries for m in members)) == 4
    assert Matrix.zero(GF2, 2, 2) not in members


def test_incidence_worked_example():
    t = worked_coset()
    # ranks {1,1,1,2} -> 2 + 2 + 2 + 1 = 7, the coverage floor exactly
    assert incidence_count(t, "formula") == 7
    assert incidence_count(t, "brute") == 7
    assert 7 == 2**t.n + 2**t.p - 1


def test_incidence_all_invertible_profile_is_arithmetic_floor():
    # an all-invertible translate cannot come from a valid witness (it
    # would kill no nonzero vector), but the rank-sum formula on such a
    # profile is exactly q^n: only x = 0 pairs with each member
    for q, p, n in [(2, 4, 2), (3, 5, 2), (2, 6, 3)]:
        rep = proof_trace(q, p, n, {p: q**n})
        assert rep.incidence_exact == q**n
        # and the coverage floor then fails by exactly q^p - 1
        coverage = next(c for c in rep.checks if c.name == "coverage")
        assert coverage.lhs - coverage.rhs == q**p - 1
        assert coverage.holds is False


def test_incidence_modes_agree_on_random_cosets():
    rng = random.Random(424242)
    built = 0
    while built < 30:
        q, f = rng.choice([(2, GF2), (3, GF3)])
        dim_u = rng.randrange(2, 4)
        dim_v = rng.randrange(2, 4)
        n = rng.randrange(1, 3)
        try:
            basis = [Matrix(f, dim_v, dim_u,
                            [rng.randrange(q) for _ in range(dim_u * dim_v)])
                     for _ in range(n)]
            s = OperatorSpace(f, dim_u, dim_v, basis)
        except ValueError:
            continue
        closure = s.reflexive_closure()
        if closure.n == s.n:
            continue
        g = next(b for b in closure.basis if not s.contains(b))
        t = coset_make(s, g)
        assert incidence_count(t, "formula") == incidence_count(t, "brute")
        built += 1


def test_incidence_coverage_floor():
    t = worked_coset()
    q, p, n = t.q, t.p, t.n
    # every projective point must be killed by some member of T
    from reflexff import iter_projective

    members = [h for _, h in t.elements()]
    zero = (0,) * t.space.dim_v
    for x in iter_projective(q, p):
        assert any(h.apply(x) == zero for h in members)
    assert incidence_count(t, "formula") >= q**n + q**p - 1


def test_brute_guard():
    t = worked_coset()
    import reflexff.census as census

    old = census.BRUTE_GUARD
    census.BRUTE_GUARD = 8
    try:
        with pytest.raises(GuardExceeded):
            incidence_count(t, "brute")
    finally:
        census.BRUTE_GUARD = old
    with pytest.raises(ValueError):
        incidence_count(t, "other")


def test_rank_profile_worked_example():
    t = worked_coset()
    profile, r, m, mult = coset_rank_profile(t)
    assert profile == {1: 3, 2: 1}
    assert r == 1
    assert m == 4
    assert mult == 3


def test_nprime_invertible_h0_is_zero():
    t = worked_coset()
    h0 = t.member((1, 1))  # E11 + I + M = [[0,1],[1,0]], invertible
    assert mat_rank(h0) == 2
    assert nprime_count(t, h0) == 0


def test_nprime_worked_example():
    t = worked_coset()
    h0 = t.member((1, 0))  # E11 + I = [[0,0],[0,1]], kernel span{(1,0)}
    assert h0.entries == (0, 0, 0, 1)
    assert nprime_count(t, h0) == 0  # no other member kills (1, 0)


def test_nprime_upper_bound_and_membership_error():
    t = worked_coset()
    for coeffs in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        h0 = t.member(coeffs)
        bound = (2**(t.p - mat_rank(h0)) - 1) * (2**t.n - 1)
        assert 0 <= nprime_count(t, h0) <= bound
    with pytest.raises(ValueError):
        nprime_count(t, Matrix.zero(GF2, 2, 2))


def test_census_report_worked_example():
    t = worked_coset()
    rep = census_report(t)
    assert rep.incidence_count == 7
    assert rep.rank_profile == {1: 3, 2: 1}
    assert (rep.r, rep.m, rep.min_rank_multiplicity) == (1, 4, 3)
    assert rep.h0_coeffs == (0, 0)
    assert rep.nprime_lower is None  # p < 2n - 1
    coverage = next(v for v in rep.verdicts if v.name == "coverage")
    assert coverage.holds is True and coverage.lhs == 7
    nf = next(v for v in rep.verdicts if v.name == "nprime_floor")
    assert nf.status == "skipped"
    d = rep.to_dict()
    assert d["incidence_count"] == "7"
    assert d["rank_profile"] == {"1": 3, "2": 1}


def test_trace_claim1_contradiction():
    rep = proof_trace(2, 3, 2, {2: 4})
    assert rep.regime_met
    assert rep.incidence_exact == 8
    assert rep.contradiction and rep.contradiction_via == "claim1"
    claim1 = next(c for c in rep.checks if c.name == "claim1")
    assert claim1.status == "evaluated"
    assert (claim1.lhs, claim1.rhs, claim1.holds) == (11, 8, False)


def test_trace_final_chain_contradiction():
    rep = proof_trace(2, 3, 2, {1: 1, 2: 3})
    assert rep.contradiction
    assert rep.incidence_exact == 10  # 4 + 3 * 2, below the floor 11
    by_name = {c.name: c for c in rep.checks}
    assert by_name["coverage"].holds is False
    assert by_name["claim2"].holds is True
    assert by_name["claim3"].holds is False           # 4 <= 3 fails
    assert by_name["claim3_factored"].holds is False
    assert by_name["claim3_factored"].rhs == Fraction(4, 3)
    assert by_name["majo3"].holds is True             # 10 <= 10
    assert by_name["mino3"].holds is False            # 11 <= 10 fails
    assert by_name["minequality"].holds is False      # 5 <= 4 fails
    assert by_name["final_reduction"].holds is False  # 2 <= 1


def _nprime_floor_shapes(per, seed):
    """(q, p, n, profile) over q in {2, 3, 4, 5, 7}, n in {2, 3, 4} and
    2n-1 <= p <= 2n+3, for profiles of the shape the ``nprime_floor``
    verdict needs: one member of rank n-1 and the other q^n - 1 of rank
    n..p.  Each (q, p, n) gives every profile with one such rank and
    ``per`` seeded uniform compositions over all of them."""
    rng = random.Random(seed)
    for q, n in product((2, 3, 4, 5, 7), (2, 3, 4)):
        for p in range(2 * n - 1, 2 * n + 4):
            ranks, others = range(n, p + 1), q**n - 1
            for k in ranks:
                yield q, p, n, {n - 1: 1, k: others}
            slots = others + len(ranks) - 1
            for _ in range(per):
                bounds = [-1, *sorted(rng.sample(range(slots), len(ranks) - 1)), slots]
                counts = [b - a - 1 for a, b in zip(bounds, bounds[1:])]
                yield q, p, n, {n - 1: 1, **dict(zip(ranks, counts))}


def test_trace_finds_every_nprime_floor_shape_contradictory():
    # a space whose nonzero members all have rank above 2n - 2 has no coset
    # of the shape census_report's nprime_floor verdict needs
    grid = list(_nprime_floor_shapes(20, 0))
    assert len(grid) == 75 * 20 + 375  # 75 (q, p, n) triples
    for q, p, n, profile in grid:
        assert sum(profile.values()) == q**n
        rep = proof_trace(q, p, n, profile)
        assert rep.regime_met and rep.contradiction, (q, p, n, profile)


def test_coset_walks_stop_at_the_search_guard(monkeypatch):
    # span{I, E12} over GF(3) and g = E11: a coset of 9 members
    s = OperatorSpace(GF3, 2, 2, [Matrix.identity(GF3, 2),
                                  Matrix(GF3, 2, 2, (0, 1, 0, 0))])
    t = coset_make(s, Matrix(GF3, 2, 2, (1, 0, 0, 0)))
    h0 = t.member((0, 0))
    want = census_report(t).to_dict()
    monkeypatch.setenv("REFLEXFF_GUARD", "8")
    walks = []
    monkeypatch.setattr(census, "rank_walk", lambda *a: walks.append(a))
    for run in (census_report, coset_rank_profile, incidence_count,
                lambda c: nprime_count(c, h0)):
        with pytest.raises(GuardExceeded, match="9 members"):
            run(t)
    assert walks == []
    monkeypatch.undo()
    monkeypatch.setenv("REFLEXFF_GUARD", "9")
    assert census_report(t).to_dict() == want


def test_trace_outside_regime_claims_nothing():
    # the worked real coset has q=2, n=2, p=2 < 2n-1
    rep = proof_trace(2, 2, 2, {1: 3, 2: 1})
    assert not rep.regime_met
    assert not rep.contradiction
    assert rep.contradiction_via is None
    coverage = next(c for c in rep.checks if c.name == "coverage")
    assert coverage.holds is True  # 7 <= 7: realizable profile


def test_trace_validation():
    with pytest.raises(ValueError):
        proof_trace(2, 3, 2, {2: 3})       # sums to q^n - 1
    with pytest.raises(ValueError):
        proof_trace(2, 3, 2, {4: 4})       # rank above p
    with pytest.raises(ValueError):
        proof_trace(2, 3, 2, {})
    with pytest.raises(ValueError):
        proof_trace(2, 3, 2, {2: -4, 1: 8})
    with pytest.raises(ValueError):
        proof_trace(1, 3, 2, {2: 1})


def test_trace_is_exact_for_big_values():
    # far beyond 64-bit: q = 4, p = 40
    rep = proof_trace(4, 40, 2, {2: 16})
    claim1 = next(c for c in rep.checks if c.name == "claim1")
    assert claim1.lhs == 4**2 + 4**40 - 1
    assert rep.incidence_exact == 16 * 4**38
    assert rep.contradiction


def test_trace_json_serializes_big_integers_as_strings():
    rep = proof_trace(4, 40, 2, {2: 16})
    d = rep.to_dict()
    assert d["incidence_exact"] == str(16 * 4**38)
    claim1 = next(c for c in d["checks"] if c["name"] == "claim1")
    assert claim1["lhs"] == str(4**2 + 4**40 - 1)


# -- the coset layer against computations that share nothing with it --

# (q, dim_u, dim_v) with at most 729 candidate witnesses g to enumerate
SHAPES = {2: [(2, 2), (3, 2), (2, 3)], 3: [(2, 2), (3, 2)], 4: [(2, 2)], 5: [(2, 2)]}


def seeded_spaces(q, count, seed):
    """``count`` seeded spaces over GF(q) with n in {1, 2}, each with its
    closure fully enumerated; at least half are non-reflexive."""
    f = field_from_order(q)
    rng = random.Random(seed)
    found, reflexive = [], 0
    while len(found) < count:
        dim_u, dim_v = rng.choice(SHAPES[q])
        n = rng.randrange(1, 3)
        basis = [Matrix(f, dim_v, dim_u,
                        [rng.randrange(q) for _ in range(dim_u * dim_v)])
                 for _ in range(n)]
        try:
            s = OperatorSpace(f, dim_u, dim_v, basis)
        except ValueError:
            continue
        closure = brute_closure_set(s)
        own = space_element_set(s)
        if closure == own:
            if reflexive >= count // 2:
                continue
            reflexive += 1
        found.append((s, closure, own))
    return found


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_coset_make_accepts_exactly_the_closure_outside_s(q):
    for s, closure, own in seeded_spaces(q, 4, 6100 + q):
        f, p, v = s.field, s.dim_u, s.dim_v
        for entries in product(range(q), repeat=p * v):
            g = Matrix(f, v, p, entries)
            if entries in own:
                with pytest.raises(MembershipError) as exc:
                    coset_make(s, g)
                assert exc.value.which == "in_space"
            elif entries in closure:
                assert coset_make(s, g).g == g
            else:
                with pytest.raises(MembershipError) as exc:
                    coset_make(s, g)
                assert exc.value.which == "not_in_closure"


def brute_nprime(coset, h0_coeffs):
    """Pairs (x, h), x a nonzero vector killed by h0, h another member of
    T killing x, by enumerating every x."""
    members = dict(coset.elements())
    h0 = members.pop(h0_coeffs)
    zero = (0,) * coset.space.dim_v
    return sum(1 for x in product(range(coset.q), repeat=coset.p)
               if any(x) and h0.apply(x) == zero
               for h in members.values() if h.apply(x) == zero)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_census_report_matches_separate_computations(q):
    rng = random.Random(6200 + q)
    checked = 0
    for s, closure, own in seeded_spaces(q, 6, 6300 + q):
        outside = sorted(closure - own)
        for entries in rng.sample(outside, min(2, len(outside))):
            coset = coset_make(s, Matrix(s.field, s.dim_v, s.dim_u, entries))
            p, n = coset.p, coset.n
            rep = census_report(coset)
            ranks = [(coeffs, mat_rank(h)) for coeffs, h in coset.elements()]
            profile = Counter(rk for _, rk in ranks)
            r = min(profile)
            h0_coeffs = next(coeffs for coeffs, rk in ranks if rk == r)
            m = sum(c for rk, c in profile.items() if rk <= n)
            total = incidence_count(coset, "brute")
            nprime = nprime_count(coset, coset.member(h0_coeffs))
            assert nprime == brute_nprime(coset, h0_coeffs)
            assert (rep.q, rep.p, rep.n) == (q, p, n)
            assert rep.incidence_count == total
            assert rep.rank_profile == dict(profile)
            assert (rep.r, rep.m, rep.min_rank_multiplicity) == (r, m, profile[r])
            assert rep.h0_coeffs == h0_coeffs
            lower = (q**(p - 2 * n + 1) - 1) * (m - 1) if p >= 2 * n - 1 else None
            assert rep.nprime_lower == lower
            assert rep.nprime_count == nprime
            coverage, floor_check = rep.verdicts
            floor = q**n + q**p - 1
            assert (coverage.name, coverage.lhs, coverage.rhs, coverage.holds) == (
                "coverage", floor, total, floor <= total)
            shape = (p >= 2 * n - 1 and r == n - 1 and profile[r] == 1
                     and all(rk >= n for rk in profile if rk != r))
            assert floor_check.name == "nprime_floor"
            if shape:
                assert (floor_check.lhs, floor_check.rhs, floor_check.holds) == (
                    nprime, lower, nprime >= lower)
            else:
                assert floor_check.status == "skipped"
            checked += 1
    assert checked >= 6


def test_census_report_ranks_each_member_once(monkeypatch):
    s = construct_regular_rep(GF3, 2)
    g = next(b for b in s.reflexive_closure().basis if not s.contains(b))
    for coset in (worked_coset(), coset_make(s, g)):
        shapes, built = Counter(), []
        reduce, init = kernels.row_reduce, Matrix.__init__
        # an empty rank memo: a coset's members are distinct, so each one
        # is reduced exactly once
        monkeypatch.setattr(opspace, "_rank_memos", {})
        monkeypatch.setattr(kernels, "row_reduce", lambda e, rows, cols, f: (
            shapes.update([(rows, cols)]), reduce(e, rows, cols, f))[1])
        monkeypatch.setattr(Matrix, "__init__",
                            lambda m, *a: built.append(a) or init(m, *a))
        census_report(coset)
        monkeypatch.undo()
        p, v, size = coset.p, coset.space.dim_v, coset.size()
        # one rank per member, one stacked [h0; h] rank per other member
        assert shapes == {(v, p): size, (2 * v, p): size - 1}
        assert built == []


def test_census_report_counts_nprime_past_the_brute_guard(monkeypatch):
    monkeypatch.setattr(census, "BRUTE_GUARD", 1)
    counts = []
    for q in (2, 3):
        for s, closure, own in seeded_spaces(q, 6, 6400 + q):
            outside = sorted(closure - own)
            if not outside:
                continue
            coset = coset_make(s, Matrix(s.field, s.dim_v, s.dim_u, outside[0]))
            rep = census_report(coset)
            assert rep.nprime_count == brute_nprime(coset, rep.h0_coeffs)
            assert rep.to_dict()["nprime_count"] == str(rep.nprime_count)
            counts.append(rep.nprime_count)
    assert len(counts) >= 4 and any(counts)


def test_coset_make_solves_nothing(monkeypatch):
    calls = []
    for module in (matrix, opspace):
        solve = module.solve
        monkeypatch.setattr(module, "solve",
                            lambda *a, solve=solve: calls.append(a) or solve(*a))
    worked_coset()
    assert calls == []
