import functools
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from reflexff import (
    DependentBasisError,
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
    iter_projective,
    mat_rank,
    nprime_count,
    proof_trace,
)
from reflexff import census, kernels, mat_kernel, opspace
from reflexff.census import Check
from reflexff.field import TABLE_LIMIT
from reflexff.serialize import dumps
from oracles import brute_closure_set, combine, space_element_set, span_set

GF2 = field_make(2)
GF3 = field_make(3)


def member(coset, coeffs):
    """g + sum c_k f_k, by ``oracles.combine``: no row reduction."""
    s = coset.space
    flats = [coset.g.entries] + [b.entries for b in s.basis]
    return Matrix(s.field, s.dim_v, s.dim_u,
                  combine(s.field, flats, (1,) + tuple(coeffs), s.dim_u * s.dim_v))


def members(coset):
    """{coefficients: member} over all q^n members of T, in lexicographic
    coefficient order."""
    return {c: member(coset, c) for c in product(range(coset.q), repeat=coset.n)}


def worked_coset():
    ident = Matrix(GF2, 2, 2, (1, 0, 0, 1))
    m = Matrix(GF2, 2, 2, (0, 1, 1, 1))
    s = OperatorSpace(GF2, 2, 2, [ident, m])
    e11 = Matrix(GF2, 2, 2, (1, 0, 0, 0))
    return coset_make(s, e11)


def test_coset_validation():
    ident = Matrix(GF2, 2, 2, (1, 0, 0, 1))
    m = Matrix(GF2, 2, 2, (0, 1, 1, 1))
    s = OperatorSpace(GF2, 2, 2, [ident, m])
    e11 = Matrix(GF2, 2, 2, (1, 0, 0, 0))
    t = coset_make(s, e11)
    assert len(members(t)) == 4
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
    hs = list(members(t).values())
    assert len(hs) == 4
    assert len(set(m.entries for m in hs)) == 4
    assert Matrix.zero(GF2, 2, 2) not in hs


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


def random_cosets():
    """30 seeded cosets over GF(2) and GF(3), dim_u and dim_v in {2, 3}."""
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
        yield coset_make(s, g)
        built += 1


def test_incidence_modes_agree_on_random_cosets():
    for t in random_cosets():
        assert incidence_count(t, "formula") == incidence_count(t, "brute")


def test_incidence_coverage_floor():
    t = worked_coset()
    q, p, n = t.q, t.p, t.n
    # every projective point must be killed by some member of T
    hs = members(t).values()
    zero = (0,) * t.space.dim_v
    for x in iter_projective(q, p):
        assert any(h.apply(x) == zero for h in hs)
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
    h0 = member(t, (1, 1))  # E11 + I + M = [[0,1],[1,0]], invertible
    assert mat_rank(h0) == 2
    assert nprime_count(t, h0) == 0


def test_nprime_worked_example():
    t = worked_coset()
    h0 = member(t, (1, 0))  # E11 + I = [[0,0],[0,1]], kernel span{(1,0)}
    assert h0.entries == (0, 0, 0, 1)
    assert nprime_count(t, h0) == 0  # no other member kills (1, 0)


def test_nprime_upper_bound_and_membership_error():
    t = worked_coset()
    for coeffs in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        h0 = member(t, coeffs)
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


def test_check_derives_its_verdict():
    assert [Check("c", rel, 2, 3).holds for rel in ("<=", ">=", ">")] == [
        True, False, False]
    assert Check("c", ">=", 3, 3).status == "evaluated"
    skipped = Check("c", ">", reason="why")
    assert (skipped.lhs, skipped.rhs, skipped.holds, skipped.status) == (
        None, None, None, "skipped")


@pytest.mark.parametrize("args, via", [
    ((2, 3, 2, {2: 4}), "claim1"),
    ((2, 3, 2, {1: 1, 2: 3}), "coverage"),
    ((2, 3, 2, {3: 1, 2: 1, 0: 2}), "claim2"),
    ((2, 4, 2, {1: 1, 2: 3}), "mino3"),
    ((4, 2, 1, {1: 3, 0: 1}), None),
], ids=["claim1", "coverage", "claim2", "mino3", "none"])
def test_trace_contradiction_via_each_first_failure(args, via):
    # every name that came first over 200,000 sampled profiles; claim3,
    # majo3 and minequality never did, and claim3_factored and
    # final_reduction restate earlier links, so they never name it
    rep = proof_trace(*args)
    assert rep.regime_met
    assert (rep.contradiction, rep.contradiction_via) == (via is not None, via)


def _trace_grid(count, seed):
    """``count`` seeded (q, p, n, profile) requests: q in {2, 3, 4, 5, 7},
    1 <= n <= 3, 1 <= p <= 2n + 2, and a profile over one to four ranks,
    about half of them led by a single member of least rank."""
    rng = random.Random(seed)
    for _ in range(count):
        q, n = rng.choice((2, 3, 4, 5, 7)), rng.randint(1, 3)
        p = rng.randint(1, 2 * n + 2)
        ranks = sorted(rng.sample(range(p + 1), rng.randint(1, min(p + 1, 4))))
        total, lead = q**n, {}
        if len(ranks) > 1 and rng.random() < 0.5:
            lead, total = {ranks.pop(0): 1}, total - 1
        ranks = ranks[:total]
        cuts = sorted(rng.sample(range(1, total), len(ranks) - 1))
        counts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        yield q, p, n, {**lead, **dict(zip(ranks, counts))}


def test_trace_bytes_pinned_on_a_seeded_grid():
    # the digest of 2,000 canonical trace reports, each of the five first
    # failures above among them; a change to any check's sides, verdict,
    # order or encoding moves it
    digest = hashlib.sha256()
    vias = set()
    for q, p, n, profile in _trace_grid(2000, 0):
        rep = proof_trace(q, p, n, profile)
        vias.add(rep.contradiction_via)
        digest.update(dumps(rep.to_dict()).encode())
    assert vias == {"claim1", "coverage", "claim2", "mino3", None}
    assert digest.hexdigest() == (
        "6e65d46b6b966576241eaa7b484038e3197d88b153c880a805f62c2974f417a4")


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


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_chain_shape_at_p_2n_minus_1_fails_coverage(q, n):
    # one member of rank n - 1 and q^n - 1 of ranks n .. p: #N is at most
    # q^n + q^(2n-1) - q^(n-1), below the floor q^n + q^p - 1, so the
    # nprime_floor verdict can be evaluated only when p >= 2n
    p = 2 * n - 1
    count = 0
    for counts in _compositions(q**n - 1, p - n + 1):
        profile = {n - 1: 1, **{n + i: c for i, c in enumerate(counts) if c}}
        assert census._chain_shape(p, n, profile)
        rep = proof_trace(q, p, n, profile)
        coverage = next(c for c in rep.checks if c.name == "coverage")
        assert coverage.holds is False, profile
        assert rep.incidence_exact <= q**n + q**p - q**(n - 1)
        assert rep.contradiction_via == "coverage"
        count += 1
    assert count == math.comb(q**n - 1 + p - n, p - n)


def test_coset_walks_stop_at_the_search_guard(monkeypatch):
    # span{I, E12} over GF(3) and g = E11: a coset of 9 members
    s = OperatorSpace(GF3, 2, 2, [Matrix(GF3, 2, 2, (1, 0, 0, 1)),
                                  Matrix(GF3, 2, 2, (0, 1, 0, 0))])
    t = coset_make(s, Matrix(GF3, 2, 2, (1, 0, 0, 0)))
    h0 = member(t, (0, 0))
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
    # the sum is first refused by bit length: check both sides of q^n
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 17, 257):
        for n in (1, 2, 3, 5):
            assert proof_trace(q, 2 * n, n, {n: q**n}).n == n
            for total in (q**n - 1, q**n + 1, q**(n - 1), q**(n + 1)):
                with pytest.raises(ValueError, match=rf"q\^n = {q}\^{n}$"):
                    proof_trace(q, 2 * n, n, {n: total})
    with pytest.raises(ValueError):
        proof_trace(2, 3, 2, {4: 4})       # rank above p
    with pytest.raises(ValueError):
        proof_trace(2, 3, 2, {})
    with pytest.raises(ValueError):
        proof_trace(2, 3, 2, {2: -4, 1: 8})
    with pytest.raises(ValueError):
        proof_trace(1, 3, 2, {2: 1})
    # True == 1 passes every range check: a bool p or n was echoed as true
    for p, n in ((0, 1), (-1, 1), (3, 0), (3, -2), (3.0, 1), (3, 1.0),
                 (True, 1), (2, True)):
        with pytest.raises(ValueError, match="p and n must be integers >= 1"):
            proof_trace(2, p, n, {0: 1, 1: 1})


def test_trace_is_exact_for_big_values():
    # far beyond 64-bit: q = 4, p = 40
    rep = proof_trace(4, 40, 2, {2: 16})
    claim1 = next(c for c in rep.checks if c.name == "claim1")
    assert claim1.lhs == 4**2 + 4**40 - 1
    assert rep.incidence_exact == 16 * 4**38
    assert rep.contradiction


@pytest.mark.parametrize("q, p_max", [(2, 12899), (3, 6449), (4, 6449),
                                      (5, 4299), (65536, 805)])
def test_trace_refuses_a_p_whose_numbers_could_not_print(q, p_max):
    # (bit length of q - 1) * (p + n) is held to 3 bits per default digit
    profile = {0: 1, 1: q - 1}
    rep = proof_trace(q, p_max, 1, profile)
    assert len(dumps(rep.to_dict())) > 3800
    with pytest.raises(ValueError, match=rf"^p = {p_max + 1} is too large"):
        proof_trace(q, p_max + 1, 1, profile)


def test_trace_json_serializes_big_integers_as_strings():
    rep = proof_trace(4, 40, 2, {2: 16})
    d = rep.to_dict()
    assert d["incidence_exact"] == str(16 * 4**38)
    claim1 = next(c for c in d["checks"] if c["name"] == "claim1")
    assert claim1["lhs"] == str(4**2 + 4**40 - 1)


# -- the coset layer against computations that share nothing with it --

# (q, dim_u, dim_v) with at most 729 candidate witnesses g to enumerate
SHAPES = {2: [(2, 2), (3, 2), (2, 3)], 3: [(2, 2), (3, 2)], 4: [(2, 2)], 5: [(2, 2)]}


@functools.cache
def seeded_spaces(q, count, seed):
    """``count`` seeded spaces over GF(q) with n in {1, 2}, each with its
    closure fully enumerated; at least half are non-reflexive.  Kept per
    argument tuple: the enumeration is the costly part, and several tests
    read the same spaces without changing them."""
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
    others = members(coset)
    h0 = others.pop(h0_coeffs)
    zero = (0,) * coset.space.dim_v
    return sum(1 for x in product(range(coset.q), repeat=coset.p)
               if any(x) and h0.apply(x) == zero
               for h in others.values() if h.apply(x) == zero)


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
            ranks = [(coeffs, mat_rank(h)) for coeffs, h in members(coset).items()]
            profile = Counter(rk for _, rk in ranks)
            r = min(profile)
            h0_coeffs = next(coeffs for coeffs, rk in ranks if rk == r)
            m = sum(c for rk, c in profile.items() if rk <= n)
            total = incidence_count(coset, "brute")
            nprime = nprime_count(coset, member(coset, h0_coeffs))
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


def _pair_coset(f, dim_u, rng):
    """P span{E11 + E22, E12} Q + P E11 Q, for seeded invertible P (2 x 2)
    and Q (dim_u x dim_u): E11 lies in the closure, the upper triangle on
    the first two coordinates, and not in the span."""
    def invertible(size):
        while True:
            m = Matrix(f, size, size, [rng.randrange(f.q) for _ in range(size * size)])
            if mat_rank(m) == size:
                return m

    p_mat, q_mat = invertible(2), invertible(dim_u)
    e11, e22, e12 = (Matrix(f, 2, dim_u, [int((i, j) == cell) for i in range(2)
                                          for j in range(dim_u)])
                     for cell in [(0, 0), (1, 1), (0, 1)])
    s = OperatorSpace(f, dim_u, 2, [p_mat @ m @ q_mat for m in (e11 + e22, e12)])
    return coset_make(s, p_mat @ e11 @ q_mat)


@pytest.mark.parametrize("q", [7, 8, 9])
def test_nprime_matches_brute_force_past_gf5(q):
    f = field_from_order(q)
    rng = random.Random(6500 + q)
    counts, ranks = [], set()
    for dim_u in (2, 3):
        coset = _pair_coset(f, dim_u, rng)
        hs = members(coset)
        chosen = set(rng.sample(sorted(hs), 5))
        # a rank-2 h0 (invertible at dim_u = 2: k = 0) and census's own h0
        chosen.add(next(c for c, h in hs.items() if mat_rank(h) == 2))
        rep = census_report(coset)
        chosen.add(rep.h0_coeffs)
        for coeffs in sorted(chosen):
            nprime = nprime_count(coset, hs[coeffs])
            assert nprime == brute_nprime(coset, coeffs)
            counts.append(nprime)
            ranks.add((dim_u, mat_rank(hs[coeffs])))
        assert rep.nprime_count == brute_nprime(coset, rep.h0_coeffs)
    assert {(2, 2), (2, 1), (3, 2)} <= ranks and any(counts)


def _regular_rep_2(f):
    """The multiplication maps of GF(q^2) on GF(q)^2, as
    ``construct_regular_rep`` builds them for n = 2 (which it cannot past
    q = 256, GF(q^2) being past 2^16, nor over GF(512), not a prime field):
    span{I, C}, C the companion matrix of an irreducible x^2 + x + c.
    Every nonzero member is invertible."""
    c = next(c for c in range(1, f.q)
             if all(f.add(f.add(f.mul(r, r), r), c) for r in range(f.q)))
    return OperatorSpace(f, 2, 2, [Matrix(f, 2, 2, (1, 0, 0, 1)),
                                   Matrix(f, 2, 2, (0, f.neg_t[c], 1, f.neg_t[1]))])


@pytest.mark.parametrize("q", [257, 512])
def test_coset_and_nprime_past_the_table_limit(q):
    # past TABLE_LIMIT, coset_make's closure test and the maps sK of
    # nprime_count run through Matrix.apply on the field's own add and mul
    f = field_from_order(q)
    assert q > TABLE_LIMIT
    e11, e12, e22 = (Matrix(f, 2, 2, [int(i == cell) for i in range(4)])
                     for cell in (0, 1, 3))
    rep = _regular_rep_2(f)
    assert rep.reflexive_closure().n == 4
    for b in rep.basis:
        with pytest.raises(MembershipError) as exc:
            coset_make(rep, b)
        assert exc.value.which == "in_space"
        # span{b} is reflexive: b has no eigenvector, or is the identity
        one = OperatorSpace(f, 2, 2, [b])
        for g in [e11] + [c for c in rep.basis if c != b]:
            with pytest.raises(MembershipError) as exc:
                coset_make(one, g)
            assert exc.value.which == "not_in_closure"
    # span{I, E12}: R(S) is the upper triangle, and S(e1) has dimension 1
    tri = OperatorSpace(f, 2, 2, [e11 + e22, e12])
    assert tri.reflexive_closure().n == 3
    counts = []
    for s, g in ((rep, e11), (tri, e11), (tri, e22)):
        coset = coset_make(s, g)
        assert coset.g == g and mat_rank(g) == 1
        # h = g + s kills a nonzero x of Ker g exactly when s(x) = 0, for
        # q^(n - dim S(x)) members s of S, one of them 0
        kernel = span_set(f, mat_kernel(g), 2) - {(0, 0)}
        expected = sum(q**(s.n - len(s.eval_space(x))) - 1 for x in kernel)
        assert nprime_count(coset, g) == expected
        counts.append(expected)
    assert counts == [0, 0, (q - 1)**2]


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
        p, v, q, n = coset.p, coset.space.dim_v, coset.q, coset.n
        # one rank per member and h0's kernel, then at most one rank of sK
        # per projective class [s] of S, K a basis of Ker h0 (k vectors)
        k = p - census._profile(census._walk(coset), n)[1]
        assert shapes[v, p] == q**n + 1
        assert set(shapes) == {(v, p), (v, k)}
        assert 0 < shapes[v, k] <= (q**n - 1) // (q - 1)
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


# the census shapes (q, dim_v, dim_u, n) of the ``reports`` benchmark's
# seeded non-reflexive spaces; its regular representations over GF(2),
# GF(3) and GF(5) are added below
REPORTS_CENSUS_SHAPES = [(2, 2, 3, 3), (2, 2, 4, 2), (2, 3, 4, 3), (3, 2, 2, 2),
                         (3, 2, 3, 2), (4, 2, 2, 2), (5, 2, 2, 2), (9, 2, 2, 2)]
REPORTS_REGULAR = [(2, n) for n in range(2, 7)] + [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]


def seeded_witness(s, rng):
    """A seeded member of R(S) outside S, or None when S is reflexive."""
    closure = s.reflexive_closure()
    if closure.n == s.n:
        return None
    f, width = s.field, s.dim_u * s.dim_v
    flats = [b.entries for b in closure.basis]
    while True:
        g = Matrix(f, s.dim_v, s.dim_u, combine(
            f, flats, [rng.randrange(f.q) for _ in flats], width))
        if not s.contains(g):
            return g


@pytest.mark.parametrize("q", [2, 3])
def test_nprime_with_fewer_kernel_vectors_than_rows(q):
    # a rank-2 h0 on GF(q)^4 has k = 2 kernel vectors, so each map sK is
    # 3 x 2, and its entries read column by column would make another
    # matrix, of another rank
    f, rng = field_from_order(q), random.Random(7200 + q)
    cosets, checked = 0, 0
    while cosets < 4:
        try:
            s = OperatorSpace(f, 4, 3, [Matrix(f, 3, 4, [rng.randrange(q) for _ in range(12)])
                                        for _ in range(3)])
        except DependentBasisError:
            continue
        g = seeded_witness(s, rng)
        if g is None:
            continue
        coset, cosets = coset_make(s, g), cosets + 1
        for coeffs, h in members(coset).items():
            if mat_rank(h) == 2:
                assert nprime_count(coset, h) == brute_nprime(coset, coeffs)
                checked += 1
    assert checked >= 10


def census_cosets():
    """The cosets that the tests above build, from each of their builders,
    then seeded cosets at every census shape of ``reports``."""
    yield worked_coset()
    yield coset_make(OperatorSpace(GF3, 2, 2, [Matrix(GF3, 2, 2, (1, 0, 0, 1)),
                                              Matrix(GF3, 2, 2, (0, 1, 0, 0))]),
                     Matrix(GF3, 2, 2, (1, 0, 0, 0)))
    yield from random_cosets()
    for q in (2, 3, 4, 5):
        for seed, count in [(6100, 4), (6300, 6)] + [(6400, 6)] * (q < 4):
            for s, closure, own in seeded_spaces(q, count, seed + q):
                for entries in sorted(closure - own):
                    yield coset_make(s, Matrix(s.field, s.dim_v, s.dim_u, entries))
    for q in (7, 8, 9):
        rng = random.Random(6500 + q)
        for dim_u in (2, 3):
            yield _pair_coset(field_from_order(q), dim_u, rng)
    rng = random.Random(6600)
    for q, dim_v, dim_u, n in REPORTS_CENSUS_SHAPES:
        f, built = field_from_order(q), 0
        while built < 5:
            try:
                s = OperatorSpace(f, dim_u, dim_v, [Matrix(
                    f, dim_v, dim_u, [rng.randrange(q) for _ in range(dim_v * dim_u)])
                    for _ in range(n)])
            except DependentBasisError:
                continue
            g = seeded_witness(s, rng)
            if g is not None:
                yield coset_make(s, g)
                built += 1
    for p, n in REPORTS_REGULAR:
        s = construct_regular_rep(field_make(p), n)
        yield coset_make(s, seeded_witness(s, rng))


def test_incidence_counted_by_points():
    # for g in R(S), h = g + s kills x exactly when s(x) = -g(x), a value of
    # S(x): q^(n - dim S(x)) members of T kill each x != 0, alike for its
    # q - 1 multiples, and all q^n kill x = 0.  This counts #N from the
    # points' evaluation spaces, the census from the members' ranks.
    by_points = {}  # S -> #N, the same for every coset of S
    cosets = 0
    for t in census_cosets():
        s, q, n = t.space, t.q, t.n
        if s not in by_points:
            by_points[s] = q**n + (q - 1) * sum(q**(n - len(s.eval_space(x)))
                                                for x in iter_projective(q, t.p))
        assert census_report(t).incidence_count == by_points[s]
        cosets += 1
    assert cosets > 3500  # 3,558: most are the GF(4), GF(5) witnesses of seed 6100
