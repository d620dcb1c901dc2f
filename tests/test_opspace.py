import random

import pytest

from reflexff import (
    DependentBasisError,
    GuardExceeded,
    Matrix,
    OperatorSpace,
    analyze,
    enumerate_subspaces,
    field_from_order,
    field_make,
    iter_projective,
    mat_rank,
)
from reflexff import kernels
from oracles import brute_closure_set, combine, space_element_set

GF2 = field_make(2)
GF3 = field_make(3)


def span_im():
    ident = Matrix(GF2, 2, 2, (1, 0, 0, 1))
    m = Matrix(GF2, 2, 2, (0, 1, 1, 1))
    return OperatorSpace(GF2, 2, 2, [ident, m])


def span_e11_e12():
    e11 = Matrix(GF2, 2, 2, (1, 0, 0, 0))
    e12 = Matrix(GF2, 2, 2, (0, 1, 0, 0))
    return OperatorSpace(GF2, 2, 2, [e11, e12])


def test_make_and_validation():
    s = span_im()
    assert s.n == 2
    with pytest.raises(DependentBasisError):
        ident = Matrix(GF2, 2, 2, (1, 0, 0, 1))
        OperatorSpace(GF2, 2, 2, [ident, ident])
    empty = OperatorSpace(GF2, 2, 2, [])
    assert empty.n == 0
    with pytest.raises(ValueError):
        OperatorSpace(GF2, 2, 2, [Matrix(GF2, 3, 3, (1, 0, 0, 0, 1, 0, 0, 0, 1))])
    with pytest.raises(ValueError):
        OperatorSpace(GF2, 2, 2, [Matrix(GF3, 2, 2, (1, 0, 0, 1))])
    # True == 1: a bool dim_v met a 1-row basis, and the space file written
    # from it, "dim_v": true, was then refused by load_space
    for dim_u, dim_v in ((2, True), (2, 1.0), (True, 2)):
        with pytest.raises(ValueError, match="dim_u and dim_v must be integers >= 1"):
            OperatorSpace(GF2, dim_u, dim_v, [Matrix(GF2, 1, 2, (1, 0))])


def test_eval_space_examples():
    s = span_im()
    assert s.eval_space((0, 0)) == ()
    assert s.eval_space((1, 0)) == ((1, 0), (0, 1))
    s2 = span_e11_e12()
    assert s2.eval_space((1, 1)) == ((1, 0),)


@pytest.mark.parametrize("bad", [-1, 3, 1.5])
def test_eval_space_rejects_entries_outside_the_field(bad):
    s = OperatorSpace(GF3, 2, 2, [Matrix(GF3, 2, 2, (1, 0, 0, 1))])
    assert s.eval_space((1, 2)) == ((1, 2),)
    with pytest.raises(ValueError, match="outside"):
        s.eval_space((1, bad))


@pytest.mark.parametrize("q", [4, 5, 257])
def test_coefficients_outside_the_field_are_refused(q):
    f = field_from_order(q)
    ident, e12 = Matrix(f, 2, 2, (1, 0, 0, 1)), Matrix(f, 2, 2, (0, 1, 0, 0))
    g = Matrix(f, 2, 2, (1, 0, 0, 0))
    rng = random.Random(q)
    for _ in range(20):
        coeffs = (rng.randrange(q), rng.randrange(q))
        # the member g + c_1 I + c_2 E12, built as the brute incidence count
        # builds each member of a coset
        want = combine(f, [g.entries, ident.entries, e12.entries], (1,) + coeffs, 4)
        assert sum(map(Matrix.scale, (ident, e12), coeffs), g).entries == want
    # a coefficient is a field element like any entry: -1 must not wrap to
    # another element, and q, q + 1 must not read past a table
    for c in (-1, q, q + 1):
        for m in (ident, e12):
            with pytest.raises(ValueError, match="outside"):
                m.scale(c)


def test_eval_space_scaling_invariance():
    f = field_make(5)
    rng = random.Random(3)
    basis = [Matrix(f, 3, 2, [rng.randrange(5) for _ in range(6)]) for _ in range(2)]
    s = OperatorSpace(f, 2, 3, basis)
    for x in [(1, 3), (2, 4), (0, 2)]:
        base = s.eval_space(x)
        for lam in range(1, 5):
            scaled = tuple(f.mul(lam, c) for c in x)
            assert s.eval_space(scaled) == base


def test_closure_examples():
    # the full matrix space is its own closure
    units = [Matrix(GF2, 2, 2, tuple(1 if i == k else 0 for i in range(4)))
             for k in range(4)]
    full = OperatorSpace(GF2, 2, 2, units)
    assert full.reflexive_closure() == full

    s2 = span_e11_e12()
    assert s2.reflexive_closure() == s2
    assert s2.is_reflexive()

    s = span_im()
    closure = s.reflexive_closure()
    assert closure.n == 4
    assert not s.is_reflexive()


def test_closure_against_brute_oracle():
    cases = [span_im(), span_e11_e12()]
    # a few seeded random spaces with dim_u * dim_v <= 9 over GF(2)
    rng = random.Random(11)
    for dim_u, dim_v, n in [(2, 2, 1), (3, 2, 2), (2, 3, 2), (3, 3, 2), (3, 3, 3)]:
        while True:
            basis = [Matrix(GF2, dim_v, dim_u,
                            [rng.randrange(2) for _ in range(dim_u * dim_v)])
                     for _ in range(n)]
            try:
                cases.append(OperatorSpace(GF2, dim_u, dim_v, basis))
                break
            except DependentBasisError:
                continue
    for s in cases:
        expected = brute_closure_set(s)
        got = space_element_set(s.reflexive_closure())
        assert got == expected


def test_closure_contains_s_and_is_idempotent():
    rng = random.Random(29)
    for _ in range(25):
        q = rng.choice([2, 3])
        f = GF2 if q == 2 else GF3
        dim_u, dim_v = rng.randrange(1, 4), rng.randrange(1, 4)
        n = rng.randrange(0, min(3, dim_u * dim_v) + 1)
        basis = []
        while len(basis) < n:
            cand = Matrix(f, dim_v, dim_u,
                          [rng.randrange(q) for _ in range(dim_u * dim_v)])
            try:
                OperatorSpace(f, dim_u, dim_v, basis + [cand])
            except DependentBasisError:
                continue
            basis.append(cand)
        s = OperatorSpace(f, dim_u, dim_v, basis)
        closure = s.reflexive_closure()
        assert all(closure.contains(b) for b in s.basis)
        assert closure.reflexive_closure() == closure
        assert s.is_reflexive() == (closure.n == s.n)


def test_one_dimensional_spaces_are_reflexive():
    rng = random.Random(17)
    for q, f in ((2, GF2), (3, GF3)):
        for _ in range(20):
            dim_u, dim_v = rng.randrange(1, 5), rng.randrange(1, 5)
            ent = [rng.randrange(q) for _ in range(dim_u * dim_v)]
            if not any(ent):
                ent[0] = 1
            s = OperatorSpace(f, dim_u, dim_v, [Matrix(f, dim_v, dim_u, ent)])
            assert s.is_reflexive()


def test_zero_space_is_reflexive_by_convention():
    s = OperatorSpace(GF2, 3, 2, [])
    assert s.is_reflexive()
    assert s.reflexive_closure().n == 0
    with pytest.raises(ValueError):
        s.mrk()


def test_mrk_examples():
    s = span_im()
    value, witness = s.mrk()
    assert value == 2
    assert witness == (0, 1)  # lexicographically first projective coefficient
    e11 = Matrix(GF2, 2, 2, (1, 0, 0, 0))
    assert OperatorSpace(GF2, 2, 2, [e11]).mrk() == (1, (1,))


def test_mrk_regular_gf8():
    from reflexff import construct_regular_rep

    s = construct_regular_rep(GF2, 3)
    value, witness = s.mrk()
    assert value == 3
    # independent invertibility check: no nonzero kernel vector, by enumeration
    from reflexff import iter_vectors

    for coeffs in iter_projective(2, 3):
        m = Matrix(GF2, 3, 3, combine(GF2, [b.entries for b in s.basis], coeffs, 9))
        killed = [x for x in iter_vectors(2, 3)
                  if any(x) and m.apply(x) == (0, 0, 0)]
        assert killed == []


def test_rank_distribution_examples():
    assert span_im().rank_distribution() == {2: 3}
    assert span_e11_e12().rank_distribution() == {1: 3}
    e11_gf3 = Matrix(GF3, 2, 2, (1, 0, 0, 0))
    assert OperatorSpace(GF3, 2, 2, [e11_gf3]).rank_distribution() == {1: 1}
    # total of counts = number of projective classes
    s = span_im()
    assert sum(s.rank_distribution().values()) == (2**s.n - 1) // (2 - 1)


def test_lld_examples(monkeypatch):
    assert span_e11_e12().is_lld()
    assert not span_im().is_lld()
    ident = Matrix(GF2, 2, 2, (1, 0, 0, 1))
    assert not OperatorSpace(GF2, 2, 2, [ident]).is_lld()
    # GF(2)^2 has 3 projective points: the walk refuses a guard of 2
    monkeypatch.setenv("REFLEXFF_GUARD", "2")
    with pytest.raises(GuardExceeded, match="guard 2"):
        span_im().is_lld()
    monkeypatch.setenv("REFLEXFF_GUARD", "3")
    assert not span_im().is_lld()


@pytest.mark.parametrize("q,dim_u,dim_v,n,population", [
    (2, 3, 1, 2, 7), (2, 2, 2, 3, 15), (3, 2, 2, 3, 40), (2, 3, 2, 3, 1395)])
def test_more_members_than_rows_is_lld_without_a_walk(monkeypatch, q, dim_u, dim_v,
                                                      n, population):
    # n > dim_v: dim S(x) <= dim_v < n at every x, so S is LLD, as the walk
    # over the points finds on every space of these slices
    f = field_from_order(q)
    spaces = [OperatorSpace(f, dim_u, dim_v, [Matrix(f, dim_v, dim_u, r) for r in rows])
              for rows in enumerate_subspaces(q, dim_u * dim_v, n)]
    assert len(spaces) == population
    points = list(iter_projective(q, dim_u))
    assert all(len(s.eval_space(x)) < n for s in spaces for x in points)
    # is_lld reduces no S(x), and its guard still comes first
    monkeypatch.setattr(OperatorSpace, "eval_space", None)
    assert all(s.is_lld() for s in spaces)
    monkeypatch.setenv("REFLEXFF_GUARD", str(len(points) - 1))
    with pytest.raises(GuardExceeded, match="local dependence"):
        spaces[0].is_lld()


def extended(s, g):
    """S + span{g} for a map g outside S."""
    return OperatorSpace(s.field, s.dim_u, s.dim_v, s.basis + (g,))


def test_hyperplane_lld_examples():
    s = span_im()
    e11 = Matrix(GF2, 2, 2, (1, 0, 0, 0))
    assert extended(s, e11).is_lld()
    e22 = Matrix(GF2, 2, 2, (0, 0, 0, 1))
    s_e11 = OperatorSpace(GF2, 2, 2, [e11])
    assert not extended(s_e11, e22).is_lld()
    zero_space = OperatorSpace(GF2, 2, 2, [])
    assert not extended(zero_space, Matrix(GF2, 2, 2, (1, 0, 0, 1))).is_lld()


def test_nonreflexive_hyperplane_extension_is_lld():
    s = span_im()
    closure = s.reflexive_closure()
    for g in closure.basis:
        if not s.contains(g):
            assert extended(s, g).is_lld()


def test_closure_witness_extensions_are_lld_on_a_whole_slice():
    # every g in R(S) \ S leaves a member of g + S killing each x, so
    # S + span{g} is LLD.  With n = 2 < dim_v = 3 a dimension count does not
    # force it: a closure that skips a point gives non-LLD extensions here.
    checks = 0
    for rows in enumerate_subspaces(2, 6, 2):
        s = OperatorSpace(GF2, 2, 3, [Matrix(GF2, 3, 2, r) for r in rows])
        closure = s.reflexive_closure()
        for g in closure.basis:
            if not s.contains(g):
                assert extended(s, g).is_lld(), (rows, g.entries)
                checks += 1
    assert checks == 624


def test_reduced_space_identity_case():
    s = span_im()
    reduced, qmap = s.reduced()
    assert reduced == s
    assert qmap == Matrix(GF2, 2, 2, (1, 0, 0, 1))


def test_reduced_space_drops_dead_column():
    # 2x3 matrices with a zero third column: the common kernel is span{e3}
    a = Matrix(GF2, 2, 3, (1, 0, 0, 0, 1, 0))
    b = Matrix(GF2, 2, 3, (0, 1, 0, 1, 1, 0))
    s = OperatorSpace(GF2, 3, 2, [a, b])
    reduced, qmap = s.reduced()
    assert qmap == Matrix(GF2, 2, 3, (1, 0, 0, 0, 1, 0))
    assert reduced.dim_u == 2 and reduced.n == 2
    assert reduced.rank_distribution() == s.rank_distribution()
    assert reduced.mrk()[0] == s.mrk()[0]


def test_reduced_space_e11():
    e11 = Matrix(GF2, 2, 2, (1, 0, 0, 0))
    s = OperatorSpace(GF2, 2, 2, [e11])
    reduced, qmap = s.reduced()
    assert qmap == Matrix(GF2, 1, 2, (1, 0))
    assert reduced.dim_u == 1
    assert [m.entries for m in reduced.basis] == [(1, 0)]
    assert reduced.mrk()[0] == 1


def test_closure_commutes_with_reduction():
    # reducing the closure equals the closure of the reduction
    a = Matrix(GF2, 2, 3, (1, 0, 0, 0, 1, 0))
    b = Matrix(GF2, 2, 3, (0, 1, 0, 1, 1, 0))
    cases = [OperatorSpace(GF2, 3, 2, [a, b])]
    rng = random.Random(41)
    while len(cases) < 6:
        dim_u, dim_v = rng.randrange(2, 4), rng.randrange(1, 4)
        n = rng.randrange(1, min(3, dim_u * dim_v) + 1)
        try:
            basis = [Matrix(GF2, dim_v, dim_u,
                            [rng.randrange(2) for _ in range(dim_u * dim_v)])
                     for _ in range(n)]
            cases.append(OperatorSpace(GF2, dim_u, dim_v, basis))
        except DependentBasisError:
            continue
    for s in cases:
        reduced, qmap = s.reduced()
        # g factors as gbar @ Q: gbar is g's columns at Q's pivot columns
        piv = [next(j for j, e in enumerate(qmap.row(i)) if e)
               for i in range(qmap.rows)]
        closure_then_reduce = []
        for g in s.reflexive_closure().basis:
            gbar = Matrix(s.field, g.rows, len(piv),
                          [g.row(i)[c] for i in range(g.rows) for c in piv])
            assert gbar @ qmap == g
            closure_then_reduce.append(gbar)
        lhs = OperatorSpace(s.field, reduced.dim_u, s.dim_v, closure_then_reduce)
        assert lhs == reduced.reflexive_closure()


def test_reduction_preserves_reflexivity_status():
    rng = random.Random(53)
    done = 0
    while done < 20:
        q = rng.choice([2, 3])
        f = GF2 if q == 2 else GF3
        dim_u, dim_v = rng.randrange(2, 4), rng.randrange(1, 4)
        n = rng.randrange(1, min(3, dim_u * dim_v) + 1)
        try:
            basis = [Matrix(f, dim_v, dim_u,
                            [rng.randrange(q) for _ in range(dim_u * dim_v)])
                     for _ in range(n)]
            s = OperatorSpace(f, dim_u, dim_v, basis)
        except DependentBasisError:
            continue
        reduced, qmap = s.reduced()
        assert reduced.n == s.n
        assert reduced.mrk()[0] == s.mrk()[0]
        assert reduced.is_reflexive() == s.is_reflexive()
        for fk, fbar in zip(s.basis, reduced.basis):
            assert fbar @ qmap == fk
        # Q is in RREF with full row rank
        ent, piv = kernels.row_reduce(qmap.entries, qmap.rows, qmap.cols, f)
        assert tuple(ent) == qmap.entries and len(piv) == qmap.rows
        done += 1


def test_analyze_report_fields():
    rep = analyze(span_im())
    assert rep.reflexive is False
    assert rep.closure_dim == 4
    assert rep.mrk == 2
    assert rep.rank_distribution == {2: 3}
    assert rep.lld is False
    d = rep.to_dict()
    assert d["mrk_witness"] == [0, 1]
    assert d["rank_distribution"] == {"2": 3}

    rep0 = analyze(OperatorSpace(GF2, 2, 2, []))
    assert rep0.mrk is None and rep0.reflexive is True
    assert rep0.to_dict()["mrk"] is None


def test_space_equality_is_span_equality():
    ident = Matrix(GF2, 2, 2, (1, 0, 0, 1))
    m = Matrix(GF2, 2, 2, (0, 1, 1, 1))
    im = Matrix(GF2, 2, 2, (1, 1, 1, 0))  # I + M
    s1 = OperatorSpace(GF2, 2, 2, [ident, m])
    s2 = OperatorSpace(GF2, 2, 2, [im, m])
    assert s1 == s2
    assert hash(s1) == hash(s2)


@pytest.mark.parametrize("space", [
    span_im(),
    span_e11_e12(),
    OperatorSpace(field_make(2, 2), 2, 2, [Matrix(field_make(2, 2), 2, 2, (1, 2, 0, 3))]),
    OperatorSpace(field_make(257), 2, 2, [Matrix(field_make(257), 2, 2, (1, 0, 0, 1)),
                                          Matrix(field_make(257), 2, 2, (0, 1, 0, 0))]),
], ids=["gf2-span-im", "gf2-e11-e12", "gf4-n1", "gf257-n2"])
def test_space_pickle_round_trip(space):
    import pickle

    copy = pickle.loads(pickle.dumps(space))
    assert copy == space and hash(copy) == hash(space)
    assert copy.field is space.field
    assert copy.basis == space.basis
    assert copy.canonical_basis() == space.canonical_basis()
    closure = space.reflexive_closure()
    assert copy.reflexive_closure() == closure
    assert copy.reflexive_closure().canonical_basis() == closure.canonical_basis()
