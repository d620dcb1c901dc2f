"""The scan-native closure and rank walk against the algorithms they
replaced (``reference``) and against an enumeration-only duality oracle."""

import random

import pytest

from reflexff import (
    DependentBasisError,
    Matrix,
    OperatorSpace,
    SearchParams,
    enumerate_subspaces,
    exhaustive_verify,
    field_from_order,
    mat_rank,
    opspace_make,
)
from reflexff.opspace import closure_system
from reflexff.search import _mrk
from oracles import brute_closure_set, duality_closure_set, space_element_set
from reference import reference_closure_basis, reference_rank_scan


def check_space(space):
    """Closure basis, closure dimension and rank scan agree with the
    reference; returns the reference closure dimension and mrk."""
    want = reference_closure_basis(space)
    got = space.reflexive_closure()
    assert got.canonical_basis() == want
    assert got.n == len(want)
    dist, best, witness = reference_rank_scan(space)
    assert space.rank_distribution() == dist
    assert space.mrk() == (best, witness)
    rows = space.canonical_basis()
    width = space.dim_u * space.dim_v
    _, piv = closure_system(space.field, space.dim_u, space.dim_v, rows)
    # early exit or not, the system's nullity is the closure dimension
    assert width - len(piv) == len(want)
    assert _mrk(space.field, space.dim_u, space.dim_v, rows) == best
    return len(want), best


@pytest.mark.parametrize("q,dim_v,dim_u,n,population", [
    (2, 2, 2, 2, 35),
    (2, 2, 3, 2, 651),
    (3, 2, 2, 2, 130),
    (2, 2, 3, 3, 1395),
    (4, 2, 2, 2, 357),
])
def test_slice_matches_reference(q, dim_v, dim_u, n, population):
    f = field_from_order(q)
    nonreflexive = 0
    hist = {}
    for rows in enumerate_subspaces(q, dim_u * dim_v, n):
        space = OperatorSpace(f, dim_u, dim_v,
                              [Matrix(f, dim_v, dim_u, r) for r in rows])
        closure_dim, mrk = check_space(space)
        if closure_dim != n:
            nonreflexive += 1
            hist[mrk] = hist.get(mrk, 0) + 1
    report = exhaustive_verify(SearchParams(field=f, dim_u=dim_u, dim_v=dim_v, n=n))
    assert report.spaces_examined == population
    assert report.nonreflexive_count == nonreflexive
    assert report.mrk_histogram == hist


def _random_space(f, dim_u, dim_v, n, rng):
    while True:
        basis = [Matrix(f, dim_v, dim_u,
                        [rng.randrange(f.q) for _ in range(dim_u * dim_v)])
                 for _ in range(n)]
        try:
            return opspace_make(f, dim_u, dim_v, basis)
        except DependentBasisError:
            continue


def _invertible(f, size, rng):
    while True:
        m = Matrix(f, size, size, [rng.randrange(f.q) for _ in range(size * size)])
        if mat_rank(m) == size:
            return m


def _nonreflexive_pair(f, rng):
    """P span{I, E12} Q for random invertible P, Q: non-reflexive, closure
    dimension 3 (P times the upper triangle times Q), mrk 1."""
    ident, e12 = Matrix.identity(f, 2), Matrix(f, 2, 2, (0, 1, 0, 0))
    p_mat, q_mat = _invertible(f, 2, rng), _invertible(f, 2, rng)
    return opspace_make(f, 2, 2, [p_mat @ m @ q_mat for m in (ident, e12)])


@pytest.mark.parametrize("q", [256, 257, 512])
def test_large_fields_match_reference(q):
    f = field_from_order(q)
    rng = random.Random(q)
    spaces = [_random_space(f, 2, dim_v, n, rng)
              for dim_v, n in [(2, 1), (2, 2), (3, 2)]]
    spaces.append(_nonreflexive_pair(f, rng))
    assert [check_space(s) for s in spaces][-1] == (3, 1)


@pytest.mark.parametrize("q,shapes", [
    (2, [(2, 2, 1), (2, 2, 2), (3, 2, 2), (2, 3, 3)]),
    (3, [(2, 2, 1), (2, 2, 2), (2, 3, 2)]),
    (4, [(2, 2, 1), (2, 2, 2)]),
    (5, [(2, 2, 2)]),
])
def test_duality_oracle(q, shapes):
    f = field_from_order(q)
    rng = random.Random(100 + q)
    spaces = [_random_space(f, dim_u, dim_v, n, rng)
              for dim_u, dim_v, n in shapes for _ in range(3)]
    spaces.append(_nonreflexive_pair(f, rng))
    closure_sizes = set()
    for space in spaces:
        dual = duality_closure_set(space)
        assert dual == brute_closure_set(space)
        assert dual == space_element_set(space.reflexive_closure())
        closure_sizes.add(len(dual) // q**space.n)
    assert closure_sizes > {1}  # reflexive and non-reflexive spaces both seen
