import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflexff import (
    Matrix,
    field_make,
    iter_projective,
    iter_vectors,
    mat_kernel,
    mat_rank,
    quotient_setup,
    solve,
    vstack,
)
from reflexff import kernels
from oracles import brute_kernel_count, brute_rank

FIELDS = {2: field_make(2), 3: field_make(3), 4: field_make(2, 2), 5: field_make(5)}


def mats(max_rows=4, max_cols=4):
    """Hypothesis strategy for a small random matrix over a small field."""
    def build(q, rows, cols, draw_entries):
        f = FIELDS[q]
        return Matrix(f, rows, cols, [e % q for e in draw_entries[: rows * cols]])

    return st.tuples(
        st.sampled_from(sorted(FIELDS)),
        st.integers(1, max_rows),
        st.integers(1, max_cols),
        st.lists(st.integers(0, 4), min_size=max_rows * max_cols,
                 max_size=max_rows * max_cols),
    ).map(lambda t: build(*t))


def test_rank_examples():
    gf2, gf4 = FIELDS[2], FIELDS[4]
    assert mat_rank(Matrix.identity(gf2, 3)) == 3
    assert mat_rank(Matrix.zero(gf2, 2, 3)) == 0
    # det = 1*3 + 2*2 = 3 + 3 = 0 in characteristic 2
    assert mat_rank(Matrix(gf4, 2, 2, (1, 2, 2, 3))) == 1


def test_kernel_examples():
    gf2, gf3 = FIELDS[2], FIELDS[3]
    assert mat_kernel(Matrix(gf2, 1, 2, (1, 1))) == ((1, 1),)
    assert mat_kernel(Matrix.identity(gf2, 4)) == ()
    m = Matrix(gf3, 2, 2, (1, 2, 2, 1))
    assert mat_kernel(m) == ((1, 1),)
    assert m.apply((1, 1)) == (0, 0)


def test_solve_roundtrip():
    gf3 = FIELDS[3]
    m = Matrix(gf3, 3, 2, (1, 2, 0, 1, 2, 2))
    x = (2, 1)
    b = m.apply(x)
    got = solve(m, b)
    assert got is not None
    assert m.apply(got) == b
    assert solve(m, (1, 0, 0)) is None or m.apply(solve(m, (1, 0, 0))) == (1, 0, 0)


def test_quotient_setup_examples():
    gf2 = FIELDS[2]
    assert quotient_setup(gf2, [], 3) == Matrix.identity(gf2, 3)
    q = quotient_setup(gf2, [(0, 0, 1)], 3)
    assert q == Matrix(gf2, 2, 3, (1, 0, 0, 0, 1, 0))
    full = quotient_setup(gf2, [(1, 0), (0, 1)], 2)
    assert full.rows == 0 and full.cols == 2
    with pytest.raises(ValueError):
        quotient_setup(gf2, [(1, 0), (1, 0)], 2)


@given(mats())
@settings(max_examples=120, deadline=None)
def test_rank_nullity(m):
    assert mat_rank(m) + len(mat_kernel(m)) == m.cols


@given(mats())
@settings(max_examples=120, deadline=None)
def test_kernel_soundness(m):
    zero = (0,) * m.rows
    for v in mat_kernel(m):
        assert m.apply(v) == zero


@given(mats(max_rows=3, max_cols=3))
@settings(max_examples=60, deadline=None)
def test_rank_matches_brute_count(m):
    assert mat_rank(m) == brute_rank(m)
    assert brute_kernel_count(m) == m.field.q ** (m.cols - mat_rank(m))


def test_kernel_count_wider_matrices():
    import random

    rng = random.Random(2468)
    for q, f, cols in [(2, FIELDS[2], 10), (2, FIELDS[2], 8), (4, FIELDS[4], 6),
                       (3, FIELDS[3], 7)]:
        for _ in range(3):
            rows = rng.randrange(1, 5)
            m = Matrix(f, rows, cols,
                       [rng.randrange(q) for _ in range(rows * cols)])
            assert brute_kernel_count(m) == q ** (cols - mat_rank(m))


@given(mats())
@settings(max_examples=80, deadline=None)
def test_rref_idempotent_and_canonical(m):
    r1, piv1 = kernels.row_reduce(m.entries, m.rows, m.cols, m.field)
    r2, piv2 = kernels.row_reduce(r1, m.rows, m.cols, m.field)
    assert r1 == r2 and piv1 == piv2
    assert mat_rank(m) == len(piv1)
    # each pivot column holds a standard basis vector
    for i, pc in enumerate(piv1):
        col = tuple(r1[j * m.cols + pc] for j in range(m.rows))
        assert col == tuple(1 if j == i else 0 for j in range(m.rows))


def test_quotient_kernel_is_exactly_the_subspace():
    for q in (2, 3):
        f = FIELDS[q]
        basis = [(1, 0, 1, 0), (0, 1, 1, 1 % q)]
        qmap = quotient_setup(f, basis, 4)
        assert mat_rank(qmap) == qmap.rows == 2
        from oracles import span_set

        inside = span_set(f, basis, 4)
        zero = (0,) * qmap.rows
        for x in iter_vectors(q, 4):
            assert (qmap.apply(x) == zero) == (x in inside)


def test_matrix_value_semantics():
    gf3 = FIELDS[3]
    a = Matrix(gf3, 2, 2, (1, 2, 0, 1))
    b = Matrix(gf3, 2, 2, (1, 2, 0, 1))
    assert a == b and hash(a) == hash(b)
    c = a + b
    assert a.entries == (1, 2, 0, 1)  # inputs untouched
    assert c.entries == (2, 1, 0, 2)
    assert a - a == Matrix.zero(gf3, 2, 2)
    assert (a @ Matrix.identity(gf3, 2)) == a
    assert a.scale(2).entries == (2, 1, 0, 2)
    with pytest.raises(ValueError):
        Matrix(gf3, 2, 2, (1, 2, 3, 3))  # 3 out of range


def test_entry_validation():
    gf2 = FIELDS[2]
    with pytest.raises(ValueError):
        Matrix(gf2, 1, 2, (0, 2))
    with pytest.raises(ValueError):
        Matrix(gf2, 2, 2, (0, 1, 1))


@pytest.mark.parametrize("bad", [-1, 3, 1.5])
def test_vector_entries_are_checked_like_matrix_entries(bad):
    gf3 = FIELDS[3]
    m = Matrix(gf3, 2, 2, (1, 2, 0, 1))
    assert m.apply((1, 2)) == (2, 2)
    message = re.escape(f"entry {bad!r} outside [0, 3)")
    with pytest.raises(ValueError, match=message):
        m.apply((1, bad))
    with pytest.raises(ValueError, match=message):
        solve(m, (1, bad))
    with pytest.raises(ValueError, match=message):
        Matrix(gf3, 1, 2, (1, bad))


def test_vstack_and_transpose():
    gf2 = FIELDS[2]
    a = Matrix(gf2, 1, 2, (1, 0))
    b = Matrix(gf2, 2, 2, (0, 1, 1, 1))
    s = vstack([a, b])
    assert s.rows == 3 and s.row(2) == (1, 1)
    assert a.transpose().entries == (1, 0)
    assert b.transpose().entries == (0, 1, 1, 1)


def test_projective_representatives():
    reps = list(iter_projective(3, 2))
    assert reps == [(0, 1), (1, 0), (1, 1), (1, 2)]
    assert len(list(iter_projective(2, 4))) == 2**4 - 1
    assert len(list(iter_projective(4, 3))) == (4**3 - 1) // 3
    # each vector is a scalar multiple of exactly one representative
    f = FIELDS[4]
    reps4 = list(iter_projective(4, 2))
    seen = set()
    for rep in reps4:
        for lam in range(1, 4):
            seen.add(tuple(f.mul(lam, c) for c in rep))
    assert len(seen) == 4**2 - 1
