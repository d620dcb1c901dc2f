import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflexff import (
    DependentBasisError,
    Matrix,
    OperatorSpace,
    field_make,
    iter_projective,
    iter_vectors,
    mat_kernel,
    mat_rank,
)
from reflexff import field_from_order, kernels, rref_rows
from reflexff.matrix import null_basis, null_rref
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
    assert mat_rank(Matrix(gf2, 3, 3, (1, 0, 0, 0, 1, 0, 0, 0, 1))) == 3
    assert mat_rank(Matrix.zero(gf2, 2, 3)) == 0
    # det = 1*3 + 2*2 = 3 + 3 = 0 in characteristic 2
    assert mat_rank(Matrix(gf4, 2, 2, (1, 2, 2, 3))) == 1


def test_kernel_examples():
    gf2, gf3 = FIELDS[2], FIELDS[3]
    assert mat_kernel(Matrix(gf2, 1, 2, (1, 1))) == ((1, 1),)
    assert mat_kernel(Matrix(gf2, 4, 4, [int(i % 5 == 0) for i in range(16)])) == ()
    m = Matrix(gf3, 2, 2, (1, 2, 2, 1))
    assert mat_kernel(m) == ((1, 1),)
    assert m.apply((1, 1)) == (0, 0)


def _null_rref_cases(rng, count):
    """``count`` seeded flat matrices, 0-7 rows by 0-8 columns, over table
    fields and four larger ones, at random density, some rows zero, some
    repeated and some a combination of two others."""
    fields = [field_from_order(q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 256,
                                             257, 512, 65521, 65536)]
    for _ in range(count):
        f = rng.choice(fields)
        q, rows, cols = f.q, rng.randrange(8), rng.randrange(9)
        density = rng.random()
        m = [[rng.randrange(1, q) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        for i in range(2, rows):
            kind = rng.randrange(4)
            if kind == 1:
                m[i] = [0] * cols
            elif kind == 2:
                m[i] = list(m[rng.randrange(i)])
            elif kind == 3:
                a, b = rng.randrange(1, q), rng.randrange(q)
                u, w = m[rng.randrange(i)], m[rng.randrange(i)]
                m[i] = [f.add(f.mul(a, s), f.mul(b, t)) for s, t in zip(u, w)]
        yield f, rows, cols, [e for r in m for e in r]


def test_null_rref_matches_reduced_null_basis():
    # one right-pivot reduction against reduce, null basis, reduce again
    for f, rows, cols, ent in _null_rref_cases(random.Random(0), 5000):
        red, piv = kernels.row_reduce(ent, rows, cols, f)
        want, _ = rref_rows(f, null_basis(f, red, piv, cols), width=cols)
        assert null_rref(f, ent, rows, cols) == want, (f, rows, cols, ent)


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
    # reduced()'s Q vanishes exactly where every basis map does: on span(basis)
    # for the map whose rows annihilate it, and on seeded random spaces
    from oracles import span_set

    rng = random.Random(97)
    for q in (2, 3):
        f = FIELDS[q]
        basis = [(1, 0, 1, 0), (0, 1, 1, 1 % q)]
        normals = mat_kernel(Matrix(f, 2, 4, [e for r in basis for e in r]))
        annihilator = Matrix(f, len(normals), 4, [e for r in normals for e in r])
        inside = span_set(f, basis, 4)
        spaces = [(OperatorSpace(f, 4, 2, [annihilator]), inside)]
        while len(spaces) < 12:
            dim_v, n = rng.randrange(1, 3), rng.randrange(1, 3)
            maps = [Matrix(f, dim_v, 4, [rng.randrange(q) for _ in range(4 * dim_v)])
                    for _ in range(n)]
            try:
                s = OperatorSpace(f, 4, dim_v, maps)
            except DependentBasisError:
                continue
            spaces.append((s, None))
        for s, kernel in spaces:
            _, qmap = s.reduced()
            assert mat_rank(qmap) == qmap.rows
            zero = (0,) * qmap.rows
            for x in iter_vectors(q, 4):
                killed = all(not any(m.apply(x)) for m in s.basis)
                if kernel is not None:
                    assert killed == (x in kernel)
                assert (qmap.apply(x) == zero) == killed
        assert spaces[0][0].reduced()[1].rows == 2


@pytest.mark.parametrize("rows, cols", [(True, 2), (2, True), (2.0, 2), (False, 0)])
def test_matrix_refuses_a_dimension_that_is_not_an_int(rows, cols):
    with pytest.raises(ValueError, match=r"matrix dimensions .* are not integers >= 0"):
        Matrix(FIELDS[2], rows, cols, (0,) * int(rows * cols))


def test_matrix_value_semantics():
    gf3 = FIELDS[3]
    a = Matrix(gf3, 2, 2, (1, 2, 0, 1))
    b = Matrix(gf3, 2, 2, (1, 2, 0, 1))
    assert a == b and hash(a) == hash(b)
    c = a + b
    assert a.entries == (1, 2, 0, 1)  # inputs untouched
    assert c.entries == (2, 1, 0, 2)
    assert a - a == Matrix.zero(gf3, 2, 2)
    assert (a @ Matrix(gf3, 2, 2, (1, 0, 0, 1))) == a
    assert a.scale(2).entries == (2, 1, 0, 2)
    with pytest.raises(ValueError):
        Matrix(gf3, 2, 2, (1, 2, 3, 3))  # 3 out of range


def test_entry_validation():
    gf2 = FIELDS[2]
    with pytest.raises(ValueError):
        Matrix(gf2, 1, 2, (0, 2))
    with pytest.raises(ValueError):
        Matrix(gf2, 2, 2, (0, 1, 1))
    # a bool is an int here, stored as one; only a JSON fragment rejects it
    entries = Matrix(gf2, 1, 2, (True, False)).entries
    assert entries == (1, 0) and list(map(type, entries)) == [int, int]


@pytest.mark.parametrize("bad", [-1, 3, 1.5, "1", None])
def test_vector_entries_are_checked_like_matrix_entries(bad):
    gf3 = FIELDS[3]
    m = Matrix(gf3, 2, 2, (1, 2, 0, 1))
    assert m.apply((1, 2)) == (2, 2)
    message = re.escape(f"entry {bad!r} outside [0, 3)")
    with pytest.raises(ValueError, match=message):
        m.apply((1, bad))
    with pytest.raises(ValueError, match=message):
        Matrix(gf3, 1, 2, (1, bad))


@pytest.mark.parametrize("entries, bad", [
    ((1, 4, 2, 7), 4),
    ((1, 2.5, 0, -1), 2.5),
    ((0, 1, -3, "x"), -3),
])
def test_bad_entries_name_the_first_one(entries, bad):
    gf3 = FIELDS[3]
    message = f"entry {bad!r} outside [0, 3)"
    with pytest.raises(ValueError) as exc:
        Matrix(gf3, 2, 2, entries)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        Matrix(gf3, 1, 4, (1, 2, 0, 1)).apply(entries)
    assert str(exc.value) == message


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


@pytest.mark.parametrize("field", [field_make(3), field_make(2, 3, (1, 0, 1, 1)),
                                   field_make(257)], ids=repr)
def test_matrix_pickle_round_trip(field):
    import pickle

    rng = random.Random(field.q)
    m = Matrix(field, 2, 3, [rng.randrange(field.q) for _ in range(6)])
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m and hash(copy) == hash(m)
    assert copy.field is field
    assert copy.entries == m.entries
