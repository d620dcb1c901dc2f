"""Kernel equivalence: the table and per-call paths produce identical output."""

import random

import pytest

from reflexff import field_make
from reflexff import kernels
from reflexff.kernels import BACKEND


def random_cases(q, count=300, seed=99):
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        yield rows, cols, [rng.randrange(q) for _ in range(rows * cols)]


@pytest.mark.parametrize("q,f", [
    (2, field_make(2)), (3, field_make(3)), (4, field_make(2, 2)),
    (5, field_make(5)), (9, field_make(3, 2)), (8, field_make(2, 3)),
    (16, field_make(2, 4)), (256, field_make(2, 8)),
])
def test_generic_vs_object_path(q, f):
    for rows, cols, ent in random_cases(q):
        a = list(ent)
        b = list(ent)
        piv_a = kernels._row_reduce_tables(a, rows, cols, q, f.add_t, f.mul_t,
                                           f.neg_t, f.inv_t)
        piv_b = kernels._row_reduce_obj(b, rows, cols, f)
        assert piv_a == piv_b
        assert a == b


def test_backend_reported():
    assert BACKEND == "python"
