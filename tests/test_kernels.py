"""Kernel equivalence: the table and per-call paths produce identical output."""

import random

import pytest

from reflexff import field_make
from reflexff import kernels
from reflexff.field import FieldSpec
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
    (16, field_make(2, 4)), (256, field_make(2, 8)), (27, field_make(3, 3)),
])
def test_generic_vs_object_path(q, f):
    # the object path runs on a fresh field stripped of its q*q tables, so
    # it uses the arithmetic of q > 256; the cached field keeps its tables
    bare = FieldSpec(f.p, f.k, f.modulus)
    bare.add_t = bare.mul_t = None
    for rows, cols, ent in random_cases(q):
        a = list(ent)
        b = list(ent)
        piv_a = kernels._row_reduce_tables(a, rows, cols, q, f.add_t, f.mul_t,
                                           f.neg_t, f.inv_t)
        piv_b = kernels._row_reduce_obj(b, rows, cols, bare)
        assert piv_a == piv_b
        assert a == b


def test_backend_reported():
    assert BACKEND == "python"
