"""Kernel equivalence: the table and table-free arithmetic of the one
elimination loop produce identical output."""

import random

import pytest

from reflexff import field_from_order, field_make
from reflexff import kernels
from reflexff.field import FieldSpec
from reflexff.kernels import BACKEND


def random_cases(q, count, seed=99):
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        # sparse matrices too, for zero columns and pivots already equal to 1
        density = rng.random()
        yield rows, cols, [rng.randrange(q) if rng.random() < density else 0
                           for _ in range(rows * cols)]


def _is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


# every field with full q*q tables, plus the explicit moduli of test_field.py
# (x^2 + x + 2 over GF(3), and x^4 + x^3 + x^2 + x + 1, where x is not a
# generator); the first nine come first so that their test ids stay put
_FIRST = [2, 3, 4, 5, 9, 8, 16, 256, 27]
FIELDS = ([field_from_order(q) for q in _FIRST]
          + [field_from_order(q) for q in range(2, 257)
             if _is_prime_power(q) and q not in _FIRST]
          + [field_make(3, 2, (2, 1, 1)), field_make(2, 4, (1, 1, 1, 1, 1))])


def test_fields_cover_every_table_field():
    assert len({f.q for f in FIELDS}) == 70 and len(set(FIELDS)) == 72


@pytest.mark.parametrize("q,f", [(f.q, f) for f in FIELDS])
def test_generic_vs_object_path(q, f):
    # row_reduce runs once on the cached field, through its q*q tables, and
    # once on a fresh copy stripped of them, on the exp/log/Zech lists that
    # fields with q > 256 use
    bare = FieldSpec(f.p, f.k, f.modulus)
    bare.add_t = bare.mul_t = None
    for rows, cols, ent in random_cases(q, 100, seed=q):
        assert kernels.row_reduce(ent, rows, cols, f) == \
            kernels.row_reduce(ent, rows, cols, bare)


def test_backend_reported():
    assert BACKEND == "python"
