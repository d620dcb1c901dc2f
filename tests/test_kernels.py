"""Kernel equivalence: the one elimination loop gives the same output on a
field's own q*q tables and on stand-ins computed by the digit oracles, and
the textbook Gauss-Jordan output on fields on both sides of TABLE_LIMIT; the
echelon insertion keeps the rank and row space that the elimination loop
finds."""

import random
from functools import partial

import pytest

from reflexff import field_from_order, field_make, rref_rows
from reflexff import kernels
from reflexff.field import TABLE_LIMIT, FieldSpec, _Lookup
from reflexff.kernels import BACKEND
from oracles import digit_add, digit_mul, digit_neg


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


def _stripped(f):
    """A fresh copy of ``f`` whose add_t and mul_t are stand-ins computed
    by the digit oracles, not by FieldSpec arithmetic; the copy's own add
    and mul read them too when q <= TABLE_LIMIT."""
    bare = FieldSpec(f.p, f.k, f.modulus)
    bare.add_t = _Lookup(f.q, partial(digit_add, f))
    bare.mul_t = _Lookup(f.q, partial(digit_mul, f))
    return bare


@pytest.mark.parametrize("q,f", [(f.q, f) for f in FIELDS])
def test_generic_vs_object_path(q, f):
    # row_reduce runs once on the cached field, through its q*q tables, and
    # once on a copy whose lookups call the digit oracles, as the lookups of
    # fields with q > 256 call the field's add and mul
    bare = _stripped(f)
    for rows, cols, ent in random_cases(q, 100, seed=q):
        assert kernels.row_reduce(ent, rows, cols, f) == \
            kernels.row_reduce(ent, rows, cols, bare)


def test_backend_reported():
    assert BACKEND == "python"


def _lead_rows(f, rows):
    """The nonzero ``rows`` as ``echelon_insert`` takes them: (lead, the row
    scaled so that its first nonzero entry, at lead, is 1)."""
    out = []
    for row in rows:
        lead = next((j for j, e in enumerate(row) if e), None)
        if lead is not None:
            inv = f.inv(row[lead])
            out.append((lead, tuple(f.mul(inv, e) for e in row)))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 9, 256, 257, 512])
def test_echelon_insert_rank_matches_row_reduce(q):
    # row sets of low rank, with zero rows, repeated rows and combinations
    # of a few base rows, so that many rows reduce to zero, some only after
    # several kept rows
    f = field_from_order(q)
    rng = random.Random(500 + q)
    for _ in range(60):
        cols = rng.randrange(1, 9)
        base = [[rng.randrange(q) for _ in range(cols)]
                for _ in range(rng.randrange(1, 5))]
        rows = []
        for _ in range(rng.randrange(1, 10)):
            kind = rng.random()
            if kind < 0.2:
                rows.append([0] * cols)
            elif kind < 0.4 and rows:
                rows.append(list(rng.choice(rows)))
            else:
                row = [0] * cols
                for b in base:
                    c = rng.randrange(q)
                    row = [f.add(r, f.mul(c, e)) for r, e in zip(row, b)]
                rows.append(row)
        ent = [e for row in rows for e in row]
        rank = len(kernels.row_reduce(ent, len(rows), cols, f)[1])
        want = rref_rows(f, rows, width=cols)
        pairs = _lead_rows(f, rows)
        for field in (f, _stripped(f)):
            kept = {}
            assert kernels.echelon_insert(kept, pairs, cols + 1, field) == rank
            for lead, row in kept.items():
                assert row[lead] == 1 and not any(row[:lead])
            assert rref_rows(f, kept.values(), width=cols) == want
            if rank:
                stop = rng.randrange(1, rank + 1)
                kept = {}
                assert kernels.echelon_insert(kept, pairs, stop, field) == stop
                assert len(kept) == stop


def _textbook(f):
    """(add, mul, neg, inv) of GF(q) without FieldSpec arithmetic: % p on a
    prime field, the digit oracles on an extension field."""
    if f.k == 1:
        p = f.p
        return ((lambda a, b: (a + b) % p), (lambda a, b: a * b % p),
                (lambda a: -a % p), (lambda a: pow(a, p - 2, p)))
    add, mul = partial(digit_add, f), partial(digit_mul, f)

    def inv(a):  # a^(q - 2), by squaring
        out, e = 1, f.q - 2
        while e:
            if e & 1:
                out = mul(out, a)
            a, e = mul(a, a), e >> 1
        return out

    return add, mul, partial(digit_neg, f), inv


def _textbook_rref(arith, rows, cols):
    """Gauss-Jordan as the textbook writes it: at each column, the first
    nonzero row from r down is swapped up, scaled to 1, and subtracted
    from every other row; returns (flat entries, pivot tuple)."""
    add, mul, neg, inv = arith
    a = [list(row) for row in rows]
    pivots, r = [], 0
    for c in range(cols):
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        s = inv(a[r][c])
        a[r] = [mul(s, e) for e in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                m = neg(a[i][c])
                a[i] = [add(e, mul(m, g)) for e, g in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return [e for row in a for e in row], tuple(pivots)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 256, 257, 512, 729, 65521, 65536])
def test_row_reduce_matches_the_textbook(q):
    # seeded row sets with zero, repeated and dependent rows, reduced by
    # row_reduce through the field's q*q lookups (stored tables up to
    # TABLE_LIMIT, the field's add and mul past it) and by _textbook_rref
    # on arithmetic of its own
    f = field_from_order(q)
    assert isinstance(f.mul_t, list) == (q <= TABLE_LIMIT)
    arith = _textbook(f)
    add, mul, _, inv = arith
    rng = random.Random(700 + q)
    for _ in range(16):
        cols = rng.randrange(1, 8)
        base = [[rng.randrange(q) if rng.random() < 0.7 else 0
                 for _ in range(cols)] for _ in range(rng.randrange(1, 4))]
        rows = []
        for _ in range(rng.randrange(0, 7)):
            kind = rng.random()
            if kind < 0.2:
                rows.append([0] * cols)
            elif kind < 0.4 and rows:
                rows.append(list(rng.choice(rows)))
            elif kind < 0.8:
                row = [0] * cols
                for b in base:
                    c = rng.randrange(q)
                    row = [add(e, mul(c, g)) for e, g in zip(row, b)]
                rows.append(row)
            else:
                rows.append([rng.randrange(q) for _ in range(cols)])
        ent = [e for row in rows for e in row]
        want = _textbook_rref(arith, rows, cols)
        assert kernels.row_reduce(ent, len(rows), cols, f) == want
        pairs = []
        for row in rows:
            lead = next((j for j, e in enumerate(row) if e), None)
            if lead is not None:
                s = inv(row[lead])
                pairs.append((lead, [mul(s, e) for e in row]))
        assert kernels.echelon_insert({}, pairs, cols + 1, f) == len(want[1])
