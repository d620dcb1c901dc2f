"""The scan-native closure and rank walk against the algorithms they
replaced (``reference``) and against an enumeration-only duality oracle,
and the edges of the per-shape memos of the closure scan and the rank
walk."""

import hashlib
import itertools
import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reflexff import (
    DependentBasisError,
    GuardExceeded,
    Matrix,
    OperatorSpace,
    SearchParams,
    analyze,
    enumerate_subspaces,
    exhaustive_verify,
    field_from_order,
    field_make,
    mat_rank,
    rref_rows,
)
from reflexff import kernels, opspace, search
from reflexff.field import FieldSpec, _Lookup
from reflexff.matrix import iter_projective, iter_vectors, null_basis, null_rref
from reflexff.opspace import closure_system
from reflexff.search import _mrk
from oracles import (
    brute_closure_set, combine, digit_add, digit_mul, duality_closure_set,
    space_element_set)
from reference import reference_closure_basis, reference_rank_scan


def check_space(space):
    """Closure basis, closure dimension and rank scan agree with the
    reference, and a 2x2 rank scan with the rank walk too; returns the
    reference closure dimension and mrk."""
    want = reference_closure_basis(space)
    got = space.reflexive_closure()
    assert got.canonical_basis() == want
    assert got.n == len(want)
    dist, best, witness = reference_rank_scan(space)
    assert space.rank_distribution() == dist
    assert space.mrk() == (best, witness)
    rows = space.canonical_basis()
    width = space.dim_u * space.dim_v
    kept = closure_system(space.field, space.dim_u, space.dim_v, rows)
    # early exit or not, the system's nullity is the closure dimension
    assert width - len(kept) == len(want)
    assert _mrk(space.field, space.dim_u, space.dim_v, rows) == best
    if space.dim_u == space.dim_v == 2 and space.n:
        check_determinant_scan(space)
    return len(want), best


@pytest.mark.parametrize("q,dim_v,dim_u,n,population", [
    (2, 2, 2, 2, 35),
    (2, 2, 3, 2, 651),
    (3, 2, 2, 2, 130),
    (2, 2, 3, 3, 1395),
    (4, 2, 2, 2, 357),
    # dim_v = 1: the shape memo cuts each map into one row
    (2, 1, 3, 2, 7),
    (3, 1, 2, 1, 4),
    # dim_v = 3: without the memo every point gets images, no determinant
    # filter
    (2, 3, 2, 2, 651),
])
def test_slice_matches_reference(q, dim_v, dim_u, n, population, monkeypatch):
    f = field_from_order(q)
    width = dim_u * dim_v
    nonreflexive = 0
    hist = {}
    slice_ = list(enumerate_subspaces(q, width, n))
    for rows in slice_:
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

    def closures():
        for rows in slice_:
            kept = closure_system(f, dim_u, dim_v, rows)
            yield null_rref(f, [e for row in kept.values() for e in row],
                            len(kept), width)

    # the memo-free path, which no shape this small takes unforced, reads
    # the same closure of every space as the memo
    with_memo = list(closures())
    monkeypatch.setattr(opspace, "_closure_memo", lambda *shape: None)
    assert list(closures()) == with_memo


def _random_space(f, dim_u, dim_v, n, rng):
    while True:
        basis = [Matrix(f, dim_v, dim_u,
                        [rng.randrange(f.q) for _ in range(dim_u * dim_v)])
                 for _ in range(n)]
        try:
            return OperatorSpace(f, dim_u, dim_v, basis)
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
    ident, e12 = Matrix(f, 2, 2, (1, 0, 0, 1)), Matrix(f, 2, 2, (0, 1, 0, 0))
    p_mat, q_mat = _invertible(f, 2, rng), _invertible(f, 2, rng)
    return OperatorSpace(f, 2, 2, [p_mat @ m @ q_mat for m in (ident, e12)])


@pytest.mark.parametrize("q", [256, 257, 512, 729])
def test_large_fields_match_reference(q):
    f = field_from_order(q)
    rng = random.Random(q)
    spaces = [_random_space(f, 2, dim_v, n, rng)
              for dim_v, n in [(2, 1), (2, 2), (3, 2)]]
    spaces.append(_nonreflexive_pair(f, rng))
    assert [check_space(s) for s in spaces][-1] == (3, 1)


def check_determinant_scan(space):
    """A 2x2 space's rank scan (by its determinant form) against the
    memoized rank walk it replaced and against ``reference_rank_scan``:
    the distribution in its insertion order, mrk and the witness."""
    f, n = space.field, space.n
    dist, best, witness = space._rank_scan()
    walked, least, (first, _, _) = opspace.walk_profile(opspace.rank_walk(
        f, 2, 2, [m.entries for m in space.basis], opspace._projective[f.q, n]))
    ref_dist, ref_best, ref_witness = reference_rank_scan(space)
    assert list(dist.items()) == list(walked.items()) == list(ref_dist.items())
    assert best == least == ref_best
    assert witness == first == ref_witness


# (q, modulus) of every field up to GF(9) with both GF(8) moduli
SMALL_FIELDS = [*[(q, None) for q in (2, 3, 4, 5)],
                (8, (1, 1, 0, 1)), (8, (1, 0, 1, 1)), (9, None)]
SMALL_FIELD_IDS = ["gf2", "gf3", "gf4", "gf5", "gf8-x3+x+1", "gf8-x3+x2+1", "gf9"]


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=SMALL_FIELD_IDS)
def test_determinant_rank_scan_matches_the_walk_on_whole_slices(field):
    q, modulus = field
    f = field_from_order(q) if modulus is None else field_make(2, 3, modulus)
    rng = random.Random(q)
    ranks = set()
    for n in (1, 2, 3):
        for rows in enumerate_subspaces(q, 4, n):
            space = OperatorSpace(f, 2, 2, [Matrix(f, 2, 2, r) for r in rows])
            check_determinant_scan(space)
            ranks |= set(space.rank_distribution())
        # and random bases, out of RREF
        for _ in range(20):
            check_determinant_scan(_random_space(f, 2, 2, n, rng))
    assert ranks == {1, 2}


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


def check_descent(space, ext):
    """S read over the extension ``ext`` of its prime field: the RREF basis
    of R(S (x) K) has its entries in GF(p) and lies in R(S).  Returns
    whether S stays non-reflexive over ``ext``."""
    f, p, v = space.field, space.dim_u, space.dim_v
    lifted = OperatorSpace(ext, p, v, [Matrix(ext, v, p, b.entries) for b in space.basis])
    closure, own = lifted.reflexive_closure(), space.reflexive_closure()
    assert closure.n <= own.n
    for b in closure.basis:
        assert max(b.entries) < f.p, b.entries
        assert own.contains(Matrix(f, v, p, b.entries))
    return closure.n > space.n


def test_closure_descends_from_extension_fields():
    # GF(p) is the encodings 0 ... p - 1 of K = GF(p^k), so a space over
    # GF(p) reads over K unchanged.  Frobenius maps S (x) K onto itself, so
    # R(S (x) K) too, and the RREF basis of a Frobenius-stable space is
    # fixed by it: its entries lie in GF(p), and it spans part of R(S).
    gf2, counts = field_make(2), Counter()
    for rows in enumerate_subspaces(2, 6, 2):
        s = OperatorSpace(gf2, 3, 2, [Matrix(gf2, 2, 3, r) for r in rows])
        counts[2] += not s.is_reflexive()
        for k in (2, 3):
            counts[2**k] += check_descent(s, field_make(2, k))
    # non-reflexive spaces of the 651: fewer stay so over an extension
    assert counts == {2: 245, 4: 63, 8: 77}
    # seeded GF(3) spaces of 2x3 maps with n = 2, drawn until 30 are
    # non-reflexive (about 6% of the slice); 22 of those stay so over GF(9)
    gf3, gf9 = field_make(3), field_make(3, 2)
    rng = random.Random(7100)
    counts = Counter()
    while counts[3] < 30:
        s = _random_space(gf3, 3, 2, 2, rng)
        counts[3] += not s.is_reflexive()
        counts[9] += check_descent(s, gf9)
    assert counts == {3: 30, 9: 22}


def system_closure(space):
    """RREF basis of the null space of ``closure_system``'s rows, taken as
    they are: unlike ``reflexive_closure`` this does not return S itself
    when the rank reaches the early-exit target.  Checks on the way that
    the rows form a forward echelon under their lead columns."""
    f, width = space.field, space.dim_u * space.dim_v
    kept = closure_system(f, space.dim_u, space.dim_v, space.canonical_basis())
    for lead, row in kept.items():
        assert len(row) == width and row[lead] == 1 and not any(row[:lead])
    ent, piv = kernels.row_reduce([e for row in kept.values() for e in row],
                                  len(kept), width, f)
    assert len(piv) == len(kept)
    rows, _ = rref_rows(f, null_basis(f, ent, piv, width), width=width)
    return rows


@pytest.mark.parametrize("q", [2, 3, 4, 257])
@pytest.mark.parametrize("dim_u,dim_v", [(2, 2), (2, 3)])
def test_zero_space_is_reflexive(q, dim_u, dim_v):
    # S(x) = 0 at every x, so every point contributes all dim_v conditions
    f = field_from_order(q)
    space = OperatorSpace(f, dim_u, dim_v, [])
    assert reference_closure_basis(space) == ()
    assert system_closure(space) == ()
    assert space.reflexive_closure().canonical_basis() == ()


@pytest.mark.parametrize("q,entries", [(3, (2, 1, 1, 1)), (257, (3, 5, 7, 11))])
def test_reflexive_closure_returns_the_canonical_basis(q, entries):
    # one invertible map spans a reflexive space; its entries are not in
    # RREF, and R(S) = S must still come back RREF-canonical, as the
    # ``closure`` command writes it
    f = field_from_order(q)
    space = OperatorSpace(f, 2, 2, [Matrix(f, 2, 2, entries)])
    canon = space.canonical_basis()
    assert canon != (entries,)
    closure = space.reflexive_closure()
    assert closure.n == 1
    assert tuple(m.entries for m in closure.basis) == canon


@pytest.mark.parametrize("q", [256, 257, 512])
def test_large_fields_store_no_memo(q):
    f = field_from_order(q)
    rng = random.Random(7 * q)
    for n in (1, 2):
        space = _random_space(f, 2, 2, n, rng)
        assert system_closure(space) == reference_closure_basis(space)
    assert not [key for key in opspace._closure_memos if key[0] == f]


def _embedded_pair(f, dim_u, dim_v, rng):
    """P span{E11 + E22, E12} Q for random invertible P and Q: the pair of
    ``_nonreflexive_pair`` on the first two coordinates, so at every shape
    its closure has dimension 3 (the 2x2 upper triangle, moved by P, Q)."""
    basis = [Matrix(f, dim_v, dim_u, [int((i, j) in cells) for i in range(dim_v)
                                      for j in range(dim_u)])
             for cells in ({(0, 0), (1, 1)}, {(0, 1)})]
    p_mat, q_mat = _invertible(f, dim_v, rng), _invertible(f, dim_u, rng)
    return OperatorSpace(f, dim_u, dim_v, [p_mat @ m @ q_mat for m in basis])


def check_insertion(space, want):
    """The echelon closure, read whole and through ``reflexive_closure``,
    is the reference closure ``want``."""
    assert system_closure(space) == want
    assert space.reflexive_closure().canonical_basis() == want


def check_echelon_reads(space, rng):
    """``analyze``'s closure_dim and reflexive, ``is_reflexive`` and the
    echelon membership test against the built ``reflexive_closure``: on
    each map of R(S) and of S, on random maps, and on one map per kept row
    that breaks that row's condition alone."""
    f, width = space.field, space.dim_u * space.dim_v
    report = analyze(space)
    closure = space.reflexive_closure()
    assert report.closure_dim == closure.n
    assert report.reflexive == space.is_reflexive() == (closure.n == space.n)
    maps = list(closure.basis) + list(space.basis) + [
        Matrix(f, space.dim_v, space.dim_u, [rng.randrange(f.q) for _ in range(width)])
        for _ in range(4)]
    rows = list(space._closure_echelon().values())
    for i in range(len(rows)):
        others = [e for row in rows[:i] + rows[i + 1:] for e in row]
        g = next(g for g in null_rref(f, others, len(rows) - 1, width)
                 if not closure.contains(Matrix(f, space.dim_v, space.dim_u, g)))
        maps.append(Matrix(f, space.dim_v, space.dim_u, g))
    for g in maps:
        assert space._closure_holds(g.entries) == closure.contains(g)


@pytest.mark.parametrize("q,dim_u,dim_v,ns", [
    (2, 3, 2, (1, 2, 3, 4)), (2, 2, 3, (1, 2, 3, 4)), (3, 2, 2, (1, 2, 3)),
], ids=["gf2-3x2", "gf2-2x3", "gf3-2x2"])
def test_echelon_reads_match_the_closure_on_whole_slices(q, dim_u, dim_v, ns):
    f = field_from_order(q)
    rng = random.Random(40 + q)
    for n in ns:
        for rows in enumerate_subspaces(q, dim_u * dim_v, n):
            check_echelon_reads(OperatorSpace(
                f, dim_u, dim_v, [Matrix(f, dim_v, dim_u, r) for r in rows]), rng)


@pytest.mark.parametrize("q", [257, 512])
def test_echelon_reads_match_the_closure_without_a_memo(q):
    f = field_from_order(q)
    rng = random.Random(41 * q)
    for dim_v, n in [(2, 1), (2, 2), (3, 2)]:
        for _ in range(3):
            check_echelon_reads(_random_space(f, 2, dim_v, n, rng), rng)
        check_echelon_reads(_embedded_pair(f, 2, dim_v, rng), rng)
    check_echelon_reads(_nonreflexive_pair(f, rng), rng)


def test_echelon_reads_match_the_closure_on_gf3_without_a_memo(monkeypatch):
    monkeypatch.setattr(opspace, "_closure_memos", {})
    memo = opspace._closure_memo
    monkeypatch.setattr(opspace, "_closure_memo", lambda *a: None)
    f = field_from_order(3)
    rng = random.Random(43)
    for dim_u, dim_v, n in [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]:
        for _ in range(12):
            check_echelon_reads(_random_space(f, dim_u, dim_v, n, rng), rng)
        check_echelon_reads(_embedded_pair(f, dim_u, dim_v, rng), rng)
    assert not opspace._closure_memos
    monkeypatch.setattr(opspace, "_closure_memo", memo)
    check_echelon_reads(_embedded_pair(f, 2, 2, rng), rng)
    assert set(opspace._closure_memos) == {(f, 2, 2)}


@pytest.mark.parametrize("q,dim_u,dim_v,n,count", [
    (2, 4, 4, 3, 8), (2, 5, 5, 3, 3), (2, 6, 6, 4, 2),
    (3, 4, 4, 3, 3), (4, 4, 4, 3, 2),
    (257, 2, 2, 2, 3), (257, 2, 3, 2, 3), (512, 2, 2, 1, 3), (512, 2, 3, 3, 3),
])
def test_insertion_matches_reference_on_random_spaces(q, dim_u, dim_v, n, count):
    # the memo path (q <= 4) and the memo-free path past the table limit
    # (GF(257), GF(512)), on random spaces, reflexive at the larger shapes,
    # and on an embedded non-reflexive pair, which walks every point
    f = field_from_order(q)
    rng = random.Random(1000 * q + 10 * dim_u + dim_v)
    spaces = [_random_space(f, dim_u, dim_v, n, rng) for _ in range(count)]
    spaces.append(_embedded_pair(f, dim_u, dim_v, rng))
    for space in spaces:
        check_insertion(space, reference_closure_basis(space))
    assert spaces[-1].reflexive_closure().n == 3


@pytest.mark.parametrize("q,shapes", [
    (4, [(2, 2, 1), (2, 2, 2), (3, 2, 2)]),
    (9, [(2, 2, 2), (2, 3, 2), (2, 3, 4)]),
])
def test_insertion_table_free_arm_on_the_memo_path(monkeypatch, q, shapes):
    # a copy of GF(q) whose q*q lookups are stand-ins computed by the digit
    # oracles, as the lookups of fields past TABLE_LIMIT are computed by the
    # field's add and mul, runs the insertion on the memo path, with memos
    # built through it; the reference and the duality oracle run on the
    # tabled field
    monkeypatch.setattr(opspace, "_closure_memos", {})
    f = field_from_order(q)
    bare = FieldSpec(f.p, f.k, f.modulus)
    bare.add_t = _Lookup(q, partial(digit_add, f))
    bare.mul_t = _Lookup(q, partial(digit_mul, f))
    rng = random.Random(77 * q)
    for dim_u, dim_v, n in shapes:
        spaces = [_random_space(bare, dim_u, dim_v, n, rng) for _ in range(4)]
        spaces.append(_embedded_pair(bare, dim_u, dim_v, rng))
        for space in spaces:
            tabled = OperatorSpace(f, dim_u, dim_v, [
                Matrix(f, dim_v, dim_u, m.entries) for m in space.basis])
            want = reference_closure_basis(tabled)
            check_insertion(space, want)
            if q ** (dim_u * dim_v) <= 6561:
                assert duality_closure_set(tabled) == space_element_set(
                    space.reflexive_closure())
    assert {key[1:] for key in opspace._closure_memos} == {s[:2] for s in shapes}


def test_memo_stays_within_its_bound_on_the_gf3_slice():
    f = field_from_order(3)
    report = exhaustive_verify(SearchParams(field=f, dim_u=3, dim_v=2, n=2))
    assert report.spaces_examined == 11011
    values, known, cut = opspace._closure_memos[(f, 3, 2)]
    assert len(known) == 13
    assert cut(tuple(range(6))) == ((0, 1, 2), (3, 4, 5))
    assert len(values) <= 3**3
    # each point's condition memo counts the values of its image tuples
    # and condition rows against its share of the bound
    share = opspace._MEMO_LIMIT // len(known)
    for seen in known:
        held = sum(len(images) + sum(len(row) for _, row in cond)
                   for images, cond in seen.items())
        assert held + seen.room == share
    stored = (sum(len(vals) for vals in values.values())
              + sum(share - seen.room for seen in known))
    assert 0 < stored <= opspace._MEMO_LIMIT


def test_memo_stream_stops_at_the_target(monkeypatch):
    # the memo path streams its points' conditions lazily into the
    # insertion: once the echelon reaches its target at point i, no later
    # point's condition memo is looked up, so each stays empty
    monkeypatch.setattr(opspace, "_closure_memos", {})
    f = field_from_order(3)
    rows = ((1, 2, 1, 2, 1, 1),)  # a reflexive GF(3) 3x2 space, n = 1
    target = 6 - len(rows)
    kept = {}
    for stop, x in enumerate(iter_projective(3, 3)):
        images = tuple(e for fk in rows for e in Matrix(f, 2, 3, fk).apply(x))
        cond, _ = opspace._point_conditions(f, x, 2, images)
        if kernels.echelon_insert(kept, cond, target, f) == target:
            break
    assert len(closure_system(f, 3, 2, rows)) == target
    known = opspace._closure_memos[(f, 3, 2)][1]
    assert (stop, len(known)) == (5, 13)
    assert all(known[:stop + 1])
    assert not any(known[stop + 1:])


def test_memo_keys_separate_fields(monkeypatch):
    monkeypatch.setattr(opspace, "_closure_memos", {})
    gf8_a = field_make(2, 3, (1, 1, 0, 1))  # x^3 + x + 1
    gf8_b = field_make(2, 3, (1, 0, 1, 1))  # x^3 + x^2 + 1
    gf3 = field_from_order(3)
    rng = random.Random(8)
    cases = []
    for _ in range(6):
        # already RREF, so both fields key the same rows, whose values differ
        entries = [1] + [rng.randrange(2, 8) for _ in range(3)]
        for f in (gf8_a, gf8_b):
            cases.append(OperatorSpace(f, 2, 2, [Matrix(f, 2, 2, entries)]))
        for dim_u, dim_v in ((3, 2), (2, 3)):
            cases.append(_random_space(gf3, dim_u, dim_v, 2, rng))
    for space in cases:
        assert system_closure(space) == reference_closure_basis(space)
    assert set(opspace._closure_memos) == {
        (gf8_a, 2, 2), (gf8_b, 2, 2), (gf3, 3, 2), (gf3, 2, 3)}


def test_full_condition_memos_only_serve_lookups(monkeypatch):
    monkeypatch.setattr(opspace, "_closure_memos", {})
    # GF(3) 3x2: 13 points whose 27 row values (351) still fit; each
    # point's condition memo gets 400 // 13 = 30 values: a few n = 2
    # entries of 4 image values plus 0, 6 or 12 condition values
    monkeypatch.setattr(opspace, "_MEMO_LIMIT", 400)
    f = field_from_order(3)
    rng = random.Random(11)
    spaces = [_random_space(f, 3, 2, 2, rng) for _ in range(120)]
    for space in spaces[:60]:
        assert system_closure(space) == reference_closure_basis(space)
    known = opspace._closure_memos[(f, 3, 2)][1]
    assert all(seen.room < 4 for seen in known)  # no n = 2 entry fits
    full = [dict(seen) for seen in known]
    for space in spaces[60:]:
        want = reference_closure_basis(space)
        assert system_closure(space) == want
        assert space.reflexive_closure().canonical_basis() == want
    assert [dict(seen) for seen in known] == full
    assert {s.reflexive_closure().n > s.n for s in spaces} == {False, True}


@pytest.mark.parametrize("q,dim_u,dim_v,n", [(4, 3, 2, 2), (3, 3, 2, 3), (2, 3, 3, 3)])
def test_regime_shapes_get_a_memo(monkeypatch, q, dim_u, dim_v, n):
    # shapes of the regime |K| <= n + 2 that the row-value rule admits
    monkeypatch.setattr(opspace, "_closure_memos", {})
    f = field_from_order(q)
    rng = random.Random(12 * q + n)
    for _ in range(30):
        space = _random_space(f, dim_u, dim_v, n, rng)
        assert system_closure(space) == reference_closure_basis(space)
    assert set(opspace._closure_memos) == {(f, dim_u, dim_v)}
    assert any(opspace._closure_memos[(f, dim_u, dim_v)][1])


def test_closure_memo_keys_hold_no_n(monkeypatch):
    # one GF(2) 3x2 memo serves n = 1, 2, 3: the image tuple's length
    # separates them
    monkeypatch.setattr(opspace, "_closure_memos", {})
    f = field_from_order(2)
    rng = random.Random(13)
    for _ in range(15):
        for n in (1, 2, 3):
            space = _random_space(f, 3, 2, n, rng)
            assert system_closure(space) == reference_closure_basis(space)
    assert set(opspace._closure_memos) == {(f, 3, 2)}
    known = opspace._closure_memos[(f, 3, 2)][1]
    assert {len(images) for seen in known for images in seen} == {2, 4, 6}


def test_rank_memo_keys_separate_fields(monkeypatch):
    monkeypatch.setattr(opspace, "_rank_memos", {})
    gf8_a = field_make(2, 3, (1, 1, 0, 1))  # x^3 + x + 1
    gf8_b = field_make(2, 3, (1, 0, 1, 1))  # x^3 + x^2 + 1
    # 2x2 entry tuples of rank 1 in one field and rank 2 in the other
    split = [e for e in itertools.product(range(1, 8), repeat=4)
             if (gf8_a.mul(e[0], e[3]) == gf8_a.mul(e[1], e[2]))
             != (gf8_b.mul(e[0], e[3]) == gf8_b.mul(e[1], e[2]))]
    rng = random.Random(9)
    sample = rng.sample(split, 8)
    for entries in sample:
        other = [rng.randrange(8) for _ in range(4)]
        for f in (gf8_a, gf8_b):
            for basis in ([entries], [entries, other]):
                try:
                    space = OperatorSpace(f, 2, 2, [Matrix(f, 2, 2, b) for b in basis])
                except DependentBasisError:
                    continue
                dist, best, witness = reference_rank_scan(space)
                assert space.rank_distribution() == dist
                assert space.mrk() == (best, witness)
                # a 2x2 rank scan reads determinants, not the memo; the
                # coset entries + S walk ranks entries itself (c = 0)
                flats = [m.entries for m in space.basis]
                for _, member, rank in opspace.rank_walk(
                        f, 2, 2, flats, iter_vectors(8, len(flats)), entries):
                    assert rank == mat_rank(Matrix(f, 2, 2, member))
    memos = opspace._rank_memos
    assert set(memos) == {(gf8_a, 2, 2), (gf8_b, 2, 2)}
    ranks_a, ranks_b = memos[(gf8_a, 2, 2)], memos[(gf8_b, 2, 2)]
    assert all(e in ranks_a and e in ranks_b and ranks_a[e] != ranks_b[e]
               for e in sample)


def test_rank_memo_stops_taking_members_at_its_bound(monkeypatch):
    monkeypatch.setattr(opspace, "_rank_memos", {})
    monkeypatch.setattr(opspace, "_MEMO_LIMIT", 40)
    f = field_from_order(3)
    rng = random.Random(10)
    # 20 spaces of 4 projective members each: far more than 40 / 4 members
    for _ in range(20):
        space = _random_space(f, 2, 2, 2, rng)
        dist, best, witness = reference_rank_scan(space)
        assert space.rank_distribution() == dist
        assert space.mrk() == (best, witness)
        assert _mrk(f, 2, 2, space.canonical_basis()) == best
    ranks = opspace._rank_memos[(f, 2, 2)]
    assert len(ranks) * 4 == 40
    assert all(mat_rank(Matrix(f, 2, 2, e)) == r for e, r in ranks.items())


def test_warm_rank_memo_reduces_no_member(monkeypatch):
    # the exhaustive-gf2 slice of the benchmark: GF(2), dim_v=2, dim_u=3, n=3
    params = SearchParams(field=field_from_order(2), dim_u=3, dim_v=2, n=3)
    warm = exhaustive_verify(params)
    shapes = Counter()
    reduce = kernels.row_reduce
    monkeypatch.setattr(kernels, "row_reduce", lambda e, rows, cols, f: (
        shapes.update([(rows, cols)]), reduce(e, rows, cols, f))[1])
    again = exhaustive_verify(params)
    monkeypatch.undo()
    assert again.to_dict() == warm.to_dict()
    assert shapes[(2, 3)] == 0
    # nor is the closure's running system ever re-reduced: the whole warm
    # run reduces nothing
    assert sum(shapes.values()) == 0


@st.composite
def small_spaces(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 9]))
    shapes = [(2, 2), (3, 2), (2, 3)] if q <= 3 else [(2, 2)]
    dim_u, dim_v = draw(st.sampled_from(shapes))
    width = dim_u * dim_v
    n = draw(st.integers(1, width - 1))
    f = field_from_order(q)
    entries = draw(st.lists(st.integers(0, q - 1), min_size=n * width,
                            max_size=n * width))
    basis = [Matrix(f, dim_v, dim_u, entries[k * width:(k + 1) * width])
             for k in range(n)]
    assume(len(rref_rows(f, [m.entries for m in basis], width=width)[0]) == n)
    return OperatorSpace(f, dim_u, dim_v, basis)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_spaces())
def test_duality_oracle_drawn(space):
    dual = duality_closure_set(space)
    assert dual == space_element_set(space.reflexive_closure())


def check_point_rows(f, x, v, images, cond):
    """One point's condition rows: distinct leads, each row 0 before its
    lead and 1 there, each c x^T for an annihilator c of the images, and
    as many as the images' nullity."""
    p, j0 = len(x), x.index(1)
    leads = [lead for lead, _ in cond]
    assert len(set(leads)) == len(leads)
    for lead, row in cond:
        assert row[lead] == 1 and not any(row[:lead])
        c = [row[i * p + j0] for i in range(v)]
        assert row == tuple(f.mul(ci, xj) for ci in c for xj in x)
        for b in range(0, len(images), v):
            total = 0
            for ci, y in zip(c, images[b:b + v]):
                total = f.add(total, f.mul(ci, y))
            assert total == 0
    rank = len(rref_rows(f, [images[b:b + v] for b in range(0, len(images), v)],
                         width=v)[0]) if images else 0
    assert len(cond) == v - rank


@st.composite
def point_images(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 257]))
    dim_u, dim_v = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    n = draw(st.integers(1, dim_v + 1))
    x = draw(st.sampled_from(list(iter_projective(q, dim_u)) if q < 10 else
                             [(1,) * dim_u, (0,) * (dim_u - 1) + (1,)]))
    # low-rank images now and then: repeated and zero rows
    rows = draw(st.lists(st.one_of(
        st.tuples(*[st.integers(0, q - 1)] * dim_v), st.just((0,) * dim_v)),
        min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        rows[-1] = rows[0]
    return field_from_order(q), x, dim_v, tuple(e for r in rows for e in r)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(point_images())
def test_each_points_rows_have_distinct_leads(case):
    f, x, v, images = case
    cond, _ = opspace._point_conditions(f, x, v, images)
    check_point_rows(f, x, v, images, cond)


@pytest.mark.parametrize("dim_v", [3, 5, 8])
def test_memo_free_points_rows_have_distinct_leads(monkeypatch, dim_v):
    # GF(257) 2 x dim_v keeps no memo: each point's rows reach the
    # insertion in one call, from that loop's images via _point_conditions
    f = field_from_order(257)
    rng = random.Random(dim_v)
    calls = []
    insert = kernels.echelon_insert
    monkeypatch.setattr(kernels, "echelon_insert", lambda kept, rows, stop, field: (
        calls.append(rows), insert(kept, rows, stop, field))[1])
    for space in [_random_space(f, 2, dim_v, 2, rng), _embedded_pair(f, 2, dim_v, rng)]:
        calls.clear()
        assert system_closure(space) == reference_closure_basis(space)
        maps = [Matrix(f, dim_v, 2, m) for m in space.canonical_basis()]
        images = ((x, tuple(e for m in maps for e in m.apply(x)))
                  for x in iter_projective(257, 2))
        # the loop inserts the rows of each point whose images do not span
        with_rows = ((x, img) for x, img in images if len(rref_rows(
            f, [img[:dim_v], img[dim_v:]], width=dim_v)[0]) < dim_v)
        for cond, (x, img) in zip(calls, with_rows):
            check_point_rows(f, x, dim_v, img, cond)
        assert calls


@pytest.mark.parametrize("q,dim_u,n", [(3, 2, 2), (3, 2, 3), (4, 2, 2), (5, 2, 2),
                                       (2, 3, 3)])
def test_memo_free_determinant_shortcut_matches_the_memo_path(monkeypatch, q, dim_u, n):
    # dim_v = 2: the loop without a memo skips each point where f_1(x) and
    # f_2(x) have a nonzero determinant; it reduces exactly the points of
    # determinant 0, and at n = 3 some of those still have full-rank images
    f = field_from_order(q)
    width = dim_u * 2
    points = list(iter_projective(q, dim_u))
    skipped = full_rank = 0
    for rows in enumerate_subspaces(q, width, n):
        memo_kept = closure_system(f, dim_u, 2, rows)
        # the RREF basis, and one out of RREF: f_1 + f_2, f_1, f_3, ...
        for flats in (rows, (tuple(map(f.add, rows[0], rows[1])), *rows[:1], *rows[2:])):
            reached = []
            conditions = opspace._point_conditions
            with monkeypatch.context() as m:
                m.setattr(opspace, "_closure_memo", lambda *a: None)
                m.setattr(opspace, "_point_conditions", lambda field, x, v, images: (
                    reached.append((x, images)), conditions(field, x, v, images))[1])
                kept = closure_system(f, dim_u, 2, flats)
            assert len(kept) == len(memo_kept)
            assert (null_rref(f, [e for r in kept.values() for e in r], len(kept), width)
                    == null_rref(f, [e for r in memo_kept.values() for e in r],
                                 len(memo_kept), width))
            # the points reduced are exactly the zeros of det[f_1(x) f_2(x)],
            # up to the early exit, with f_k(x) computed afresh here
            f1, f2 = (Matrix(f, 2, dim_u, fk) for fk in flats[:2])
            zeros = [x for x in points if f.mul(f1.apply(x)[0], f2.apply(x)[1])
                     == f.mul(f1.apply(x)[1], f2.apply(x)[0])]
            assert [x for x, _ in reached] == zeros[:len(reached)]
            assert len(kept) == width - n or len(reached) == len(zeros)
            for x, images in reached:
                full_rank += len(rref_rows(
                    f, [images[i:i + 2] for i in range(0, 2 * n, 2)], width=2)[0]) == 2
            # the scan stops at a reduced point once the system forces R(S) = S
            visited = (points.index(reached[-1][0]) + 1 if len(kept) == width - n
                       else len(points))
            skipped += visited - len(reached)
    assert skipped > 0
    assert (full_rank > 0) == (n == 3)


def brute_det_zeros(f, vecs):
    """The projective x where det(sum_k x_k V_k) = 0, V_k the 2x2 matrix of
    flat entries vecs[k]: each member is formed by ``oracles.combine`` and
    its determinant read off its entries, never from a quadratic form."""
    zeros = []
    for x in iter_projective(f.q, len(vecs)):
        m = combine(f, vecs, x, 4)
        if f.mul(m[0], m[3]) == f.mul(m[1], m[2]):
            zeros.append(x)
    return zeros


def binary_form(f, a, b, c):
    """vecs whose determinant is a x_0^2 + b x_0 x_1 + c x_1^2, that is
    det [[x_0, -c x_1], [x_1, a x_0 + b x_1]]: c at (0, 1), a + b t + c t^2
    at (1, t)."""
    return [(1, 0, 0, a), (0, f.neg(c), 1, b)]


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=SMALL_FIELD_IDS)
def test_det_zeros_match_brute_force_on_every_binary_form(field):
    q, modulus = field
    f = field_from_order(q) if modulus is None else field_make(2, 3, modulus)
    counts = set()
    for form in itertools.product(range(q), repeat=3):
        vecs = binary_form(f, *form)
        zeros = list(opspace._det_zeros(f, vecs))
        assert zeros == brute_det_zeros(f, vecs), form
        counts.add(len(zeros))
    # no zero, one, two, and every point (the zero form)
    assert counts == {0, 1, 2, q + 1}


@pytest.mark.parametrize("q,seeded", [(256, 30), (257, 30), (512, 30),
                                      (1 << 15, 0), (65521, 0)])
def test_det_zeros_match_brute_force_on_big_binary_forms(q, seeded):
    # a brute walk of GF(2^15) or GF(65521) takes about 0.3 s, so there
    # only the two planted forms: two roots c (t - r)(t - s), and the
    # double root (t - r)^2
    f = field_from_order(q)
    rng = random.Random(q)
    r, s, c = (rng.randrange(1, q) for _ in range(3))
    forms = [(f.mul(c, f.mul(r, s)), f.neg(f.mul(c, f.add(r, s))), c),
             (f.mul(r, r), f.neg(f.add(r, r)), 1)]
    forms += [tuple(rng.randrange(q) for _ in range(3)) for _ in range(seeded)]
    counts = Counter()
    for form in forms:
        vecs = binary_form(f, *form)
        zeros = list(opspace._det_zeros(f, vecs))
        assert zeros == brute_det_zeros(f, vecs), form
        counts[len(zeros)] += 1
    assert counts[1] and counts[2] and (counts[0] or not seeded)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_det_zeros_match_brute_force_with_vanishing_lines(q):
    # m = 3 and 4 coordinates.  With V_0 = s V_L for a rank-one V_L, every
    # member on the line through (1, 0, ..., 0) and (0, ..., 0, 1) is
    # singular; with every V_k's second column 0, the form is 0 everywhere
    f = field_from_order(q)
    rng = random.Random(60 + q)
    vanishing = 0
    for m in (3, 4):
        for trial in range(6):
            vecs = [tuple(rng.randrange(q) for _ in range(4)) for _ in range(m)]
            if trial % 3 == 0:
                u0, u1, w0, w1 = (rng.randrange(1, q) for _ in range(4))
                vecs[-1] = tuple(f.mul(u, w) for u in (u0, u1) for w in (w0, w1))
                vecs[0] = tuple(f.mul(rng.randrange(q), e) for e in vecs[-1])
            elif trial % 3 == 1:
                vecs = [(v[0], 0, v[2], 0) for v in vecs]
            zeros = list(opspace._det_zeros(f, vecs))
            assert zeros == brute_det_zeros(f, vecs), vecs
            vanishing += list(Counter(x[:-1] for x in zeros).values()).count(q)
    assert vanishing


def _diagonal_pair(f, rng):
    """P span{I, diag(1, d)} Q for random invertible P, Q and d != 0, 1:
    its determinant form (x_0 + x_1)(x_0 + d x_1), moved by P and Q, has
    two zeros on the line (1, t)."""
    d = rng.randrange(2, f.q)
    p_mat, q_mat = _invertible(f, 2, rng), _invertible(f, 2, rng)
    return OperatorSpace(f, 2, 2, [p_mat @ Matrix(f, 2, 2, m) @ q_mat
                                   for m in ((1, 0, 0, 1), (1, 0, 0, d))])


BIG_FIELD_SHAPES = [(2, 1), (2, 2), (2, 2), (2, 3), (3, 2), (3, 3)]
# Read off the point-by-point determinant walk that the line solver
# replaced, for the seeded spaces of ``BIG_FIELD_SHAPES`` (dim_u, n) at
# dim_v = 2, then ``_nonreflexive_pair`` and ``_diagonal_pair``: (closure
# dimension, sha256 prefix of repr(R(S)'s canonical basis)) and, at 2x2,
# (rank distribution in walk order, mrk, witness).  None: a 2x3 rank scan
# (a rank walk, not pinned) or a closure past the default guard; "guard": a
# rank scan past it.
BIG_FIELD_PINS = {
    256: [
        ((1, "ac228ac53e0e"), ([(2, 1)], 2, (1,))),
        ((2, "895e769f2468"), ([(2, 255), (1, 2)], 1, (1, 162))),
        ((2, "61a14868bfe9"), ([(2, 255), (1, 2)], 1, (1, 5))),
        ((4, "217697c84a1a"), ([(2, 65536), (1, 257)], 1, (1, 1, 127))),
        ((2, "ae998753cff0"), None),
        ((3, "fc84fe6a0d0c"), None),
        ((3, "2ddb92c0a3c4"), ([(1, 1), (2, 256)], 1, (0, 1))),
        ((2, "c136d9dfc614"), ([(2, 255), (1, 2)], 1, (1, 1))),
    ],
    257: [
        ((1, "2d7bb1b35327"), ([(2, 1)], 2, (1,))),
        ((2, "833f2a95399b"), ([(2, 256), (1, 2)], 1, (1, 51))),
        ((4, "217697c84a1a"), ([(2, 258)], 2, (0, 1))),
        ((4, "217697c84a1a"), ([(2, 66049), (1, 258)], 1, (1, 0, 24))),
        ((2, "fcb1e3446dd0"), None),
        ((3, "65290802d757"), None),
        ((3, "26d89ff21bc7"), ([(1, 1), (2, 257)], 1, (0, 1))),
        ((2, "b541af567e12"), ([(2, 256), (1, 2)], 1, (1, 26))),
    ],
    512: [
        ((1, "92690a97de3a"), ([(2, 1)], 2, (1,))),
        ((2, "cf81bff74fb6"), ([(2, 511), (1, 2)], 1, (1, 315))),
        ((4, "217697c84a1a"), ([(2, 513)], 2, (0, 1))),
        ((4, "217697c84a1a"), ([(2, 262144), (1, 513)], 1, (1, 0, 140))),
        ((2, "2f5174e93bf5"), None),
        ((5, "1c56a3387fc1"), None),
        ((3, "0c082614d5e9"), ([(1, 1), (2, 512)], 1, (0, 1))),
        ((2, "8aa4c56e6770"), ([(2, 511), (1, 2)], 1, (1, 1))),
    ],
    65536: [
        ((1, "eaeab7ce3092"), ([(2, 1)], 2, (1,))),
        ((4, "217697c84a1a"), ([(2, 65537)], 2, (0, 1))),
        ((4, "217697c84a1a"), ([(2, 65537)], 2, (0, 1))),
        ((4, "217697c84a1a"), "guard"),
        (None, None),
        (None, None),
        ((3, "bbf3843762a5"), ([(1, 1), (2, 65536)], 1, (0, 1))),
        ((2, "91f2c648c424"), ([(2, 65535), (1, 2)], 1, (1, 1))),
    ],
}


@pytest.mark.parametrize("q", sorted(BIG_FIELD_PINS))
def test_big_field_scans_keep_their_pinned_values(monkeypatch, q):
    # no shape memo from GF(9) up at 2x3, or from GF(256) up at 2x2: these
    # closures take the memo-free loop over the determinant's zeros, and
    # the 2x2 rank scans solve the same kind of form
    f = field_from_order(q)
    rng = random.Random(q)
    spaces = [_random_space(f, dim_u, 2, n, rng) for dim_u, n in BIG_FIELD_SHAPES]
    spaces += [_nonreflexive_pair(f, rng), _diagonal_pair(f, rng)]
    for space, (closure, scan) in zip(spaces, BIG_FIELD_PINS[q], strict=True):
        if closure is None:
            with pytest.raises(GuardExceeded):
                space.reflexive_closure()
        else:
            got = space.reflexive_closure()
            digest = hashlib.sha256(repr(got.canonical_basis()).encode()).hexdigest()
            assert (got.n, digest[:12]) == closure
        if scan == "guard":
            with pytest.raises(GuardExceeded):
                space.mrk()
        elif scan is not None:
            dist, best, witness = space._rank_scan()
            assert (list(dist.items()), best, witness) == scan
            assert space.mrk() == (best, witness)
        if space.dim_u == 2 and space.n == 2 and q <= 512:
            check_determinant_scan(space)
            # the memo-free closure reduces exactly the determinant's
            # zeros, up to its early exit
            reached = []
            conditions = opspace._point_conditions
            with monkeypatch.context() as m:
                m.setattr(opspace, "_point_conditions", lambda field, x, v, images: (
                    reached.append(x), conditions(field, x, v, images))[1])
                kept = closure_system(f, 2, 2, space.canonical_basis())
            f1, f2 = (Matrix(f, 2, 2, fk) for fk in space.canonical_basis())
            zeros = [x for x in iter_projective(q, 2) if f.mul(f1.apply(x)[0], f2.apply(x)[1])
                     == f.mul(f1.apply(x)[1], f2.apply(x)[0])]
            assert reached == zeros[:len(reached)]
            assert len(kept) == 2 or reached == zeros


def test_projective_cache_keeps_what_fits_in_order(monkeypatch):
    # at a bound of 40 values, GF(2)^3 (7 points, 21 values) and GF(3)^2
    # (4 points, 8 values) are kept; GF(2)^4 (15 points, 60 values) passes
    # it, so it is walked afresh each time and never stored
    monkeypatch.setattr(opspace, "_MEMO_LIMIT", 40)
    cache = opspace._projective_cache()
    monkeypatch.setattr(opspace, "_projective", cache)
    monkeypatch.setattr(search, "_projective", cache)
    for key in [(2, 3), (3, 2), (2, 4), (2, 3), (2, 4)]:
        points = cache[key]
        assert list(points) == list(iter_projective(*key))
        assert isinstance(points, tuple) == (key != (2, 4))
    assert set(cache) == {(2, 3), (3, 2)} and cache.room == 40 - 21 - 8
    # GF(2)^2 (3 points, 6 values) fits the 11 left; then GF(3)^3 (39) does not
    assert cache[2, 2] == tuple(iter_projective(2, 2)) and cache.room == 5
    assert not isinstance(cache[3, 3], tuple) and (3, 3) not in cache
    # the walks read the cache, kept or not
    f = field_from_order(2)
    for n in (3, 4):
        space = _random_space(f, 2, 3, n, random.Random(n))
        assert (space.rank_distribution(), *space.mrk()) == reference_rank_scan(space)
        assert _mrk(f, 2, 3, space.canonical_basis()) == space.mrk()[0]
    assert set(cache) == {(2, 3), (3, 2), (2, 2)}


class _Unread(tuple):
    """A basis map that fails the test if the walk reads its entries."""

    def __iter__(self):
        raise AssertionError("a basis map no coefficient uses was read")


def eager_walk(f, dim_u, dim_v, flats, coeff_vectors, offset):
    """``rank_walk``'s (coefficients, entries, rank) triples, each member
    built densely and ranked by mat_rank."""
    for coeffs in coeff_vectors:
        entries = list(offset)
        for c, fk in zip(coeffs, flats):
            entries = [f.add(e, f.mul(c, a)) for e, a in zip(entries, fk)]
        yield coeffs, entries, mat_rank(Matrix(f, dim_v, dim_u, entries))


def check_walks(f, dim_u, dim_v, flats, offset):
    """A projective walk on the cached tuple and a coset walk, as
    ``iter_projective`` and ``iter_vectors`` give their coefficients,
    against ``eager_walk``."""
    q, n = f.q, len(flats)
    zero = (0,) * (dim_u * dim_v)
    for coeffs, want_coeffs, off in (
            (opspace._projective[q, n], iter_projective(q, n), zero),
            (iter_vectors(q, n), iter_vectors(q, n), offset)):
        assert (list(opspace.rank_walk(f, dim_u, dim_v, flats, coeffs, off))
                == list(eager_walk(f, dim_u, dim_v, flats, want_coeffs, off)))


@pytest.mark.parametrize("q,dim_u,dim_v,n,stride", [
    (2, 3, 2, 3, 1),    # exhaustive-gf2: every space of the slice
    (3, 3, 2, 2, 7),    # exhaustive-gf3: every 7th of its 11,011 spaces
])
def test_rank_walk_matches_eager_members_on_the_slices(q, dim_u, dim_v, n, stride):
    f = field_from_order(q)
    rng = random.Random(q)
    slice_ = enumerate_subspaces(q, dim_u * dim_v, n)
    for rows in itertools.islice(slice_, 0, None, stride):
        offset = tuple(rng.randrange(q) for _ in range(dim_u * dim_v))
        check_walks(f, dim_u, dim_v, rows, offset)


def test_rank_walk_matches_eager_members_over_gf512():
    f = field_from_order(512)
    rng = random.Random(512)
    for n in (1, 2):
        space = _random_space(f, 2, 2, n, rng)
        flats = [m.entries for m in space.basis]
        if n == 1:  # a coset of 512 members; n = 2 would walk 512^2
            check_walks(f, 2, 2, flats, tuple(rng.randrange(512) for _ in range(4)))
        else:
            assert (list(opspace.rank_walk(f, 2, 2, flats, opspace._projective[512, 2]))
                    == list(eager_walk(f, 2, 2, flats, iter_projective(512, 2), (0,) * 4)))


def test_rank_walk_builds_a_maps_rows_only_when_a_member_needs_them():
    # members (0, 1) and (0, 2) use only the second map: the first is
    # never read
    f = field_from_order(3)
    flats = [_Unread((1, 0, 0, 1)), (0, 1, 0, 0)]
    walk = list(opspace.rank_walk(f, 2, 2, flats, [(0, 1), (0, 2)]))
    assert walk == [((0, 1), [0, 1, 0, 0], 1), ((0, 2), [0, 2, 0, 0], 1)]
    with pytest.raises(AssertionError, match="no coefficient uses"):
        list(opspace.rank_walk(f, 2, 2, flats, [(0, 1), (1, 0)]))
