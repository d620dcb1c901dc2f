"""Operator spaces S of linear maps GF(q)^p -> GF(q)^dim_v.

A space is an n-dimensional subspace of the dim_v x p matrices, given by
an independent basis.  This module computes the objects attached to S:

* evaluation spaces S(x) = {f(x) : f in S},
* the reflexive closure R(S) = {g : g(x) in S(x) for every x},
* the reflexivity test R(S) = S,
* the minimal rank over the nonzero members of S with a witness,
* the rank distribution over projective classes of S,
* local linear dependence (every x killed by some nonzero member),
* the reduced space on the quotient by the common kernel of S.

Everything is exact and deterministic: projective representatives are
scanned in lexicographic order and returned bases are RREF-canonical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain
from operator import getitem, itemgetter

from . import kernels
from .errors import DependentBasisError, GuardExceeded
from .matrix import (  # noqa: F401  (mat_kernel, mat_rank: perfbench/tracer.py wraps them)
    Matrix,
    iter_projective,
    mat_kernel,
    mat_rank,
    null_rref,
    rref_rows,
)

DEFAULT_GUARD = 10**7
SYSTEM_GUARD = 1 << 24  # max (dim_u*dim_v)^2 entries of a closure system


def default_guard() -> int:
    """Guard on enumerations and walks; the REFLEXFF_GUARD variable overrides.

    A value that is not a positive integer raises ValueError (malformed
    input), not GuardExceeded.
    """
    raw = os.environ.get("REFLEXFF_GUARD", "")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"REFLEXFF_GUARD={raw!r} is not an integer") from None
        if value < 1:
            raise ValueError("REFLEXFF_GUARD must be positive")
        return value
    return DEFAULT_GUARD


def _guard_points(q, dim, what, guard=None):
    """GuardExceeded when a walk over the (q^dim - 1)/(q - 1) projective
    points of GF(q)^dim would pass ``guard`` (by default default_guard());
    counted only up to it."""
    guard = default_guard() if guard is None else guard
    count, power = 0, 1
    for _ in range(dim):
        count, power = count + power, power * q
        if count > guard:
            raise GuardExceeded(f"{what} walk over ({q}^{dim} - 1)/({q} - 1) "
                                f"points exceeds the guard {guard}")


def _guard_system(dim_u, dim_v):
    """GuardExceeded when a closure system of dim_u x dim_v maps could pass
    SYSTEM_GUARD entries.  Its rows have width dim_u*dim_v, and neither one
    point's (at most dim_v) condition rows nor the kept echelon (at most
    dim_u*dim_v rows) holds more than (dim_u*dim_v)^2 entries."""
    width = dim_u * dim_v
    if width * width > SYSTEM_GUARD:
        raise GuardExceeded(f"closure system of ({dim_u}*{dim_v})^2 entries "
                            f"exceeds the guard {SYSTEM_GUARD}")


# Every per-shape memo takes entries until they hold this many values (those
# of each key and of its stored tuple), then only serves lookups.
_MEMO_LIMIT = 1 << 16


class _Memo(dict):
    """A dict that fills itself: a missing key gets ``make(key)``, a (value,
    size) pair, and keeps the value while its size fits in ``room``."""

    def __init__(self, room, make):
        self.room = room
        self.make = make

    def __missing__(self, key):
        value, size = self.make(key)
        if size <= self.room:
            self.room -= size
            self[key] = value
        return value


def _projective_cache():
    """A memo (q, dim) -> the tuple of ``iter_projective(q, dim)``, kept
    while its count*dim values fit.  That size is known before the tuple
    is built: a (q, dim) past the room gets the generator, not kept."""
    def points(key):
        q, dim = key
        size = (q**dim - 1) // (q - 1) * dim
        walk = iter_projective(q, dim)
        return (tuple(walk) if size <= memo.room else walk), size

    memo = _Memo(_MEMO_LIMIT, points)
    return memo


# the process's one cache: every projective walk of this module and of
# ``search`` reads it
_projective = _projective_cache()

# (field, dim_u, dim_v) -> (a _Memo of each basis-map row's values at the
# points, a condition _Memo per point, the getter that cuts a flat map into
# its dim_v rows).  A condition entry maps an image tuple to its point's
# (lead, row) pairs; an image tuple's length tells n.
_closure_memos: dict = {}

# (field, dim_u, dim_v) -> _Memo {member's entry tuple: rank}.  The field,
# not q: a rank over GF(8) depends on the modulus.
_rank_memos: dict = {}


def _closure_memo(field, dim_u, dim_v):
    """The shape's memo, created on first use; its points' condition memos
    share ``_MEMO_LIMIT``.  None when the q^dim_u rows' values alone would
    pass it, as at 2x2 over GF(256) and up.  (There, on the ``reports``
    benchmark's spaces, n = 1 closures stop after 3 points; n = 2 ones
    reduce only their determinant's zeros, 0, 2 and 0 points.)"""
    key = (field, dim_u, dim_v)
    memo = _closure_memos.get(key)
    if memo is None:
        q = field.q
        if (q**dim_u - 1) // (q - 1) * q**dim_u > _MEMO_LIMIT:
            return None
        points = tuple(_projective[q, dim_u])
        at_points = Matrix(field, len(points), dim_u, [e for x in points for e in x])
        memo = _closure_memos[key] = (
            _Memo(_MEMO_LIMIT, lambda r: (at_points.apply(r), len(points))),
            [_Memo(_MEMO_LIMIT // len(points), partial(_point_conditions, field, x, dim_v))
             for x in points],
            # one slice's itemgetter returns the slice itself, not a 1-tuple
            itemgetter(*[slice(b, b + dim_u) for b in range(0, dim_u * dim_v, dim_u)])
            if dim_v > 1 else lambda fk: (fk,))
    return memo


def _point_conditions(field, x, v, images):
    """(the rows c x^T, flattened, for the annihilators c of the n*v flat
    ``images`` f_k(x), the values they hold), as (lead, row) pairs.  Read
    as an RREF basis (``null_rref``), each c is 0 before its own free
    column and 1 there, and x's first nonzero entry is 1, so each row's
    lead entry is 1, leads ascending and distinct."""
    annihilators = null_rref(field, images, len(images) // v, v)
    if not annihilators:
        return (), len(images)
    mul = field.mul
    p = len(x)
    j0 = x.index(1)
    zero = [0] * p
    cond = []
    for c in annihilators:
        row = []
        for ci in c:
            if ci:
                row.extend(x if ci == 1 else [mul(ci, xj) for xj in x])
            else:
                row.extend(zero)
        cond.append((c.index(1) * p + j0, tuple(row)))
    return tuple(cond), len(images) + len(cond) * p * v


def closure_system(field, dim_u, dim_v, flats):
    """The conditions that cut R(S) out of all dim_v x dim_u matrices, as
    a forward echelon: a dict from lead column to a kept row (a tuple or
    list) whose entries before that column are 0 and whose entry there
    is 1.  R(S) is the echelon's null space, and its rank is its size.

    S is the span of the independent flat row-major entry tuples
    ``flats``.  For each projective x, in lexicographic order, every
    annihilator c of S(x) gives the condition c . g(x) = 0 on the unknown
    g, whose row is c x^T flattened (``_point_conditions``, on both paths
    below).  Each row is inserted into the echelon
    (``kernels.echelon_insert``); one point's rows have distinct leads, so
    none is reduced against another.  S lies in R(S), so once the rank
    reaches dim_u*dim_v - n the system forces R(S) = S and the scan stops,
    possibly partway through a point's rows.  Either way R(S) is the
    echelon's null space, and only ``OperatorSpace.reflexive_closure``
    reads a basis of it, in one reduction.

    The conditions at x depend only on x and the image tuple, so a shape
    may keep each basis-map row's values at every point and each (point,
    image tuple)'s condition rows in a per-process memo (``_closure_memo``):
    a candidate then costs one lookup per basis-map row, its rows read
    through the memo's one itemgetter, and one per point, in one lazy
    stream of rows read only up to the early exit.  n = 0 keeps none.
    The points come from the per-process projective cache
    (``_projective``), memo or not.  Without a memo, a point's images are
    one ``Matrix.apply`` of the n*dim_v x dim_u stack of the basis maps,
    as the memo's row values are one product of the points.  There, at
    dim_v = 2 and n >= 2, a point where det[f_1(x) f_2(x)] != 0 has
    S(x) = GF(q)^2 and no conditions: only that quadratic form's zeros,
    solved for line by line (``_det_zeros``), are visited at all.
    """
    p, v = dim_u, dim_v
    n = len(flats)
    target = p * v - n
    kept = {}
    if not target:
        return kept
    insert = kernels.echelon_insert
    memo = _closure_memo(field, p, v) if n else None
    if memo is not None:
        values, known, cut = memo
        cols = [values[r] for fk in flats for r in cut(fk)]
        insert(kept, chain.from_iterable(map(getitem, known, zip(*cols))),
               target, field)
        return kept
    # No memo: the same steps, computed afresh at each point, its images
    # f_k(x) read from one product of the stacked basis maps.
    stacked = Matrix(field, n * v, p, chain.from_iterable(flats))
    points = _projective[field.q, p]
    if v == 2 and n >= 2:
        # det[f_1(x) f_2(x)] = det(sum_j x_j V_j), V_j = [a_j b_j; c_j d_j]
        # stacking column j of f_1 (rows a, b) over column j of f_2 (c, d)
        points = _det_zeros(field, [(*flats[0][j::p], *flats[1][j::p]) for j in range(p)])
    for x in points:
        cond, _ = _point_conditions(field, x, v, stacked.apply(x))
        if cond and insert(kept, cond, target, field) == target:
            break
    return kept


def _det_zeros(field, vecs):
    """The projective zeros x of det(sum_k x_k V_k), in walk order, V_k the
    2x2 matrix of flat row-major entries vecs[k].  The determinant is the
    quadratic form sum w_kl x_k x_l (k <= l), kept as its nonzero terms:
    w_kk = det V_k, and w_kl = g0 h3 + h0 g3 - g1 h2 - h1 g2 for g = vecs[k],
    h = vecs[l], a polar term that divides by nothing, so exact in
    characteristic 2 too.

    Solved a line at a time in ``iter_projective`` order: the form is c at
    (0, ..., 0, 1), then a + b t + c t^2 at x' + (t,) for each prefix x'
    one dimension down, a its value at t = 0 and a + b + c at t = 1."""
    add, mul, neg = field.add, field.mul, field.neg
    form = []
    for l, h in enumerate(vecs):
        for k, g in enumerate(vecs[:l + 1]):
            w = add(mul(g[0], h[3]), neg(mul(g[1], h[2])))
            if k < l:
                w = add(w, add(mul(h[0], g[3]), neg(mul(h[1], g[2]))))
            if w:
                form.append((k, l, w))

    def value(x):
        s = 0
        for k, l, w in form:
            a, b = x[k], x[l]
            if a and b:
                if a != 1:
                    w = mul(w, a)
                if b != 1:
                    w = mul(w, b)
                s = add(s, w) if s else w
        return s

    last = (0,) * (len(vecs) - 1) + (1,)
    c = value(last)
    if not c:
        yield last
    for x in _projective[field.q, len(vecs) - 1]:
        a = value(x + (0,))
        b = add(value(x + (1,)), neg(add(a, c)))
        yield from (x + (t,) for t in _roots(field, a, b, c))


def _roots(field, a, b, c):
    """The roots t of a + b t + c t^2, ascending (every t when a = b = c =
    0), read exactly off the field's exp/log and inverse tables."""
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    if not c:
        return [mul(neg(a), inv(b))] if b else [] if a else range(field.q)
    a, b = mul(a, inv(c)), mul(b, inv(c))
    exp, log, q = field._exp, field._log, field.q
    if field.p == 2:
        if not b:  # t = sqrt(a) = a^(q/2)
            return [exp[log[a] * (q // 2) % (q - 1)] if a else 0]
        # t = b z with z^2 + z = a/b^2: z -> z^2 + z is GF(2)-linear on the
        # encoding's bits, so z is read off that map's echelon
        y, z = mul(a, inv(mul(b, b))), 0
        for lead, image, pre in _artin_schreier(field):
            if y >> lead & 1:
                y, z = y ^ image, z ^ pre
        return [] if y else sorted((mul(b, z), mul(b, z ^ 1)))
    # odd p: (t + h)^2 = h^2 - a = d with h = b/2; a nonzero d is a square
    # iff its log is even
    h = mul(b, inv(add(1, 1)))
    d = add(mul(h, h), neg(a))
    if not d:
        return [neg(h)]
    s = exp[log[d] // 2]
    return [] if log[d] % 2 else sorted((add(s, neg(h)), neg(add(s, h))))


@cache
def _artin_schreier(field):
    """An echelon of z -> z^2 + z on the bits of GF(2^k)'s encodings, as
    (lead bit, image, preimage) rows, leads descending."""
    rows = []
    for z in (1 << i for i in range(field.k)):
        y = field.mul(z, z) ^ z
        for lead, image, pre in rows:
            if y >> lead & 1:
                y, z = y ^ image, z ^ pre
        if y:
            rows = sorted([*rows, (y.bit_length() - 1, y, z)], reverse=True)
    return rows


def rank_walk(field, dim_u, dim_v, flats, coeff_vectors, offset=None):
    """(coefficients, entries, rank) of the member offset + sum c_k f_k for
    each coefficient vector c of ``coeff_vectors``, in its order.

    ``flats`` (the basis maps) and ``offset`` are flat row-major entry
    sequences, and each member's entries come back as a fresh list.
    ``iter_projective`` coefficients walk one member per projective class
    of S; ``iter_vectors`` coefficients with g's entries as the offset walk
    the coset g + S.  A consumer that wants only the minimal rank of S may
    stop at the first rank 1.

    Each process keeps one rank memo per shape (field, dim_u, dim_v),
    keyed by the entry tuple and bounded like every memo (``_Memo``): a
    member is reduced at most once however many spaces or cosets hold it.
    A basis map's nonzero (index, entry) pairs are listed the first time
    a member needs that map, so a walk that stops early never lists the
    maps it did not reach.  Projective coefficients are best passed as
    the cached tuple ``_projective[q, n]``, which is not rebuilt per walk.
    """
    start = [0] * (dim_u * dim_v) if offset is None else list(offset)
    add, mul = field.add, field.mul
    nonzero = [None] * len(flats)
    ranks = _rank_memos.get((field, dim_u, dim_v))
    if ranks is None:
        ranks = _rank_memos[(field, dim_u, dim_v)] = _Memo(_MEMO_LIMIT, lambda key: (
            len(kernels.row_reduce(key, dim_v, dim_u, field)[1]), len(key)))
    for coeffs in coeff_vectors:
        member = start[:]
        for k, c in enumerate(coeffs):
            if c:
                fk = nonzero[k]
                if fk is None:
                    fk = nonzero[k] = [(t, e) for t, e in enumerate(flats[k]) if e]
                for t, e in fk:
                    if c != 1:
                        e = mul(c, e)
                    m = member[t]
                    member[t] = add(m, e) if m else e
        yield coeffs, member, ranks[tuple(member)]


def walk_profile(walk):
    """(rank -> count, least rank, the walk's first entry of least rank)
    over the entries of one ``rank_walk``."""
    profile: dict[int, int] = {}
    least = first = None
    for entry in walk:
        rk = entry[2]
        profile[rk] = profile.get(rk, 0) + 1
        if least is None or rk < least:
            least, first = rk, entry
    return profile, least, first


class OperatorSpace:
    """An n-dimensional space of dim_v x dim_u matrices over GF(q)."""

    __slots__ = ("field", "dim_u", "dim_v", "basis", "_cache")

    def __init__(self, field, dim_u, dim_v, basis):
        if type(dim_u) is not int or type(dim_v) is not int or dim_u < 1 or dim_v < 1:
            raise ValueError("dim_u and dim_v must be integers >= 1")
        basis = tuple(basis)
        for m in basis:
            if not isinstance(m, Matrix):
                raise TypeError("basis members must be Matrix values")
            if m.field != field:
                raise ValueError("basis matrix field disagrees with the space field")
            if m.rows != dim_v or m.cols != dim_u:
                raise ValueError(
                    f"basis matrix is {m.rows}x{m.cols}, expected {dim_v}x{dim_u}")
        flats = [m.entries for m in basis]
        rows, _ = rref_rows(field, flats, width=dim_u * dim_v)
        if len(rows) != len(basis):
            raise DependentBasisError(
                "basis matrices are linearly dependent; pass an independent basis")
        self.field = field
        self.dim_u = dim_u
        self.dim_v = dim_v
        self.basis = basis
        self._cache = {"canon": rows}

    @property
    def n(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        """Equality as subspaces (same span), not as basis lists."""
        return (isinstance(other, OperatorSpace)
                and self.field == other.field
                and self.dim_u == other.dim_u and self.dim_v == other.dim_v
                and self._cache["canon"] == other._cache["canon"])

    def __hash__(self):
        return hash((self.dim_u, self.dim_v, self._cache["canon"]))

    def __repr__(self):
        return (f"OperatorSpace({self.field!r}, dim_u={self.dim_u}, "
                f"dim_v={self.dim_v}, n={self.n})")

    def __reduce__(self):
        return (OperatorSpace, (self.field, self.dim_u, self.dim_v, self.basis))

    def canonical_basis(self) -> tuple:
        """RREF rows of the flattened basis; identifies the space uniquely."""
        return self._cache["canon"]

    def contains(self, m: Matrix) -> bool:
        """Whether m lies in S: it leaves the canonical basis at rank n."""
        if m.field != self.field or m.rows != self.dim_v or m.cols != self.dim_u:
            raise ValueError("matrix shape or field disagrees with the space")
        rows, _ = rref_rows(self.field, self._cache["canon"] + (m.entries,))
        return len(rows) == self.n

    # -- evaluation and closure --

    def eval_space(self, x) -> tuple:
        """Canonical basis of S(x) = {f(x) : f in S}."""
        if len(x) != self.dim_u:
            raise ValueError("vector length disagrees with dim_u")
        rows, _ = rref_rows(self.field, [m.apply(x) for m in self.basis],
                            width=self.dim_v)
        return rows

    def _closure_echelon(self) -> dict:
        """``closure_system``'s echelon for S, cached, after the closure's
        guards.  R(S) is its null space even when the scan stopped early:
        that null space then has dimension n and holds S, so it is S."""
        kept = self._cache.get("echelon")
        if kept is None:
            _guard_points(self.field.q, self.dim_u, "closure")
            _guard_system(self.dim_u, self.dim_v)
            kept = self._cache["echelon"] = closure_system(
                self.field, self.dim_u, self.dim_v, self._cache["canon"])
        return kept

    def _closure_holds(self, entries) -> bool:
        """Whether the flat entries make a map of R(S): one ``Matrix.apply``
        of the closure echelon's rows to them gives zero."""
        kept = self._closure_echelon()
        return not any(Matrix(self.field, len(kept), len(entries),
                              chain.from_iterable(kept.values())).apply(entries))

    def reflexive_closure(self) -> "OperatorSpace":
        """R(S): all g with g(x) in S(x) for every x, RREF-canonical basis.

        R(S) is the null space of the closure echelon (``_closure_echelon``):
        S's own canonical basis when its scan stopped with the rank forcing
        R(S) = S, else read as an RREF basis in one reduction (``null_rref``).
        """
        cached = self._cache.get("closure")
        if cached is not None:
            return cached
        kept = self._closure_echelon()
        f = self.field
        p, v = self.dim_u, self.dim_v
        width = p * v
        if len(kept) == width - self.n:
            rows = self._cache["canon"]
        else:
            rows = null_rref(f, [e for row in kept.values() for e in row],
                             len(kept), width)
        closure = OperatorSpace(f, p, v, tuple(Matrix(f, v, p, g) for g in rows))
        self._cache["closure"] = closure
        return closure

    def is_reflexive(self) -> bool:
        return len(self._closure_echelon()) == self.dim_u * self.dim_v - self.n

    # -- rank structure --

    def _rank_scan(self):
        cached = self._cache.get("rank_scan")
        if cached is not None:
            return cached
        if self.n == 0:
            raise ValueError("rank scan requires a nonzero space")
        f = self.field
        _guard_points(f.q, self.n, "rank scan")
        flats, n = [m.entries for m in self.basis], self.n
        if self.dim_u == self.dim_v == 2:
            # a nonzero 2x2 member has rank 1 exactly at the zeros of its
            # determinant, a quadratic form in the coefficients
            ones = list(_det_zeros(f, flats))
            first = (0,) * (n - 1) + (1,)
            counts = [(1, len(ones)), (2, (f.q**n - 1) // (f.q - 1) - len(ones))]
            dist = {r: c for r, c in (counts if ones[:1] == [first] else counts[::-1]) if c}
            best, witness = (1, ones[0]) if ones else (2, first)
        else:
            dist, best, (witness, _, _) = walk_profile(
                rank_walk(f, self.dim_u, self.dim_v, flats, _projective[f.q, n]))
        result = (dist, best, witness)
        self._cache["rank_scan"] = result
        return result

    def mrk(self):
        """(minimal rank over S \\ {0}, lexicographically first witness)."""
        _, best, witness = self._rank_scan()
        return best, witness

    def rank_distribution(self) -> dict:
        """rank -> number of projective classes of S attaining it."""
        dist, _, _ = self._rank_scan()
        return dict(dist)

    def is_lld(self) -> bool:
        """Whether every vector is annihilated by some nonzero member."""
        n = self.n
        _guard_points(self.field.q, self.dim_u, "local dependence")
        if n > self.dim_v:  # dim S(x) <= dim_v < n at every x
            return True
        for x in _projective[self.field.q, self.dim_u]:
            if len(self.eval_space(x)) >= n:
                return False
        return True

    # -- quotient by the common kernel --

    def reduced(self):
        """(space induced on the quotient by the common kernel K, map Q).

        Q is the RREF of all rows of all basis maps, so Ker Q = K, and such
        a row's coordinates in Q's row space are its entries at Q's pivot
        columns: each basis matrix f is fbar @ Q, fbar being f's columns
        there.  Members keep their ranks (same coefficients).
        """
        if self.n == 0:
            raise ValueError("reduction requires a nonzero space")
        f, p, v = self.field, self.dim_u, self.dim_v
        rows, piv = rref_rows(f, [m.row(i) for m in self.basis for i in range(v)])
        qmap = Matrix(f, len(piv), p, [e for r in rows for e in r])
        if len(piv) == p:
            return self, qmap
        return OperatorSpace(f, len(piv), v, [
            Matrix(f, v, len(piv), [m.entries[i * p + c] for i in range(v) for c in piv])
            for m in self.basis]), qmap


@dataclass
class AnalysisReport:
    """Full analysis of one operator space."""

    q: int
    p: int
    dim_v: int
    n: int
    reflexive: bool
    closure_dim: int
    mrk: int | None
    mrk_witness: tuple | None
    rank_distribution: dict
    lld: bool

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "mrk_witness": list(self.mrk_witness) if self.mrk_witness is not None else None,
            "rank_distribution": {str(r): c for r, c in sorted(self.rank_distribution.items())},
        }


def analyze(space: OperatorSpace) -> AnalysisReport:
    closure_dim = space.dim_u * space.dim_v - len(space._closure_echelon())
    if space.n:
        dist, best, witness = space._rank_scan()
    else:
        dist, best, witness = {}, None, None
    return AnalysisReport(
        q=space.field.q,
        p=space.dim_u,
        dim_v=space.dim_v,
        n=space.n,
        reflexive=closure_dim == space.n,
        closure_dim=closure_dim,
        mrk=best,
        mrk_witness=witness,
        rank_distribution=dist,
        lld=space.is_lld(),
    )
