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

from dataclasses import dataclass

from . import kernels
from .errors import DependentBasisError, MembershipError
from .matrix import (  # noqa: F401  (mat_rank: perfbench/tracer.py wraps it here)
    Matrix,
    iter_projective,
    mat_kernel,
    mat_rank,
    null_basis,
    quotient_setup,
    rref_rows,
    solve,
    vstack,
)


# Every per-shape memo takes entries until they hold this many values (those
# of each key and of its stored tuple), then only serves lookups.
_MEMO_LIMIT = 1 << 16


class _Memo(dict):
    """A dict that takes entries while ``room`` values are left."""

    def __init__(self, room):
        self.room = room

    def keep(self, key, value, size):
        """``value``, stored under ``key`` when its ``size`` values fit."""
        if size <= self.room:
            self.room -= size
            self[key] = value
        return value


# (field, dim_u, dim_v) -> (points, the points as the rows of a Matrix, row
# values, a condition _Memo per point); filled lazily by ``closure_system``.
# An entry depends only on its key; an image tuple's length tells n.
_closure_memos: dict = {}

# (field, dim_u, dim_v) -> _Memo {member's entry tuple: rank}; filled lazily
# by ``rank_walk``.  The field, not q: a rank over GF(8) depends on the modulus.
_rank_memos: dict = {}


def _closure_memo(field, dim_u, dim_v):
    """The shape's memo, created on first use; its points' condition memos
    share ``_MEMO_LIMIT``.  None when the q^dim_u rows' values alone would
    pass it: there they cost more than the early exit leaves to do (a 2x2
    closure over GF(256) stops after a few of its 257 points)."""
    key = (field, dim_u, dim_v)
    memo = _closure_memos.get(key)
    if memo is None:
        q = field.q
        if (q**dim_u - 1) // (q - 1) * q**dim_u > _MEMO_LIMIT:
            return None
        points = tuple(iter_projective(q, dim_u))
        at_points = Matrix(field, len(points), dim_u, [e for x in points for e in x])
        memo = _closure_memos[key] = (
            points, at_points, {}, [_Memo(_MEMO_LIMIT // len(points)) for _ in points])
    return memo


def _conditions(field, x, img, ipiv, v):
    """The rows c x^T, flattened, for the annihilators c of the span of
    the reduced images (``img``, ``ipiv``) in GF(q)^v."""
    mul = field.mul
    cond = []
    for c in null_basis(field, img, ipiv, v):
        for ci in c:
            if ci == 1:
                cond.extend(x)
            elif ci:
                cond.extend([mul(ci, xj) for xj in x])
            else:
                cond.extend([0] * len(x))
    return tuple(cond)


def _reduced(ent, rows, width, field):
    """The running system in RREF, its zero rows dropped."""
    ent, piv = kernels.row_reduce(ent, rows, width, field)
    del ent[len(piv) * width:]
    return ent, piv


def closure_system(field, dim_u, dim_v, flats):
    """The conditions that cut R(S) out of all dim_v x dim_u matrices.

    S is the span of the independent flat row-major entry tuples
    ``flats``.  For each projective x, in lexicographic order, the images
    f_k(x) are reduced and every annihilator c of S(x) gives the condition
    c . g(x) = 0 on the unknown g, whose row is c x^T flattened.  All rows
    go into one running RREF system.  S lies in R(S), so once the rank reaches
    dim_u*dim_v - n the system already forces R(S) = S and the scan stops.
    The system is reduced only when it holds enough rows to reach that
    rank, which leaves the stopping point unchanged.  Returns the system as
    ``kernels.row_reduce`` gives it: (entries of its nonzero rows,
    pivots); R(S) is its null space.

    The conditions at x depend only on x and the image tuple, so a shape
    may keep each basis-map row's values at every point and each (point,
    image tuple)'s conditions in a per-process memo (``_closure_memo``);
    a candidate then costs one lookup per point.  n = 0 keeps none.
    """
    p, v = dim_u, dim_v
    width = p * v
    n = len(flats)
    target = width - n
    ent, rows = [], 0
    if not target:
        return ent, ()
    memo = _closure_memo(field, p, v) if n else None
    if memo is not None:
        points, at_points, values, known = memo
        cols = []
        for fk in flats:
            for b in range(0, width, p):
                r = fk[b:b + p]
                vals = values.get(r)
                if vals is None:
                    vals = values[r] = at_points.apply(r)
                cols.append(vals)
        for x, seen, images in zip(points, known, zip(*cols)):
            step = seen.get(images)
            if step is None:
                img, ipiv = kernels.row_reduce(images, n, v, field)
                cond = _conditions(field, x, img, ipiv, v)
                step = seen.keep(images, (cond, v - len(ipiv)),
                                 len(images) + len(cond))
            cond, count = step
            if count:
                ent.extend(cond)
                rows += count
                if rows >= target:
                    ent, piv = _reduced(ent, rows, width, field)
                    rows = len(piv)
                    if rows == target:
                        return ent, piv
        return _reduced(ent, rows, width, field)
    # No memo: the same steps, computed afresh at each point.
    add, mul = field.add, field.mul
    # the nonzero (column, entry) pairs of each row of each basis map
    maprows = [[(j, e) for j, e in enumerate(fk[b:b + p]) if e]
               for fk in flats for b in range(0, width, p)]
    for x in iter_projective(field.q, p):
        images = []
        for r in maprows:
            s = 0
            for j, e in r:
                xj = x[j]
                if xj:
                    t = e if xj == 1 else mul(e, xj)
                    s = add(s, t) if s else t
            images.append(s)
        img, ipiv = kernels.row_reduce(images, n, v, field)
        count = v - len(ipiv)
        if not count:
            continue
        ent.extend(_conditions(field, x, img, ipiv, v))
        rows += count
        if rows >= target:
            ent, piv = _reduced(ent, rows, width, field)
            rows = len(piv)
            if rows == target:
                return ent, piv
    return _reduced(ent, rows, width, field)


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
    """
    width = dim_u * dim_v
    start = [0] * width if offset is None else list(offset)
    add, mul = field.add, field.mul
    nonzero = [[(t, e) for t, e in enumerate(fk) if e] for fk in flats]
    ranks = _rank_memos.get((field, dim_u, dim_v))
    if ranks is None:
        ranks = _rank_memos[(field, dim_u, dim_v)] = _Memo(_MEMO_LIMIT)
    for coeffs in coeff_vectors:
        member = start[:]
        for c, fk in zip(coeffs, nonzero):
            if c:
                for t, e in fk:
                    if c != 1:
                        e = mul(c, e)
                    m = member[t]
                    member[t] = add(m, e) if m else e
        key = tuple(member)
        rank = ranks.get(key)
        if rank is None:
            rank = ranks.keep(key, len(kernels.row_reduce(
                key, dim_v, dim_u, field)[1]), width)
        yield coeffs, member, rank


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
        if dim_u < 1 or dim_v < 1:
            raise ValueError("dim_u and dim_v must be >= 1")
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

    def element(self, coeffs) -> Matrix:
        """The member with the given coefficients on the basis."""
        if len(coeffs) != self.n:
            raise ValueError("coefficient count disagrees with dimension")
        f = self.field
        ent = [0] * (self.dim_u * self.dim_v)
        for c, m in zip(coeffs, self.basis):
            if c:
                me = m.entries
                for i in range(len(ent)):
                    v = me[i]
                    if v:
                        ent[i] = f.add(ent[i], f.mul(c, v))
        return Matrix(f, self.dim_v, self.dim_u, ent)

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

    def reflexive_closure(self) -> "OperatorSpace":
        """R(S): all g with g(x) in S(x) for every x, RREF-canonical basis.

        The conditions come from ``closure_system``: one running RREF
        system over the projective points, which stops as soon as its rank
        forces R(S) = S; then S's own canonical basis is returned.
        Otherwise R(S) is the null space of the system over all points.
        """
        cached = self._cache.get("closure")
        if cached is not None:
            return cached
        f = self.field
        p, v = self.dim_u, self.dim_v
        width = p * v
        canon = self._cache["canon"]
        ent, piv = closure_system(f, p, v, canon)
        if len(piv) == width - self.n:
            rows = canon
        else:
            rows, _ = rref_rows(f, null_basis(f, ent, piv, width), width=width)
        closure = OperatorSpace(f, p, v, tuple(Matrix(f, v, p, g) for g in rows))
        self._cache["closure"] = closure
        return closure

    def is_reflexive(self) -> bool:
        return self.reflexive_closure().n == self.n

    # -- rank structure --

    def _rank_scan(self):
        cached = self._cache.get("rank_scan")
        if cached is not None:
            return cached
        if self.n == 0:
            raise ValueError("rank scan requires a nonzero space")
        dist, best, (witness, _, _) = walk_profile(rank_walk(
            self.field, self.dim_u, self.dim_v, [m.entries for m in self.basis],
            iter_projective(self.field.q, self.n)))
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
        for x in iter_projective(self.field.q, self.dim_u):
            if len(self.eval_space(x)) >= n:
                return False
        return True

    # -- quotient by the common kernel --

    def common_kernel(self) -> tuple:
        """Basis of the intersection of the kernels of all members."""
        if self.n == 0:
            raise ValueError("common kernel of the zero space is everything")
        return mat_kernel(vstack(list(self.basis)))

    def reduced(self):
        """(space induced on the quotient by the common kernel, map Q).

        Each basis matrix f factors uniquely as fbar @ Q; ranks of all
        members (same coefficients) are preserved.
        """
        if self.n == 0:
            raise ValueError("reduction requires a nonzero space")
        f = self.field
        u0 = self.common_kernel()
        qmap = quotient_setup(f, u0, self.dim_u)
        if not u0:
            return self, qmap
        qt = qmap.transpose()
        reduced_basis = []
        for m in self.basis:
            rows = []
            for i in range(self.dim_v):
                sol = solve(qt, m.row(i))
                assert sol is not None, "member does not vanish on the common kernel"
                rows.append(sol)
            reduced_basis.append(Matrix.from_rows(f, rows))
        return OperatorSpace(f, qmap.rows, self.dim_v, reduced_basis), qmap


def opspace_make(field, dim_u, dim_v, basis) -> OperatorSpace:
    """Validated operator space; rejects dependent basis lists."""
    return OperatorSpace(field, dim_u, dim_v, basis)


def hyperplane_lld_check(space: OperatorSpace, g: Matrix) -> bool:
    """Whether S + span{g} is locally linearly dependent; requires g not in S."""
    if space.contains(g):
        raise MembershipError("g lies in the space", "in_space")
    extended = OperatorSpace(space.field, space.dim_u, space.dim_v,
                             space.basis + (g,))
    return extended.is_lld()


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
    closure = space.reflexive_closure()
    if space.n:
        dist, best, witness = space._rank_scan()
    else:
        dist, best, witness = {}, None, None
    return AnalysisReport(
        q=space.field.q,
        p=space.dim_u,
        dim_v=space.dim_v,
        n=space.n,
        reflexive=closure.n == space.n,
        closure_dim=closure.n,
        mrk=best,
        mrk_witness=witness,
        rank_distribution=dist,
        lld=space.is_lld(),
    )
