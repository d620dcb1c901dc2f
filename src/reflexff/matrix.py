"""Dense matrices over GF(q) and the exact linear algebra on them.

Matrices are value-semantic and immutable; every operation returns a new
value.  Vectors are plain tuples of field-element encodings.  All results
are exact; there is no tolerance anywhere.
"""

from __future__ import annotations

from itertools import product

from . import kernels
from .field import FieldSpec


def _check_entries(field: FieldSpec, entries):
    """ValueError unless every entry is an int encoding of a GF(q) element;
    returns the tuple ``entries`` with a bool (any int subclass) made an int."""
    q = field.q
    exact = True
    for e in entries:
        if type(e) is not int or e < 0 or e >= q:
            if not isinstance(e, int) or e < 0 or e >= q:
                raise ValueError(f"entry {e!r} outside [0, {q})")
            exact = False
    return entries if exact else tuple(map(int, entries))


class Matrix:
    """A rows x cols matrix over a FieldSpec, entries stored row-major."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries):
        entries = tuple(entries)
        if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
            raise ValueError(f"matrix dimensions {rows!r} x {cols!r} are not integers >= 0")
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(entries)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = _check_entries(field, entries)

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols, (0,) * (rows * cols))

    def row(self, i) -> tuple:
        c = self.cols
        return self.entries[i * c:(i + 1) * c]

    def __eq__(self, other):
        return (isinstance(other, Matrix)
                and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.field!r}, {self.rows}x{self.cols}: {body})"

    def __reduce__(self):
        return (Matrix, (self.field, self.rows, self.cols, self.entries))

    def _same_shape(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __add__(self, other):
        self._same_shape(other)
        add = self.field.add
        ent = tuple(add(a, b) for a, b in zip(self.entries, other.entries))
        return Matrix(self.field, self.rows, self.cols, ent)

    def __neg__(self):
        neg = self.field.neg_t
        return Matrix(self.field, self.rows, self.cols,
                      tuple(neg[a] for a in self.entries))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        _check_entries(self.field, (c,))
        mul = self.field.mul
        return Matrix(self.field, self.rows, self.cols,
                      tuple(mul(c, a) for a in self.entries))

    def __matmul__(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        f = self.field
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        out = [0] * (n * m)
        for i in range(n):
            arow = i * k
            for t in range(k):
                v = a[arow + t]
                if v:
                    brow = t * m
                    orow = i * m
                    for j in range(m):
                        w = b[brow + j]
                        if w:
                            out[orow + j] = f.add(out[orow + j], f.mul(v, w))
        return Matrix(f, n, m, out)

    def apply(self, x) -> tuple:
        """Matrix-vector product, x a tuple of length cols."""
        if len(x) != self.cols:
            raise ValueError("vector length disagrees with column count")
        f = self.field
        _check_entries(f, x)
        ent = self.entries
        c = self.cols
        out = []
        for i in range(self.rows):
            base = i * c
            s = 0
            for j in range(c):
                v = ent[base + j]
                if v and x[j]:
                    s = f.add(s, f.mul(v, x[j]))
            out.append(s)
        return tuple(out)


def mat_rank(m: Matrix) -> int:
    _, piv = kernels.row_reduce(m.entries, m.rows, m.cols, m.field)
    return len(piv)


def mat_kernel(m: Matrix) -> tuple:
    """Canonical basis of {x : m @ x = 0}, one vector per free column."""
    ent, piv = kernels.row_reduce(m.entries, m.rows, m.cols, m.field)
    return null_basis(m.field, ent, piv, m.cols)


def null_basis(field, ent, piv, cols) -> tuple:
    """Null space of a reduced system, read from ``kernels.row_reduce``'s
    (entries, pivots): one vector per free column, 1 there, 0 at the other
    free columns."""
    neg = field.neg_t
    basis = []
    for j in range(cols):
        if j in piv:
            continue
        v = [0] * cols
        v[j] = 1
        for i, pc in enumerate(piv):
            v[pc] = neg[ent[i * cols + j]]
        basis.append(tuple(v))
    return tuple(basis)


def null_rref(field, ent, rows, cols) -> tuple:
    """Canonical RREF basis of the null space of a flat rows x cols matrix,
    in one reduction: ``ent[::-1]`` reverses each row and the row order,
    keeping the null space, so pivots come from the right, and its
    ``null_basis`` read backwards (vectors and their order) is in RREF."""
    red, piv = kernels.row_reduce(ent[::-1], rows, cols, field)
    if len(piv) == cols:
        return ()
    return tuple(v[::-1] for v in reversed(null_basis(field, red, piv, cols)))


def rref_rows(field, vectors, width=None):
    """Canonical RREF basis of the span of ``vectors``.

    Returns (rows, pivots) where rows is the tuple of nonzero RREF rows;
    len(rows) equals the rank of the input.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return (), ()
    w = len(vectors[0]) if width is None else width
    if any(len(v) != w for v in vectors):
        raise ValueError("vectors have unequal lengths")
    flat = [e for v in vectors for e in v]
    ent, piv = kernels.row_reduce(flat, len(vectors), w, field)
    rank = len(piv)
    rows = tuple(tuple(ent[i * w:(i + 1) * w]) for i in range(rank))
    return rows, piv


def iter_vectors(q: int, dim: int):
    """All q^dim vectors in ascending lexicographic (tuple) order."""
    return product(range(q), repeat=dim)


def iter_projective(q: int, dim: int):
    """One representative per projective class, first nonzero entry 1.

    Yields in ascending lexicographic order; (q^dim - 1)/(q - 1) vectors.
    """
    for lead in range(dim - 1, -1, -1):
        head = (0,) * lead + (1,)
        for tail in product(range(q), repeat=dim - lead - 1):
            yield head + tail
