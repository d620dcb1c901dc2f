"""Gauss-Jordan row reduction over GF(q), in pure Python.

``row_reduce`` is the one entry point.  Fields up to ``TABLE_LIMIT``
(q <= 256) carry full q*q add/mul tables and reduce through table lookups;
larger fields reduce through the field's per-call arithmetic (exp/log
tables with Zech logarithms).  Both paths
make identical pivot choices in the same order, so they produce identical
reduced row echelon forms.
"""

BACKEND = "python"


def row_reduce(entries, rows, cols, field):
    """RREF of a flat row-major sequence; returns (entry list, pivot tuple)."""
    work = list(entries)
    if rows == 0 or cols == 0:
        return work, ()
    mul_t = field.mul_t
    if mul_t is None:
        return work, tuple(_row_reduce_obj(work, rows, cols, field))
    return work, tuple(_row_reduce_tables(work, rows, cols, field.q, field.add_t,
                                          mul_t, field.neg_t, field.inv_t))


def _row_reduce_tables(a, rows, cols, q, add_t, mul_t, neg_t, inv_t):
    """Reduce the flat list ``a`` in place; returns the pivot column list."""
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = -1
        for i in range(r, rows):
            if a[i * cols + c]:
                pr = i
                break
        if pr < 0:
            continue
        rb = r * cols
        if pr != r:
            ib = pr * cols
            for j in range(c, cols):
                a[rb + j], a[ib + j] = a[ib + j], a[rb + j]
        piv = a[rb + c]
        if piv != 1:
            inv = inv_t[piv]
            for j in range(c, cols):
                v = a[rb + j]
                if v:
                    a[rb + j] = mul_t[v * q + inv]
        for i in range(rows):
            if i == r:
                continue
            f = a[i * cols + c]
            if f:
                ib = i * cols
                nf = neg_t[f] * q
                for j in range(c, cols):
                    v = a[rb + j]
                    if v:
                        a[ib + j] = add_t[a[ib + j] * q + mul_t[nf + v]]
        pivots.append(c)
        r += 1
    return pivots


def _row_reduce_obj(a, rows, cols, field):
    """Table-free variant for fields too large for full q*q tables."""
    add, mul, neg_t, inv_t = field.add, field.mul, field.neg_t, field.inv_t
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = -1
        for i in range(r, rows):
            if a[i * cols + c]:
                pr = i
                break
        if pr < 0:
            continue
        rb = r * cols
        if pr != r:
            ib = pr * cols
            for j in range(c, cols):
                a[rb + j], a[ib + j] = a[ib + j], a[rb + j]
        piv = a[rb + c]
        if piv != 1:
            pinv = inv_t[piv]
            for j in range(c, cols):
                if a[rb + j]:
                    a[rb + j] = mul(a[rb + j], pinv)
        for i in range(rows):
            if i == r:
                continue
            f = a[i * cols + c]
            if f:
                ib = i * cols
                nf = neg_t[f]
                for j in range(c, cols):
                    v = a[rb + j]
                    if v:
                        a[ib + j] = add(a[ib + j], mul(nf, v))
        pivots.append(c)
        r += 1
    return pivots
