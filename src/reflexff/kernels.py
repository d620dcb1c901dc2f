"""Gauss-Jordan row reduction over GF(q), in pure Python.

``row_reduce`` is the one entry point and holds the one elimination loop:
the pivot search, the row swap and the pivot list are written once.  At
each pivot the row is scaled and its column cleared in one of two ways.
Fields up to ``TABLE_LIMIT`` (q <= 256) carry full q*q add/mul tables and
use table lookups; larger fields work on the field's exp/log lists with
Zech logarithms: a nonzero v is g^log[v], products add logs, and
w + g^m = g^(lw + zech[m - lw]) with lw = log[w] (see field.py).  The
pivot choices do not depend on the arithmetic, so both produce identical
reduced row echelon forms.
"""

BACKEND = "python"


def row_reduce(entries, rows, cols, field):
    """RREF of a flat row-major sequence; returns (entry list, pivot tuple)."""
    a = list(entries)
    neg_t, mul_t = field.neg_t, field.mul_t
    if mul_t is not None:
        q, add_t, inv_t = field.q, field.add_t, field.inv_t
    else:
        exp, log, zech = field._exp, field._log, field._zech
        order = field.q - 1
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
        if mul_t is not None:
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
        else:
            # scale the pivot row by 1/piv, keeping (column, log) of its nonzeros
            linv = order - log[a[rb + c]]
            nz = []
            for j in range(c, cols):
                v = a[rb + j]
                if v:
                    lv = log[v] + linv
                    if lv >= order:
                        lv -= order
                    a[rb + j] = exp[lv]
                    nz.append((j, lv))
            for i in range(rows):
                if i == r:
                    continue
                ib = i * cols
                f = a[ib + c]
                if f:
                    lnf = log[neg_t[f]]
                    for j, lv in nz:
                        m = lnf + lv
                        if m >= order:
                            m -= order
                        w = a[ib + j]
                        if w:
                            lw = log[w]
                            z = zech[m - lw]
                            a[ib + j] = exp[lw + z] if z >= 0 else 0
                        else:
                            a[ib + j] = exp[m]
        pivots.append(c)
        r += 1
    return a, tuple(pivots)
