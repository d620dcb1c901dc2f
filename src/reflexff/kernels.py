"""Elimination over GF(q), in pure Python: two routines.

``row_reduce`` holds the one Gauss-Jordan loop: the pivot search, the row
swap and the pivot list are written once, and it returns the reduced row
echelon form.  ``echelon_insert`` adds rows to a forward echelon, a dict
from lead column to a kept row with lead entry 1, and never reduces the
rows it keeps: the closure scan needs only its rank, the echelon's size.

Both scale a row and clear a column by q*q lookups, ``mul_t[a * q + b]``
and ``add_t[a * q + b]``, on every field.  How those lookups are answered
is the field's business (see ``reflexff.field``): a stored table up to
``TABLE_LIMIT``, the field's own add and mul past it.
"""

BACKEND = "python"


def row_reduce(entries, rows, cols, field):
    """RREF of a flat row-major sequence; returns (entry list, pivot tuple)."""
    a = list(entries)
    q, neg_t, inv_t = field.q, field.neg_t, field.inv_t
    add_t, mul_t = field.add_t, field.mul_t
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
    return a, tuple(pivots)


def echelon_insert(kept, rows, stop, field):
    """Add (lead, row) pairs to the forward echelon ``kept``; returns its size.

    ``kept`` maps a lead column to a row whose entries before it are 0 and
    whose entry there is 1; each of ``rows`` has that form too, and no row
    is ever changed in place.  A row is reduced only against the kept row
    with its current lead, and again at each new lead; a nonzero remainder
    is kept under its lead, scaled to 1, and a zero one is dropped.  Kept
    rows are never touched again, so the echelon is not reduced: its rank
    is its size.  The insertion stops once ``kept`` holds ``stop`` rows.
    """
    q, neg_t, inv_t = field.q, field.neg_t, field.inv_t
    add_t, mul_t = field.add_t, field.mul_t
    for lead, row in rows:
        k = kept.get(lead)
        if k is not None:
            width = len(row)
            row = list(row)
            while k is not None:
                # row -= row[lead] * k, from the column after the lead on
                f = row[lead]
                row[lead] = 0
                nf = neg_t[f] * q
                for j in range(lead + 1, width):
                    v = k[j]
                    if v:
                        row[j] = add_t[row[j] * q + mul_t[nf + v]]
                for lead in range(lead + 1, width):
                    if row[lead]:
                        break
                else:
                    break
                k = kept.get(lead)
            if k is not None:
                continue  # the remainder is zero
            piv = row[lead]
            if piv != 1:
                inv = inv_t[piv]
                row = [mul_t[v * q + inv] for v in row]
        kept[lead] = row
        if len(kept) == stop:
            break
    return len(kept)
