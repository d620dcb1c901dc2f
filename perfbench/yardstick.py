"""Frozen pure-Python yardstick for machine speed.

The loop below is a fixed GF(3) Gauss-Jordan elimination over a fixed set
of matrices, with tuple building and small-object allocation mixed in so
that its instruction mix resembles the program's (list indexing through
lookup tables, short-lived tuples and objects).  It imports nothing from
reflexff and must never change: every normalized timing in the benchmark
is raw time x (reference yardstick time / yardstick time measured next to
the call), so editing this file rescales every gated metric.
"""

import time

_Q = 3
_ADD = tuple((a + b) % _Q for a in range(_Q) for b in range(_Q))
_MUL = tuple(a * b % _Q for a in range(_Q) for b in range(_Q))
_NEG = tuple((-a) % _Q for a in range(_Q))
_INV = (0, 1, 2)


def _matrices(count, rows, cols):
    # fixed linear congruential stream: the inputs are part of the yardstick
    state = 12345
    out = []
    for _ in range(count):
        ent = []
        for _ in range(rows * cols):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            ent.append((state >> 16) % _Q)
        out.append(tuple(ent))
    return out


_ROWS, _COLS = 14, 10
_INPUTS = _matrices(40, _ROWS, _COLS)
# what _once() computes; a mismatch means the loop or its inputs changed
_EXPECTED = (4029488840, {10: 40})


class _Row:
    __slots__ = ("entries", "pivot")

    def __init__(self, entries, pivot):
        self.entries = entries
        self.pivot = pivot


def _reduce(a, rows, cols):
    q, add_t, mul_t, neg_t, inv_t = _Q, _ADD, _MUL, _NEG, _INV
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


def _once():
    rows, cols = _ROWS, _COLS
    check = 0
    ranks = {}
    for m in _INPUTS:
        a = list(m)
        pivots = _reduce(a, rows, cols)
        kept = [_Row(tuple(a[i * cols:(i + 1) * cols]), pc)
                for i, pc in enumerate(pivots)]
        ranks[len(kept)] = ranks.get(len(kept), 0) + 1
        for row in kept:
            check = (check * 31 + sum(row.entries) + row.pivot) & 0xFFFFFFFF
    return check, ranks


def run():
    """Seconds for one pass of the fixed loop."""
    t0 = time.perf_counter()
    result = _once()
    elapsed = time.perf_counter() - t0
    if result != _EXPECTED:
        raise RuntimeError(f"yardstick computed {result}, expected {_EXPECTED}")
    return elapsed
