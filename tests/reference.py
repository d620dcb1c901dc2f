"""The closure and rank-scan algorithms that the scan-native routines of
``reflexff.opspace`` replaced, and the template enumeration that
``reflexff.search._pattern_subspaces`` replaced, kept as a differential
reference.

The closure here takes S(x) point by point through ``eval_space``, solves
one ``mat_kernel`` per point for its annihilator, stacks every condition
into one constraint matrix over all points and solves it once.  The rank
scan builds a ``Matrix`` for every projective member (its entries from
``oracles.combine``) and ranks it with ``mat_rank``.  Both use row
reduction, so unlike ``oracles`` they are a second implementation, not an
independent one.
"""

from itertools import product

from reflexff import (
    Matrix,
    iter_projective,
    mat_kernel,
    mat_rank,
    rref_rows,
)
from oracles import combine


def reference_closure_basis(space) -> tuple:
    """RREF-canonical basis rows (flat entry tuples) of R(S)."""
    f = space.field
    p, v = space.dim_u, space.dim_v
    unknowns = v * p
    rows = []
    for x in iter_projective(f.q, p):
        ev = space.eval_space(x)
        d = len(ev)
        if d == v:
            continue
        if d == 0:
            normals = tuple(
                tuple(1 if t == i else 0 for t in range(v)) for i in range(v))
        else:
            normals = mat_kernel(Matrix(f, d, v, [e for r in ev for e in r]))
        for c in normals:
            row = [0] * unknowns
            for i in range(v):
                if c[i]:
                    for j in range(p):
                        if x[j]:
                            row[i * p + j] = f.mul(c[i], x[j])
            rows.append(row)
    if not rows:
        sol = tuple(tuple(1 if t == i else 0 for t in range(unknowns))
                    for i in range(unknowns))
    else:
        flat = [e for r in rows for e in r]
        sol = mat_kernel(Matrix(f, len(rows), unknowns, flat))
    canon, _ = rref_rows(f, sol, width=unknowns)
    return canon


def reference_rank_scan(space):
    """(rank distribution, minimal rank, lexicographically first witness)."""
    f, v, p = space.field, space.dim_v, space.dim_u
    flats = [m.entries for m in space.basis]
    dist = {}
    best = witness = None
    for coeffs in iter_projective(f.q, space.n):
        r = mat_rank(Matrix(f, v, p, combine(f, flats, coeffs, v * p)))
        dist[r] = dist.get(r, 0) + 1
        if best is None or r < best:
            best, witness = r, coeffs
    return dist, best, witness


def reference_pattern_subspaces(q, ambient, pivots):
    """All RREF bases with the given pivot columns, free entries in
    lexicographic row-major order: a template with 1 at each pivot, copied
    for each assignment of the free entries and patched in place."""
    k = len(pivots)
    pivset = set(pivots)
    free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, ambient)
            if j not in pivset]
    template = [[0] * ambient for _ in range(k)]
    for i, pc in enumerate(pivots):
        template[i][pc] = 1
    for assignment in product(range(q), repeat=len(free)):
        rows = [list(r) for r in template]
        for (i, j), val in zip(free, assignment):
            rows[i][j] = val
        yield tuple(tuple(r) for r in rows)
