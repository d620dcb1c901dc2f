"""Brute-force oracles used to pin expected values independently.

Everything here enumerates; nothing uses row reduction, so these results
stay independent of the code paths they check.
"""

from itertools import product

from reflexff import Matrix


def vec_add(f, u, v):
    return tuple(f.add(a, b) for a, b in zip(u, v))


def vec_scale(f, c, u):
    return tuple(f.mul(c, a) for a in u)


def combine(f, vectors, coeffs, width):
    out = (0,) * width
    for c, v in zip(coeffs, vectors):
        if c:
            out = vec_add(f, out, vec_scale(f, c, v))
    return out


def span_set(f, vectors, width):
    """Every element of the span, by full coefficient enumeration."""
    q = f.q
    return {combine(f, vectors, coeffs, width)
            for coeffs in product(range(q), repeat=len(vectors))}


def brute_kernel_count(m: Matrix) -> int:
    """Number of solutions of m @ x = 0, by enumerating all vectors."""
    q = m.field.q
    zero = (0,) * m.rows
    return sum(1 for x in product(range(q), repeat=m.cols)
               if m.apply(x) == zero)


def brute_rank(m: Matrix) -> int:
    """Rank via the solution count of m @ x = 0 (rank-nullity, exactly)."""
    count = brute_kernel_count(m)
    q = m.field.q
    nullity = 0
    while q**nullity < count:
        nullity += 1
    assert q**nullity == count
    return m.cols - nullity


def brute_closure_set(space):
    """All g with g(x) in {f(x) : f in S} for every x, fully enumerated.

    Returns the set of flattened entry tuples; feasible for
    q^(dim_u * dim_v) enumeration sizes only.
    """
    f = space.field
    q = f.q
    p, v, n = space.dim_u, space.dim_v, space.n
    from reflexff import iter_projective

    points = list(iter_projective(q, p))
    targets = []
    for x in points:
        values = [m.apply(x) for m in space.basis]
        targets.append(span_set(f, values, v))
    members = set()
    for g_entries in product(range(q), repeat=v * p):
        g = Matrix(f, v, p, g_entries)
        if all(g.apply(x) in targets[i] for i, x in enumerate(points)):
            members.add(g_entries)
    return members


def space_element_set(space):
    """Flattened entries of every member of the space."""
    f = space.field
    width = space.dim_u * space.dim_v
    return span_set(f, [m.entries for m in space.basis], width)


def bilinear(f, g_entries, y, x, p):
    """y^T g x for a flat row-major g with p columns."""
    s = 0
    for i, yi in enumerate(y):
        if yi:
            for j, xj in enumerate(x):
                e = g_entries[i * p + j]
                if e and xj:
                    s = f.add(s, f.mul(yi, f.mul(e, xj)))
    return s


def duality_closure_set(space):
    """R(S) as the annihilator of the rank-one part of S^perp.

    Under the trace pairing <g, h> = sum g_ij h_ij, the rank-one y x^T
    lies in S^perp exactly when y^T f x = 0 for every basis map f, and g
    lies in R(S) exactly when y^T g x = 0 for every such pair.  Both sets
    are enumerated; returns flattened entry tuples like
    ``brute_closure_set``.
    """
    f = space.field
    q = f.q
    p, v = space.dim_u, space.dim_v
    from reflexff import iter_projective

    pairs = [(y, x)
             for x in iter_projective(q, p)
             for y in iter_projective(q, v)
             if all(bilinear(f, m.entries, y, x, p) == 0 for m in space.basis)]
    return {g for g in product(range(q), repeat=v * p)
            if all(bilinear(f, g, y, x, p) == 0 for y, x in pairs)}


# -- GF(p^k) arithmetic on the base-p digit encoding, from the field's
# characteristic, degree and modulus only: digits add mod p, and a
# schoolbook product is reduced by the modulus; no FieldSpec arithmetic


def _digits(e, p, k):
    return [e // p**i % p for i in range(k)]


def _encode(digits, p):
    return sum(d * p**i for i, d in enumerate(digits))


def digit_add(f, a, b):
    da, db = _digits(a, f.p, f.k), _digits(b, f.p, f.k)
    return _encode([(x + y) % f.p for x, y in zip(da, db)], f.p)


def digit_neg(f, a):
    return _encode([-x % f.p for x in _digits(a, f.p, f.k)], f.p)


def digit_mul(f, a, b):
    p, k = f.p, f.k
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(_digits(a, p, k)):
        for j, y in enumerate(_digits(b, p, k)):
            prod[i + j] += x * y
    # x^k = -(m_0 + ... + m_(k-1) x^(k-1)) for the monic modulus m
    for deg in range(2 * k - 2, k - 1, -1):
        c, prod[deg] = prod[deg], 0
        for j in range(k):
            prod[deg - k + j] -= c * f.modulus[j]
    return _encode([c % p for c in prod[:k]], p)
