"""Arithmetic for the finite fields GF(p^k) with q = p^k up to 2^16.

Elements are encoded as integers in [0, q): the base-p digits of the
encoding are the coefficients of a polynomial in the field generator,
least-significant digit = constant term.  This encoding is the on-disk
and in-API contract, so results are bit-exact across platforms.

For k > 1 the field is F_p[x]/(modulus) for a monic irreducible modulus
of degree k, stored low-degree-first.  When no modulus is supplied the
lexicographically smallest irreducible one is selected (coefficients
compared low-to-high as a base-p integer), which makes construction
reproducible; pass an explicit modulus to match another tool's tables.
"""

from __future__ import annotations

import functools

# Full q*q add/mul tables are built up to this order; they feed the
# table path of the elimination kernel.  Larger fields reduce through
# per-call arithmetic.
TABLE_LIMIT = 256
MAX_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(e: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(e % p)
        e //= p
    return out


def _undigits(digits, p: int) -> int:
    e = 0
    for d in reversed(digits):
        e = e * p + d
    return e


def _poly_divides(divisor, poly, p: int) -> bool:
    """Whether the monic ``divisor`` divides ``poly`` over GF(p)."""
    rem = list(poly)
    dd = len(divisor) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            off = i - dd
            for j in range(dd):
                rem[off + j] = (rem[off + j] - c * divisor[j]) % p
    return not any(rem[:dd])


def poly_is_irreducible(poly, p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p), by trial division."""
    k = len(poly) - 1
    if k < 1 or poly[-1] != 1:
        return False
    for d in range(1, k // 2 + 1):
        for m in range(p**d):
            divisor = _digits(m, p, d) + [1]
            if _poly_divides(divisor, poly, p):
                return False
    return True


def _default_modulus(p: int, k: int) -> tuple[int, ...]:
    for m in range(p**k):
        poly = _digits(m, p, k) + [1]
        if poly_is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


def _poly_str(modulus) -> str:
    terms = []
    for i in range(len(modulus) - 1, -1, -1):
        c = modulus[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            terms.append(x if c == 1 else f"{c}{x}")
    return "+".join(terms) or "0"


class FieldSpec:
    """An immutable description of GF(p^k) with precomputed tables.

    Construct through :func:`field_make`, which validates and caches.
    All operations are pure; a FieldSpec is safe to share across workers.
    """

    __slots__ = (
        "p", "k", "q", "modulus",
        "neg_t", "inv_t", "add_t", "mul_t",
        "_exp", "_log", "_hash",
    )

    def __init__(self, p: int, k: int, modulus):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"characteristic must be prime, got {p!r}")
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k!r}")
        # bounded before a power or is_prime runs: p >= 2 puts k > 16 past 2^16
        if k > 16 or p**k > MAX_ORDER:
            order = p if k == 1 else f"{p}^{k}"
            raise ValueError(f"field order {order} exceeds the supported 2^16")
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p!r}")
        q = p**k
        self.p = p
        self.k = k
        self.q = q

        if k == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
            self.modulus = None
        else:
            if modulus is None:
                modulus = _default_modulus(p, k)
            else:
                modulus = tuple(int(c) for c in modulus)
                if len(modulus) != k + 1:
                    raise ValueError(
                        f"modulus must have degree {k} "
                        f"({k + 1} coefficients, low degree first)")
                if modulus[-1] != 1:
                    raise ValueError("modulus must be monic")
                if any(c < 0 or c >= p for c in modulus):
                    raise ValueError(f"modulus coefficients must lie in [0, {p})")
                if not poly_is_irreducible(modulus, p):
                    raise ValueError(
                        f"{_poly_str(modulus)} is reducible over GF({p})")
            self.modulus = modulus
        # hashed on every memo lookup keyed by the field, so computed once
        self._hash = hash((p, k, self.modulus))

        self.neg_t = [(-a) % p if k == 1 else self._neg_digits(a) for a in range(q)]

        if k > 1:
            self._build_exp_log()
        else:
            self._exp = self._log = None

        inv_t = [0] * q
        for a in range(1, q):
            inv_t[a] = pow(a, p - 2, p) if k == 1 else self._exp[(q - 1) - self._log[a]]
        self.inv_t = inv_t

        if q <= TABLE_LIMIT:
            self._build_full_tables()
        else:
            self.add_t = self.mul_t = None

    # -- raw polynomial arithmetic on encodings (used to bootstrap tables) --

    def _neg_digits(self, a: int) -> int:
        p = self.p
        s, mult = 0, 1
        while a:
            s += ((p - a % p) % p) * mult
            a //= p
            mult *= p
        return s

    def _add_digits(self, a: int, b: int) -> int:
        p = self.p
        s, mult = 0, 1
        while a or b:
            s += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return s

    def _mul_poly(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p, k = self.p, self.k
        da = _digits(a, p, k)
        db = _digits(b, p, k)
        res = [0] * (2 * k - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    if bj:
                        res[i + j] = (res[i + j] + ai * bj) % p
        mod = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = res[i]
            if c:
                res[i] = 0
                off = i - k
                for j in range(k):
                    if mod[j]:
                        res[off + j] = (res[off + j] - c * mod[j]) % p
        return _undigits(res[:k], p)

    def _pow_poly(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_poly(r, a)
            a = self._mul_poly(a, a)
            e >>= 1
        return r

    def _build_exp_log(self):
        q = self.q
        fac = _prime_factors(q - 1)
        gen = None
        for g in range(2, q):
            if all(self._pow_poly(g, (q - 1) // f) != 1 for f in fac):
                gen = g
                break
        if gen is None:
            raise AssertionError("multiplicative group has no generator; bad modulus?")
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        x = 1
        for i in range(q - 1):
            exp[i] = x
            exp[i + q - 1] = x
            log[x] = i
            x = self._mul_poly(x, gen)
        self._exp = exp
        self._log = log

    def _build_full_tables(self):
        q, p, k = self.q, self.p, self.k
        add_t = [0] * (q * q)
        mul_t = [0] * (q * q)
        exp, log = self._exp, self._log
        for a in range(q):
            base = a * q
            for b in range(q):
                if k == 1:
                    add_t[base + b] = (a + b) % p
                    mul_t[base + b] = a * b % p
                else:
                    add_t[base + b] = a ^ b if p == 2 else self._add_digits(a, b)
                    if a and b:
                        mul_t[base + b] = exp[log[a] + log[b]]
        self.add_t = add_t
        self.mul_t = mul_t

    # -- element operations --

    def add(self, a: int, b: int) -> int:
        if self.add_t is not None:
            return self.add_t[a * self.q + b]
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._add_digits(a, b)

    def neg(self, a: int) -> int:
        return self.neg_t[a]

    def mul(self, a: int, b: int) -> int:
        if self.mul_t is not None:
            return self.mul_t[a * self.q + b]
        if self.k == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_t[a]

    # -- value semantics --

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.q})"
        return f"GF({self.q}; {_poly_str(self.modulus)})"

    def __reduce__(self):
        return (field_make, (self.p, self.k, self.modulus))


@functools.lru_cache(maxsize=None)
def _field_cached(p: int, k: int, modulus) -> FieldSpec:
    return FieldSpec(p, k, modulus)


def field_make(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Validated GF(p^k).  ``modulus`` is a low-degree-first coefficient list."""
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
    return _field_cached(p, k, modulus)


def field_from_order(q: int) -> FieldSpec:
    """GF(q) with the default modulus; q must be a prime power."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"field order must be an integer >= 2, got {q!r}")
    if q > MAX_ORDER:
        raise ValueError(f"field order {q} exceeds the supported 2^16")
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return field_make(p, k)
    raise ValueError(f"{q} is not a prime power")
