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

Every field, prime fields included, is built one way: the powers of a
generator g give exp/log tables, and the rest is read from them.  Since
-1 = g^h (h = (q - 1)/2 for odd p, 0 for p = 2), -a = g^(log a + h);
a^-1 = g^(q - 1 - log a); and with the Zech logarithm
zech[d] = log(1 + g^d), a + b = g^(log a + zech[log b - log a]).

Set-up is a few lookups per element.  The exp table is stepped by
multiplying by g with lookups on the integer encoding: one multiply mod p
for GF(p); for k > 1 one q-entry "times g" table, built with
bytes.translate (see _times_table).  Only the generator search and the k
columns g * x^j multiply digit lists.  Negatives, inverses and the Zech
table are C-level gathers (map over list.__getitem__) from exp and log.
For q <= 256 every element fits in a byte, so each row of the q*q add/mul
tables is one or two bytes.translate calls of the log bytes.  Past that
limit add_t and mul_t are read-only stand-ins with the same indexing,
add_t[a * q + b] = a + b and mul_t[a * q + b] = a * b, that call add and
mul.  This module alone knows which kind a field holds: the elimination
kernels read both alike.
"""

from __future__ import annotations

import operator
import sys
from array import array

# Up to this order a field keeps full q*q add/mul tables, their rows read
# from its exp/log/Zech lists.  Larger fields add and multiply on the lists,
# and their add_t and mul_t answer the same q*q lookups by calling add and
# mul, so the elimination kernels read every field one way.
TABLE_LIMIT = 256
MAX_ORDER = 1 << 16


def _prime_factors(n: int) -> dict[int, int]:
    """prime -> exponent for n >= 1, by trial division up to sqrt(n)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
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


def _times_table(p: int, k: int, columns) -> list[int]:
    """[g * a for a in range(p**k)], k > 1, where columns[j] holds the
    digits of g * x^j.

    Digit i of g * a is sum_j a_j columns[j][i] mod p, built one digit of a
    at a time as bytes (p**k <= 2^16 with k > 1 puts p <= 251, so a digit
    fits in a byte): the values for a < p^(j+1) are those for a < p^j,
    shifted by d * columns[j][i] for each digit d.  The k digit strings are
    then summed with weights p^i in 16-bit lanes of one integer.
    """
    q = p**k
    twice = bytes(range(p)) * 2
    plus = [twice[s:s + p] + bytes(256 - p) for s in range(p)]  # v -> v + s mod p
    total = 0
    for i in range(k):
        digit = b"\0"
        for j in range(k):
            c = columns[j][i]
            digit = b"".join([digit.translate(plus[d * c % p]) for d in range(p)])
        lanes = bytearray(2 * q)
        lanes[0::2] = digit
        total += int.from_bytes(lanes, "little") * p**i
    table = array("H", total.to_bytes(2 * q, "little"))
    if sys.byteorder == "big":
        table.byteswap()
    return table.tolist()


def _poly_rem(poly, monic, p: int) -> list[int]:
    """The low len(monic) - 1 digits of ``poly`` mod the ``monic`` polynomial
    over GF(p), both low-degree-first digit lists."""
    rem = list(poly)
    d = len(monic) - 1
    # each step clears digit i, which is read no more, so it is left as is
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            off = i - d
            for j in range(d):
                rem[off + j] = (rem[off + j] - c * monic[j]) % p
    return rem[:d]


def poly_is_irreducible(poly, p: int) -> bool:
    """Irreducibility of a monic polynomial over GF(p), by trial division."""
    k = len(poly) - 1
    if k < 1 or poly[-1] != 1:
        return False
    for d in range(1, k // 2 + 1):
        for m in range(p**d):
            divisor = _digits(m, p, d) + [1]
            if not any(_poly_rem(poly, divisor, p)):
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


def _coefficients(modulus) -> tuple[int, ...]:
    """``modulus`` as a tuple of ints; never coerces a float or a string."""
    out = []
    for c in modulus:
        try:
            out.append(operator.index(c))
        except TypeError:
            raise ValueError(
                f"modulus coefficient {c!r} is not an integer") from None
    return tuple(out)


class _Lookup:
    """A read-only stand-in for a q*q table of ``op``: entry a * q + b is
    op(a, b), computed when it is read."""

    __slots__ = ("q", "op")

    def __init__(self, q: int, op):
        self.q = q
        self.op = op

    def __getitem__(self, i: int) -> int:
        return self.op(*divmod(i, self.q))


class FieldSpec:
    """An immutable description of GF(p^k) with precomputed tables.

    Construct through :func:`field_make`, which validates and caches.
    All operations are pure; a FieldSpec is safe to share across workers.
    """

    __slots__ = (
        "p", "k", "q", "modulus",
        "neg_t", "inv_t", "add_t", "mul_t",
        "_exp", "_log", "_zech", "_hash", "_tabled",
    )

    def __init__(self, p: int, k: int, modulus):
        if type(p) is not int or type(k) is not int:
            raise ValueError(f"p and k must be integers, got {p!r} and {k!r}")
        if p < 2:
            raise ValueError(f"characteristic must be prime, got {p!r}")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k!r}")
        # bounded before a power or a factoring runs: p >= 2 puts k > 16 past
        # 2^16; below that the order is named as order_split names it
        if k > 16 or p**k > MAX_ORDER:
            order = p**k if k <= 16 else f"{p}^{k}"
            raise ValueError(f"field order {order} exceeds the supported 2^16")
        if _prime_factors(p) != {p: 1}:
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
                modulus = _coefficients(modulus)
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

        self._build_exp_log()
        exp, log = self._exp, self._log
        nonzero_logs = log[1:]
        h = (q - 1) // 2 if p != 2 else 0
        self.neg_t = [0, *map(exp[h:].__getitem__, nonzero_logs)]
        self.inv_t = [0, *map(exp[q - 1:0:-1].__getitem__, nonzero_logs)]
        # adding 1 to an encoding changes only its constant digit
        succ = list(range(1, q + 1))
        succ[p - 1::p] = range(0, q, p)
        one_plus = list(map(succ.__getitem__, exp[:q - 1]))
        # zech[d] = log(1 + g^d), -1 where 1 + g^d = 0, that is at d = h
        zech = list(map(log.__getitem__, one_plus))
        zech[h] = -1
        self._zech = zech

        # add and mul test this bool, not add_t: past the limit add_t calls add
        self._tabled = q <= TABLE_LIMIT
        if self._tabled:
            # Elements fit in a byte, so each row is a bytes.translate of the
            # log bytes (255 stands for b = 0): mul row a maps log b to
            # exp[log a + log b]; add row a is a (1 + b/a), the row of
            # 1 + g^(log b - log a) mapped through mul row a.
            logs = bytes([255, *nonzero_logs])
            exps, ones = bytes(exp), bytes(one_plus) * 2
            pad = bytes(256 - q)
            add_rows, mul_rows = [bytes(range(q))], [bytes(q)]
            for la in nonzero_logs:
                mul_row = logs.translate(exps[la:la + q - 1] + pad + b"\0")
                mul_rows.append(mul_row)
                add_rows.append(logs.translate(
                    ones[q - 1 - la:2 * (q - 1) - la] + pad + b"\1"
                ).translate(mul_row + pad))
            self.add_t = list(b"".join(add_rows))
            self.mul_t = list(b"".join(mul_rows))
        else:
            self.add_t = _Lookup(q, self.add)
            self.mul_t = _Lookup(q, self.mul)

    # -- raw polynomial arithmetic on encodings (used to build exp/log) --

    def _mul_poly(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        da = _digits(a, p, k)
        db = _digits(b, p, k)
        res = [0] * (2 * k - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    if bj:
                        res[i + j] = (res[i + j] + ai * bj) % p
        return _undigits(_poly_rem(res, self.modulus, p), p)

    def _pow_poly(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_poly(r, a)
            a = self._mul_poly(a, a)
            e >>= 1
        return r

    def _build_exp_log(self):
        p, k, q = self.p, self.k, self.q
        power = self._pow_poly if k > 1 else (lambda a, e: pow(a, e, p))
        fac = _prime_factors(q - 1)
        # from 1, so that GF(2) gets g = 1; for k > 1 from x = p, as the
        # orders in GF(p)* divide p - 1 < q - 1
        for gen in range(1 if k == 1 else p, q):
            if all(power(gen, (q - 1) // f) != 1 for f in fac):
                break
        else:
            raise AssertionError("multiplicative group has no generator; bad modulus?")
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        x = 1
        # each step multiplies x by gen with lookups on its encoding
        if k == 1:
            for i in range(q - 1):
                exp[i] = x
                log[x] = i
                x = x * gen % p
        else:
            times_gen = _times_table(
                p, k, [_digits(self._mul_poly(gen, p**j), p, k) for j in range(k)])
            for i in range(q - 1):
                exp[i] = x
                log[x] = i
                x = times_gen[x]
        exp[q - 1:] = exp[:q - 1]
        self._exp = exp
        self._log = log

    # -- element operations --

    def add(self, a: int, b: int) -> int:
        if self._tabled:
            return self.add_t[a * self.q + b]
        if a == 0:
            return b
        if b == 0:
            return a
        # a + b = g^la (1 + g^(lb - la)); a negative index wraps mod q - 1
        log = self._log
        la = log[a]
        z = self._zech[log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        return self.neg_t[a]

    def mul(self, a: int, b: int) -> int:
        if self._tabled:
            return self.mul_t[a * self.q + b]
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


# every field made, under the modulus asked for and the one it has, so that
# a pickled field (reduced with its modulus) comes back as the cached object
_FIELDS: dict = {}


def field_make(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Validated GF(p^k).  ``modulus`` is a low-degree-first coefficient list."""
    # the key must hold ints: 1.0 == 1 == True and all hash alike, so a
    # float or bool p, k or coefficient would otherwise hit a cached field
    if type(p) is not int or type(k) is not int:
        raise ValueError(f"p and k must be integers, got {p!r} and {k!r}")
    if modulus is not None:
        modulus = _coefficients(modulus)
    f = _FIELDS.get((p, k, modulus))
    if f is None:
        f = FieldSpec(p, k, modulus)
        f = _FIELDS[p, k, modulus] = _FIELDS.setdefault((p, k, f.modulus), f)
    return f


def order_split(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k for a prime power q up to 2^16, else ValueError;
    the cap comes first, so only a q of at most 16 bits is factored."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"field order must be an integer >= 2, got {q!r}")
    if q > MAX_ORDER:
        raise ValueError(f"field order {q} exceeds the supported 2^16")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    [(p, k)] = factors.items()
    return p, k


def field_from_order(q: int) -> FieldSpec:
    """GF(q) with the default modulus; q must pass :func:`order_split`."""
    return field_make(*order_split(q))
