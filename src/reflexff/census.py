"""Counting quantities attached to a coset T = g + S of an operator space.

For a non-reflexive space S and a witness g in R(S) \\ S, the translate
T = g + S is an affine space of q^n operators that avoids 0, and every
vector of the source space is annihilated by some member of T.  The
incidence set N = {(x, h) : h in T, h(x) = 0} then satisfies

    #N = sum over h in T of q^(p - rank h)      (exact identity)
    #N >= q^n + q^p - 1                         (coverage floor)

A coset needs g outside S and inside R(S), which is tested against the
closure echelon that S caches, without building R(S).  One
walk over T (``opspace.rank_walk`` on flat entry tuples, offset by g)
ranks each member once; from it come the rank profile of T with its
extremes r and m, #N by the rank formula and the distinguished member h0
(the first of least rank).  The kernel incidence count N' over h0 is one
rank per projective class [s] of S: with K a basis of Ker h0, h0 + s
kills Ky exactly when (sK)y = 0.  #N is also counted by direct pair
enumeration, and an exact-arithmetic tracer evaluates the inequality
chain that bounds the minimal rank of S.

All arithmetic is exact (Python integers, fractions for the one factored
inequality); nothing here is approximate.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field as dc_field
from functools import reduce

from .errors import GuardExceeded, MembershipError
from .field import order_split
# mat_kernel and mat_rank stay bound here: perfbench/tracer.py wraps them by name
from .matrix import Matrix, iter_vectors, mat_kernel, mat_rank, null_rref  # noqa: F401
from .opspace import OperatorSpace, _projective, default_guard, rank_walk, walk_profile

BRUTE_GUARD = 1 << 24  # max q^(p+n) pairs for brute incidence counting


class Coset:
    """T = g + S for a validated witness g in R(S) \\ S."""

    def __init__(self, space: OperatorSpace, g: Matrix):
        if g.field != space.field or g.rows != space.dim_v or g.cols != space.dim_u:
            raise ValueError("witness shape or field disagrees with the space")
        if space.contains(g):
            raise MembershipError("g lies in S", "in_space")
        if not space._closure_holds(g.entries):
            raise MembershipError("g is not in the reflexive closure of S",
                                  "not_in_closure")
        self.space = space
        self.g = g
        self.q, self.p, self.n = space.field.q, space.dim_u, space.n


def coset_make(space: OperatorSpace, g: Matrix) -> Coset:
    return Coset(space, g)


def _guard(coset: Coset):
    """GuardExceeded when T's q^n members pass the guard."""
    size, guard = coset.q**coset.n, default_guard()
    if size > guard:
        raise GuardExceeded(f"coset of {size} members exceeds the guard {guard}")


def _walk(coset: Coset):
    """(coefficients, flat entries, rank) for every member of T, in
    lexicographic order; GuardExceeded first when q^n passes the guard."""
    _guard(coset)
    s = coset.space
    return rank_walk(s.field, s.dim_u, s.dim_v, [b.entries for b in s.basis],
                     iter_vectors(coset.q, coset.n), coset.g.entries)


def _profile(walk, n):
    """(rank -> count, min rank r, m = #{rank <= n}, multiplicity of r,
    the walk's entry for h0) from one walk over T.  h0 is the proof's
    distinguished member: the first one of rank r."""
    profile, r, h0 = walk_profile(walk)
    m = sum(c for rk, c in profile.items() if rk <= n)
    return profile, r, m, profile[r], h0


def _chain_shape(p, n, profile) -> bool:
    """Whether a rank profile has the shape the final chain of the proof
    needs: p >= 2n-1, n >= 2, one member of rank n-1 and every other of
    rank at least n.  A real coset avoids 0, so there n >= 2 follows."""
    return (p >= 2 * n - 1 and n >= 2 and min(profile) == n - 1
            and profile[n - 1] == 1)


def _incidence(q, p, profile) -> int:
    """#N by the exact identity: sum over h in T of q^(p - rank h)."""
    return sum(c * q**(p - rk) for rk, c in profile.items())


def incidence_count(coset: Coset, mode: str = "formula") -> int:
    """#{(x, h) : x in U, h in T, h(x) = 0}, by formula or enumeration."""
    q, p = coset.q, coset.p
    if mode == "formula":
        return _incidence(q, p, _profile(_walk(coset), coset.n)[0])
    if mode == "brute":
        pairs = q**(p + coset.n)
        if pairs > BRUTE_GUARD:
            raise GuardExceeded(
                f"brute incidence needs {pairs} pairs, over the guard {BRUTE_GUARD}")
        s = coset.space
        members = [sum(map(Matrix.scale, s.basis, c), coset.g)
                   for c in iter_vectors(q, s.n)]
        zero = (0,) * s.dim_v
        return sum(h.apply(x) == zero for x in iter_vectors(q, p) for h in members)
    raise ValueError(f"mode must be 'formula' or 'brute', got {mode!r}")


def coset_rank_profile(coset: Coset):
    """(rank -> count over all q^n members, min rank r, m = #{rank <= n},
    multiplicity of rank r)."""
    return _profile(_walk(coset), coset.n)[:4]


def nprime_count(coset: Coset, h0: Matrix) -> int:
    """Pairs (x, h) with x a nonzero kernel vector of h0, h in T \\ {h0},
    and h(x) = 0, by one rank per projective class of S (``_nprime``)."""
    if not coset.space.contains(h0 - coset.g):
        raise ValueError("h0 is not a member of the coset")
    _guard(coset)
    return _nprime(coset, h0.entries)


def _nprime(coset: Coset, h0) -> int:
    """``nprime_count`` from the flat entries of h0.  With K a basis of
    Ker h0 (k vectors), h0 + s kills q^(k - rank sK) - 1 of the nonzero
    kernel vectors of h0, alike for the q - 1 multiples of s; the dim_v x k
    maps sK are ranked by ``rank_walk`` over the projective classes of S."""
    s = coset.space
    f, q, p, v = s.field, coset.q, coset.p, s.dim_v
    ker = null_rref(f, h0, v, p)
    k = len(ker)
    if not k:
        return 0
    add, mul = f.add, f.mul
    flats = [[reduce(add, map(mul, b.entries[i:i + p], y)) for i in range(0, v * p, p)
              for y in ker] for b in s.basis]
    return (q - 1) * sum(q**(k - rk) - 1 for _, _, rk in
                         rank_walk(f, k, v, flats, _projective[q, coset.n]))


_RELATIONS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


@dataclass
class Check:
    """One named relation ``lhs relation rhs``, evaluated exactly; a check
    given a ``reason`` is skipped and has no sides."""

    name: str
    relation: str
    lhs: object = None
    rhs: object = None
    reason: str = ""
    holds: bool | None = dc_field(init=False)
    status: str = dc_field(init=False)

    def __post_init__(self):
        skipped = bool(self.reason)
        self.holds = None if skipped else _RELATIONS[self.relation](self.lhs, self.rhs)
        self.status = "skipped" if skipped else "evaluated"

    def to_dict(self) -> dict:
        def enc(v):
            if v is None:
                return None
            # fractions is imported on first use; no Fraction exists before
            fractions = sys.modules.get("fractions")
            if fractions and isinstance(v, fractions.Fraction):
                return f"{v.numerator}/{v.denominator}"
            return str(v)

        return {**vars(self), "lhs": enc(self.lhs), "rhs": enc(self.rhs)}


@dataclass
class CensusReport:
    """Everything the counting argument sees in one concrete coset."""

    q: int
    p: int
    n: int
    incidence_count: int
    rank_profile: dict
    r: int
    m: int
    min_rank_multiplicity: int
    h0_coeffs: tuple
    nprime_lower: int | None
    nprime_count: int
    verdicts: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "incidence_count": str(self.incidence_count),
            "rank_profile": {str(k): v for k, v in sorted(self.rank_profile.items())},
            "h0_coeffs": list(self.h0_coeffs),
            "nprime_lower": None if self.nprime_lower is None else str(self.nprime_lower),
            "nprime_count": str(self.nprime_count),
            "verdicts": [c.to_dict() for c in self.verdicts],
        }


def census_report(coset: Coset) -> CensusReport:
    """The census of T = g + S.  Its ``nprime_floor`` verdict needs the chain
    shape, and can be evaluated only when p >= 2n: at p = 2n - 1 that shape
    caps #N at q^n + q^(2n-1) - q^(n-1), below the coverage floor
    q^n + q^p - 1 for n >= 2.  It is expected to be ``skipped``: no real
    coset has yet been seen to take the shape."""
    q, p, n = coset.q, coset.p, coset.n
    profile, r, m, mult, (h0_coeffs, h0, _) = _profile(_walk(coset), n)
    total = _incidence(q, p, profile)

    nprime_lower = (q**(p - 2 * n + 1) - 1) * (m - 1) if p >= 2 * n - 1 else None

    nprime = _nprime(coset, h0)

    if _chain_shape(p, n, profile):
        nprime_floor = Check("nprime_floor", ">=", nprime, nprime_lower)
    else:
        nprime_floor = Check(
            "nprime_floor", ">=",
            reason="needs p >= 2n-1, a unique rank n-1 member, and all others of rank >= n")
    verdicts = [Check("coverage", "<=", q**n + q**p - 1, total), nprime_floor]

    return CensusReport(
        q=q, p=p, n=n,
        incidence_count=total,
        rank_profile=profile,
        r=r, m=m,
        min_rank_multiplicity=mult,
        h0_coeffs=h0_coeffs,
        nprime_lower=nprime_lower,
        nprime_count=nprime,
        verdicts=verdicts,
    )


@dataclass
class TraceReport:
    """Exact evaluation of the counting argument on a hypothetical profile."""

    q: int
    p: int
    n: int
    profile: dict
    incidence_exact: int
    regime_met: bool
    checks: list
    contradiction: bool
    contradiction_via: str | None

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "profile": {str(k): v for k, v in sorted(self.profile.items())},
            "incidence_exact": str(self.incidence_exact),
            "checks": [c.to_dict() for c in self.checks],
        }


def proof_trace(q: int, p: int, n: int, profile: dict) -> TraceReport:
    """Evaluate the counting inequalities on a hypothetical coset rank profile.

    The profile maps rank -> member count and must sum to q^n.  Checks that
    any realizable coset profile would have to satisfy are evaluated with
    exact integer (and rational) arithmetic; a failed required check means
    no coset with this profile can exist for a space whose nonzero members
    all have rank above 2n-2.  Outside the regime p >= 2n-1 no contradiction
    is claimed.  q is checked first, by :func:`field.order_split` as search
    checks it: a prime power up to 2^16, with no field built.
    """
    order_split(q)
    if type(p) is not int or p < 1 or type(n) is not int or n < 1:
        raise ValueError("p and n must be integers >= 1")
    profile = {int(k): int(v) for k, v in profile.items()}
    if any(v < 0 for v in profile.values()):
        raise ValueError("profile counts must be non-negative")
    profile = {k: v for k, v in profile.items() if v}
    if not profile:
        raise ValueError("profile must be non-empty")
    if any(k < 0 or k > p for k in profile):
        raise ValueError(f"profile ranks must lie in [0, {p}]")
    # q^n has between n(b - 1) + 1 and nb bits, b the bit length of q: a
    # total outside that range is refused without forming q^n
    total, b = sum(profile.values()), q.bit_length()
    if not n * (b - 1) < total.bit_length() <= n * b or total != q**n:
        raise ValueError(f"profile counts must sum to q^n = {q}^{n}")
    # the report's numbers stay below 4 q^(p+n) < 2^(L(p+n) + 2), L the bit
    # length of q - 1; at 3 bits a digit they print under the default limit
    limit = sys.int_info.default_max_str_digits
    if (q - 1).bit_length() * (p + n) > 3 * limit:
        raise ValueError(f"p = {p} is too large: the report's numbers, near "
                         f"{q}^(p+n), could pass {limit} decimal digits")

    n_exact = _incidence(q, p, profile)
    floor = q**n + q**p - 1
    regime = p >= 2 * n - 1
    r = min(profile)
    mult = profile[r]
    m = sum(c for rk, c in profile.items() if rk <= n)

    # Claim 1: if every rank is at least n, coverage caps #N at q^p
    # and the floor already exceeds it.
    checks = [Check("claim1", "<=", floor, q**p) if r >= n else
              Check("claim1", "<=", reason="profile has a member of rank below n"),
              Check("coverage", "<=", floor, n_exact)]

    # Claim 2: two members whose ranks sum to 2n-2 or less would differ by
    # a nonzero member of S of rank at most 2n-2.  The counts sum to q^n >= 2,
    # so the least rank repeats or a second rank exists.
    second = r if mult >= 2 else sorted(profile)[1]
    checks.append(Check("claim2", ">", r + second, 2 * n - 2))
    gap = checks[-1].holds

    # Claim 3: with a unique minimum-rank member and the claim-2 gap,
    # coverage forces q^(p-r) (q^r - 1) <= (q^n - 1)(q^(p-2n+1+r) - 1).
    if regime and n >= 2 and 1 <= r <= n - 1 and mult == 1 and gap:
        from fractions import Fraction  # imported here, off the start-up path

        qf = Fraction(q)
        checks += [
            Check("claim3", "<=", q**(p - r) * (q**r - 1),
                  (q**n - 1) * (q**(p - 2 * n + 1 + r) - 1)),
            Check("claim3_factored", ">=", qf**(r - n + 1),
                  (1 - qf**(-r)) / ((1 - qf**(-n)) * (1 - qf**(2 * n - p - 1 - r))))]
    else:
        reason = ("needs p >= 2n-1, n >= 2, a unique minimum-rank member with "
                  "1 <= r <= n-1, and the claim-2 gap")
        checks += [Check("claim3", "<=", reason=reason),
                   Check("claim3_factored", ">=", reason=reason)]

    # Final chain: needs the full shape r = n-1 unique, everything else
    # of rank at least n, inside the regime.
    if _chain_shape(p, n, profile):
        checks += [
            Check("majo3", "<=", n_exact, q**(p - n + 1) + (m - 1) * q**(p - n)
                  + (q**n - m) * q**(p - n - 1)),
            Check("mino3", "<=", floor + (q**(p - 2 * n + 1) - 1) * (m - 1), n_exact),
            Check("minequality", "<=",
                  q**n + q**p - q**(p - 2 * n + 1) - q**(p - n + 1)
                  + q**(p - n) - q**(p - 1),
                  m * (q**(p - n) - q**(p - n - 1) - q**(p - 2 * n + 1) + 1)),
            Check("final_reduction", "<=", q**(p - n), q**(p - 2 * n + 1))]
    else:
        reason = ("needs p >= 2n-1, n >= 2, a unique rank n-1 member, "
                  "and every other rank at least n")
        checks += [Check(name, "<=", reason=reason)
                   for name in ("majo3", "mino3", "minequality", "final_reduction")]

    # the first failed link names the contradiction; claim3_factored and
    # final_reduction only restate claim3 and minequality
    via = next((c.name for c in checks if c.holds is False and c.name not in
                ("claim3_factored", "final_reduction")), None) if regime else None

    return TraceReport(
        q=q, p=p, n=n,
        profile=profile,
        incidence_exact=n_exact,
        regime_met=regime,
        checks=checks,
        contradiction=via is not None,
        contradiction_via=via,
    )
