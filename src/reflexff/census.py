"""Counting quantities attached to a coset T = g + S of an operator space.

For a non-reflexive space S and a witness g in R(S) \\ S, the translate
T = g + S is an affine space of q^n operators that avoids 0, and every
vector of the source space is annihilated by some member of T.  The
incidence set N = {(x, h) : h in T, h(x) = 0} then satisfies

    #N = sum over h in T of q^(p - rank h)      (exact identity)
    #N >= q^n + q^p - 1                         (coverage floor)

A coset needs g outside S and inside the closure R(S) that S caches.  One
walk over T (``opspace.rank_walk`` on flat entry tuples, offset by g)
ranks each member once; from it come the rank profile of T with its
extremes r and m, #N by the rank formula and the distinguished member h0
(the first of least rank).  The kernel incidence count N' over h0 is one
rank per other member h: h and h0 both kill exactly q^(p - rank [h0; h])
vectors.  #N is also counted by direct pair enumeration, and an
exact-arithmetic tracer evaluates the inequality chain that bounds the
minimal rank of S.

All arithmetic is exact (Python integers, fractions for the one factored
inequality); nothing here is approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import kernels
from .errors import GuardExceeded, MembershipError
# mat_kernel and mat_rank stay bound here: perfbench/tracer.py wraps them by name
from .matrix import Matrix, iter_vectors, mat_kernel, mat_rank  # noqa: F401
from .opspace import OperatorSpace, rank_walk, walk_profile
from .search import default_guard

BRUTE_GUARD = 1 << 24  # max q^(p+n) pairs for brute incidence counting


class Coset:
    """T = g + S for a validated witness g in R(S) \\ S."""

    def __init__(self, space: OperatorSpace, g: Matrix):
        if g.field != space.field or g.rows != space.dim_v or g.cols != space.dim_u:
            raise ValueError("witness shape or field disagrees with the space")
        if space.contains(g):
            raise MembershipError("g lies in S", "in_space")
        if not space.reflexive_closure().contains(g):
            raise MembershipError("g is not in the reflexive closure of S",
                                  "not_in_closure")
        self.space = space
        self.g = g
        self.q, self.p, self.n = space.field.q, space.dim_u, space.n

    def size(self) -> int:
        return self.q**self.n

    def elements(self):
        """(coefficients, g + sum c_i f_i) in lexicographic coefficient order."""
        for coeffs in iter_vectors(self.q, self.n):
            yield coeffs, self.member(coeffs)

    def member(self, coeffs) -> Matrix:
        return self.g + self.space.element(coeffs)


def coset_make(space: OperatorSpace, g: Matrix) -> Coset:
    return Coset(space, g)


def _walk(coset: Coset):
    """(coefficients, flat entries, rank) for every member of T, in
    lexicographic order; GuardExceeded first when q^n passes the guard."""
    size, guard = coset.size(), default_guard()
    if size > guard:
        raise GuardExceeded(f"coset of {size} members exceeds the guard {guard}")
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
        members = [h for _, h in coset.elements()]
        zero = (0,) * coset.space.dim_v
        return sum(h.apply(x) == zero for x in iter_vectors(q, p) for h in members)
    raise ValueError(f"mode must be 'formula' or 'brute', got {mode!r}")


def coset_rank_profile(coset: Coset):
    """(rank -> count over all q^n members, min rank r, m = #{rank <= n},
    multiplicity of rank r)."""
    return _profile(_walk(coset), coset.n)[:4]


def nprime_count(coset: Coset, h0: Matrix) -> int:
    """Pairs (x, h) with x a nonzero kernel vector of h0, h in T \\ {h0},
    and h(x) = 0, counted by one rank per member h (see ``_nprime``)."""
    if not coset.space.contains(h0 - coset.g):
        raise ValueError("h0 is not a member of the coset")
    # T's members are pairwise distinct, so h0 is skipped by its entries
    h0 = list(h0.entries)
    return _nprime(coset, h0, (h for _, h, _ in _walk(coset) if h != h0))


def _nprime(coset: Coset, h0, others) -> int:
    """``nprime_count`` from the flat entries of h0 and of the members
    ``others``.  Ker h0 and Ker h meet in the kernel of the stacked
    2 dim_v x p map [h0; h], so h kills q^(p - rank [h0; h]) - 1 of the
    nonzero kernel vectors of h0."""
    f, q, p, v = coset.space.field, coset.q, coset.p, coset.space.dim_v
    return sum(q**(p - len(kernels.row_reduce([*h0, *h], 2 * v, p, f)[1])) - 1
               for h in others)


@dataclass
class Check:
    """One named relation with both sides evaluated exactly."""

    name: str
    relation: str = "<="
    lhs: object = None
    rhs: object = None
    holds: bool | None = None
    status: str = "evaluated"  # or "skipped"
    reason: str = ""

    def to_dict(self) -> dict:
        def enc(v):
            if v is None:
                return None
            if isinstance(v, Fraction):
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
    """The census of T = g + S.  Its ``nprime_floor`` verdict is expected to
    be ``skipped``: no real coset has yet been seen to take the shape it needs."""
    q, p, n = coset.q, coset.p, coset.n
    walk = list(_walk(coset))
    profile, r, m, mult, (h0_coeffs, h0, _) = _profile(walk, n)
    total = _incidence(q, p, profile)

    nprime_lower = (q**(p - 2 * n + 1) - 1) * (m - 1) if p >= 2 * n - 1 else None

    nprime = _nprime(coset, h0, (h for coeffs, h, _ in walk if coeffs != h0_coeffs))

    verdicts = []
    floor = q**n + q**p - 1
    verdicts.append(Check("coverage", "<=", floor, total, floor <= total))

    shape_ok = (p >= 2 * n - 1 and r == n - 1 and mult == 1
                and all(rk >= n for rk in profile if rk != r))
    if not shape_ok:
        verdicts.append(Check(
            "nprime_floor", ">=", status="skipped",
            reason="needs p >= 2n-1, a unique rank n-1 member, and all others of rank >= n"))
    else:
        verdicts.append(Check(
            "nprime_floor", ">=", nprime, nprime_lower, nprime >= nprime_lower))

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
    is claimed.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError("q must be an integer >= 2")
    if not isinstance(p, int) or p < 1 or not isinstance(n, int) or n < 1:
        raise ValueError("p and n must be integers >= 1")
    profile = {int(k): int(v) for k, v in profile.items()}
    if any(v < 0 for v in profile.values()):
        raise ValueError("profile counts must be non-negative")
    profile = {k: v for k, v in profile.items() if v}
    if not profile:
        raise ValueError("profile must be non-empty")
    if any(k < 0 or k > p for k in profile):
        raise ValueError(f"profile ranks must lie in [0, {p}]")
    if sum(profile.values()) != q**n:
        raise ValueError(f"profile counts must sum to q^n = {q**n}")

    n_exact = _incidence(q, p, profile)
    floor = q**n + q**p - 1
    regime = p >= 2 * n - 1
    r = min(profile)
    mult = profile[r]
    m = sum(c for rk, c in profile.items() if rk <= n)

    checks: list[Check] = []
    required: list[str] = []

    # Claim 1: if every rank is at least n, coverage caps #N at q^p
    # and the floor already exceeds it.
    if r >= n:
        checks.append(Check("claim1", "<=", floor, q**p, floor <= q**p))
        required.append("claim1")
    else:
        checks.append(Check("claim1", "<=", status="skipped",
                            reason="profile has a member of rank below n"))

    checks.append(Check("coverage", "<=", floor, n_exact, floor <= n_exact))
    required.append("coverage")

    # Claim 2: two members whose ranks sum to 2n-2 or less would differ by
    # a nonzero member of S of rank at most 2n-2.
    ranks_sorted = sorted(profile)
    second = r if mult >= 2 else (ranks_sorted[1] if len(ranks_sorted) > 1 else None)
    if second is None:
        checks.append(Check("claim2", ">", status="skipped",
                            reason="coset has a single member"))
        shape2 = True
    else:
        pair_sum = r + second
        holds2 = pair_sum > 2 * n - 2
        checks.append(Check("claim2", ">", pair_sum, 2 * n - 2, holds2))
        required.append("claim2")
        shape2 = holds2

    # Claim 3: with a unique minimum-rank member and the claim-2 gap,
    # coverage forces q^(p-r) (q^r - 1) <= (q^n - 1)(q^(p-2n+1+r) - 1).
    claim3_ok = regime and n >= 2 and 1 <= r <= n - 1 and mult == 1 and shape2
    if claim3_ok:
        lhs3 = q**(p - r) * (q**r - 1)
        rhs3 = (q**n - 1) * (q**(p - 2 * n + 1 + r) - 1)
        checks.append(Check("claim3", "<=", lhs3, rhs3, lhs3 <= rhs3))
        required.append("claim3")
        qf = Fraction(q)
        lhs3f = qf**(r - n + 1)
        rhs3f = (1 - qf**(-r)) / ((1 - qf**(-n)) * (1 - qf**(2 * n - p - 1 - r)))
        checks.append(Check("claim3_factored", ">=", lhs3f, rhs3f, lhs3f >= rhs3f))
    else:
        reason = ("needs p >= 2n-1, n >= 2, a unique minimum-rank member with "
                  "1 <= r <= n-1, and the claim-2 gap")
        checks.append(Check("claim3", "<=", status="skipped", reason=reason))
        checks.append(Check("claim3_factored", ">=", status="skipped", reason=reason))

    # Final chain: needs the full shape r = n-1 unique, everything else
    # of rank at least n, inside the regime.
    chain_ok = (regime and n >= 2 and r == n - 1 and mult == 1
                and all(rk >= n for rk in profile if rk != r))
    if chain_ok:
        lhs_majo = n_exact
        rhs_majo = (q**(p - n + 1) + (m - 1) * q**(p - n)
                    + (q**n - m) * q**(p - n - 1))
        checks.append(Check("majo3", "<=", lhs_majo, rhs_majo, lhs_majo <= rhs_majo))
        required.append("majo3")

        lhs_mino = q**n + q**p - 1 + (q**(p - 2 * n + 1) - 1) * (m - 1)
        checks.append(Check("mino3", "<=", lhs_mino, n_exact, lhs_mino <= n_exact))
        required.append("mino3")

        lhs_mineq = (q**n + q**p - q**(p - 2 * n + 1) - q**(p - n + 1)
                     + q**(p - n) - q**(p - 1))
        rhs_mineq = m * (q**(p - n) - q**(p - n - 1) - q**(p - 2 * n + 1) + 1)
        checks.append(Check("minequality", "<=", lhs_mineq, rhs_mineq,
                            lhs_mineq <= rhs_mineq))
        required.append("minequality")

        checks.append(Check("final_reduction", "<=", q**(p - n), q**(p - 2 * n + 1),
                            q**(p - n) <= q**(p - 2 * n + 1)))
    else:
        reason = ("needs p >= 2n-1, n >= 2, a unique rank n-1 member, "
                  "and every other rank at least n")
        for name in ("majo3", "mino3", "minequality", "final_reduction"):
            checks.append(Check(name, "<=", status="skipped", reason=reason))

    contradiction = False
    via = None
    if regime:
        by_name = {c.name: c for c in checks}
        for name in ("claim1", "coverage", "claim2", "claim3",
                     "majo3", "mino3", "minequality"):
            if name in required and by_name[name].holds is False:
                contradiction = True
                via = name
                break

    return TraceReport(
        q=q, p=p, n=n,
        profile=profile,
        incidence_exact=n_exact,
        regime_met=regime,
        checks=checks,
        contradiction=contradiction,
        contradiction_via=via,
    )
