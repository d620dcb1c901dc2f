"""Command-line front end: load spaces, run analyses, emit JSON reports.

Exit codes are a stable contract:
  0 success, 2 malformed input (including a malformed REFLEXFF_GUARD, a search
  with --dim-u, --dim-v, --jobs or --guard below 1, a trace profile that
  repeats a rank, a field order above 2^16 and a JSON file nested too deep),
  3 dependent basis, 4 census membership failure, 5 guard exceeded by a
  search slice or a census coset, 10 rank-bound violation.
Reports go to stdout as pure JSON unless --output or --pretty is given;
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .census import census_report, coset_make, proof_trace
from .errors import (
    DependentBasisError,
    GuardExceeded,
    MembershipError,
    TheoremViolation,
)
from .field import field_from_order, field_make
from .opspace import analyze
from .search import (
    SearchParams,
    construct_regular_rep,
    exhaustive_verify,
    find_extremal,
    random_verify,
)
from .serialize import (
    dumps,
    field_to_json,
    load_matrix,
    load_space,
    space_to_json,
)

VIOLATION_DUMP = "theorem_violation.json"


def _meta(command: str, params: dict, field=None) -> dict:
    meta = {
        "tool": "reflexff",
        "version": __version__,
        "command": command,
        "params": params,
    }
    if field is not None:
        meta["field"] = field_to_json(field)
    return meta


def _emit(args, payload: dict, pretty_lines=None) -> int:
    if getattr(args, "pretty", False) and pretty_lines is not None:
        text = "\n".join(pretty_lines) + "\n"
    else:
        text = dumps(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _kv_lines(d: dict, title: str) -> list:
    lines = [title, "-" * len(title)]
    for k, v in d.items():
        lines.append(f"{k:>24}: {v}")
    return lines


def _check_lines(checks) -> list:
    """One line per encoded check: its verdict, or why it was skipped."""
    lines = []
    for c in checks:
        state = ("skipped: " + c["reason"] if c["status"] == "skipped"
                 else f"{c['lhs']} {c['relation']} {c['rhs']} -> {c['holds']}")
        lines.append(f"{c['name']:>24}: {state}")
    return lines


def cmd_analyze(args) -> int:
    space = load_space(args.space)
    report = analyze(space).to_dict()
    report["meta"] = _meta("analyze", {"space": args.space}, space.field)
    pretty = _kv_lines({k: v for k, v in report.items() if k != "meta"},
                       "operator space analysis")
    return _emit(args, report, pretty)


def cmd_closure(args) -> int:
    space = load_space(args.space)
    closure = space.reflexive_closure()
    payload = space_to_json(closure)
    payload["_meta"] = _meta("closure", {"space": args.space}, space.field)
    return _emit(args, payload)


def cmd_mrk(args) -> int:
    space = load_space(args.space)
    if space.n == 0:
        payload = {"mrk": None, "witness": None}
    else:
        value, witness = space.mrk()
        payload = {"mrk": value, "witness": list(witness)}
    payload["meta"] = _meta("mrk", {"space": args.space}, space.field)
    return _emit(args, payload)


def cmd_census(args) -> int:
    space = load_space(args.space)
    g = load_matrix(args.g, space.field)
    coset = coset_make(space, g)
    report = census_report(coset).to_dict()
    report["meta"] = _meta("census", {"space": args.space, "g": args.g},
                           space.field)
    pretty = _kv_lines({k: v for k, v in report.items()
                        if k not in ("meta", "verdicts")}, "coset census")
    return _emit(args, report, pretty + _check_lines(report["verdicts"]))


def _parse_profile(text: str) -> dict:
    profile = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        rank, _, count = part.partition(":")
        rank = int(rank)
        if rank in profile:
            raise ValueError(f"rank {rank} appears twice in the profile")
        profile[rank] = int(count)
    if not profile:
        raise ValueError("empty profile")
    return profile


def cmd_trace(args) -> int:
    profile = _parse_profile(args.profile)
    report = proof_trace(args.q, args.p, args.n, profile).to_dict()
    report["meta"] = _meta(
        "trace", {"q": args.q, "p": args.p, "n": args.n, "profile": args.profile})
    pretty = _kv_lines({k: report[k] for k in
                        ("q", "p", "n", "profile", "incidence_exact",
                         "regime_met", "contradiction", "contradiction_via")},
                       "counting-argument trace")
    return _emit(args, report, pretty + _check_lines(report["checks"]))


def cmd_search(args) -> int:
    field = field_from_order(args.q)
    params = SearchParams(
        field=field,
        dim_u=args.dim_u,
        dim_v=args.dim_v,
        n=args.n,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        jobs=args.jobs,
        guard=args.guard,
        deep_checks=args.deep_checks,
    )
    if args.extremal:
        report = find_extremal(params)
    elif args.mode == "random":
        report = random_verify(params)
    else:
        report = exhaustive_verify(params)
    payload = report.to_dict()
    payload["meta"] = _meta(
        "search",
        {"q": args.q, "dim_u": args.dim_u, "dim_v": args.dim_v, "n": args.n,
         "mode": args.mode, "samples": args.samples, "seed": args.seed,
         "guard": payload["guard"], "extremal": args.extremal},
        field)
    pretty = _kv_lines({k: v for k, v in payload.items()
                        if k not in ("meta", "violations", "extremal",
                                     "max_mrk_witness",
                                     "bound_2n_minus_3_witness")},
                       "search report")
    return _emit(args, payload, pretty)


def cmd_construct(args) -> int:
    field = field_make(args.p, 1)
    space = construct_regular_rep(field, args.n)
    payload = space_to_json(space)
    payload["_meta"] = _meta("construct",
                             {"family": args.family, "p": args.p, "n": args.n},
                             field)
    return _emit(args, payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflexff",
        description="operator spaces over small finite fields: closures, "
                    "minimal rank, censuses, exhaustive verification")
    parser.add_argument("--version", action="version",
                        version=f"reflexff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--pretty", action="store_true",
                       help="human-readable table instead of JSON")

    p = sub.add_parser("analyze", help="full analysis of a space file")
    p.add_argument("space")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("closure", help="write the reflexive closure as a space file")
    p.add_argument("space")
    common(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("mrk", help="minimal rank and witness of a space file")
    p.add_argument("space")
    common(p)
    p.set_defaults(func=cmd_mrk)

    p = sub.add_parser("census", help="coset census for a space and a witness g")
    p.add_argument("space")
    p.add_argument("g", help="matrix file for the closure witness")
    common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("trace", help="exact trace of the counting argument")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--profile", required=True, help='rank profile "rank:count,..."')
    common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("search", help="verify the rank bound over a slice of spaces")
    p.add_argument("--q", type=int, required=True, help="field order (prime power)")
    p.add_argument("--dim-u", type=int, required=True, dest="dim_u")
    p.add_argument("--dim-v", type=int, required=True, dest="dim_v")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--guard", type=int, default=None,
                   help="enumeration guard (default 10^7 or REFLEXFF_GUARD)")
    p.add_argument("--extremal", action="store_true",
                   help="collect every maximum-mrk witness")
    p.add_argument("--deep-checks", action="store_true", dest="deep_checks",
                   help="also assert the hyperplane local-dependence property")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("construct", help="write a constructed space file")
    p.add_argument("family", choices=["regular-rep"])
    p.add_argument("--p", type=int, required=True, help="prime field order")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_construct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MembershipError as e:
        which = "g in S" if e.which == "in_space" else "g not in R(S)"
        print(f"error: {which}", file=sys.stderr)
        return 4
    except DependentBasisError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except GuardExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except TheoremViolation as e:
        text = dumps(e.report.to_dict())
        try:
            with open(VIOLATION_DUMP, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            # the report is the only evidence of the breach: never lose it
            print(f"THEOREM VIOLATION: cannot write {VIOLATION_DUMP} ({err}); "
                  "report follows", file=sys.stderr)
            sys.stderr.write(text)
        else:
            print(f"THEOREM VIOLATION: report dumped to {VIOLATION_DUMP}",
                  file=sys.stderr)
        return 10
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
