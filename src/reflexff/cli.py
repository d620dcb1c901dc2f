"""Command-line front end: load spaces, run analyses, emit JSON reports.

Exit codes are a stable contract:
  0 success, 2 malformed input (including a malformed REFLEXFF_GUARD, a search
  with --dim-u, --dim-v, --jobs or --guard below 1, a trace profile that
  repeats a rank, a malformed --profile entry, a trace p whose report numbers
  could pass Python's default limit on printed digits, a trace or search q
  that is not a prime power or is above 2^16, a space file's field order
  above 2^16 and a JSON file nested too deep)
  or a report that cannot be written (an unwritable --output, a closed
  stdout), 3 dependent basis, 4 census
  membership failure, 5 guard exceeded by an exhaustive search slice or the
  closure walk of an n = 0 slice's zero space, a census coset, the point or
  member walk of each random search sample, the n*dim_u*dim_v entries each
  random search sample draws (bounded by REFLEXFF_GUARD or 10^7, whatever
  --guard says), a random search's sample count, the walks of a single
  space (analyze, closure, mrk), or a closure system whose shape admits
  (dim_u*dim_v)^2 > 2^24 entries (a fixed bound), 10 rank-bound violation,
  130 interrupted (SIGINT, as from Ctrl-C).
Reports go to stdout as pure JSON, or to --output; --pretty renders analyze,
census, trace and search as a table instead.  Diagnostics go to stderr, and
nowhere when the process started with fd 2 closed.
"""

from __future__ import annotations

import argparse
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


def _emit(args, payload: dict, title=None, skip=(), checks=None) -> int:
    """Write the report: JSON, or with --pretty and a ``title`` a table of
    every key but meta, ``checks`` and those in ``skip``, in payload order,
    then one line per encoded check in ``payload[checks]``: its verdict, or
    why it was skipped."""
    if args.pretty and title is not None:
        hidden = {"meta", checks, *skip}
        lines = [title, "-" * len(title)]
        lines += [f"{k:>24}: {v}" for k, v in payload.items() if k not in hidden]
        for c in payload[checks] if checks else ():
            state = ("skipped: " + c["reason"] if c["status"] == "skipped"
                     else f"{c['lhs']} {c['relation']} {c['rhs']} -> {c['holds']}")
            lines.append(f"{c['name']:>24}: {state}")
        text = "\n".join(lines) + "\n"
    else:
        text = dumps(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif sys.stdout is None:  # the process started with fd 1 closed
        raise OSError("cannot write the report: standard output is closed")
    else:
        sys.stdout.write(text)
    return 0


def cmd_analyze(args) -> int:
    space = load_space(args.space)
    report = analyze(space).to_dict()
    report["meta"] = _meta("analyze", {"space": args.space}, space.field)
    return _emit(args, report, "operator space analysis")


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
    return _emit(args, report, "coset census", checks="verdicts")


def _clip(text: str) -> str:
    """repr(text), cut short when it is too long to echo in a message."""
    if len(text) <= 24:
        return repr(text)
    return f"{text[:24]!r}... ({len(text)} characters)"


def _profile_int(text: str, what: str) -> int:
    """int(text), or a ValueError that names `what` and says what was expected."""
    try:
        return int(text)
    except ValueError:
        digits, limit = text.strip().lstrip("+-"), sys.get_int_max_str_digits()
        if digits.isdecimal() and len(digits) > limit > 0:
            raise ValueError(f"{what} has {len(digits)} digits, more than the "
                             f"{limit} allowed") from None
        raise ValueError(f"{what} is not a decimal integer: {_clip(text)}") from None


def _parse_profile(text: str) -> dict:
    profile = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        rank, colon, count = part.partition(":")
        if not colon:
            raise ValueError(f"profile entry is not rank:count: {_clip(part)}")
        rank = _profile_int(rank, "profile rank")
        if rank in profile:
            raise ValueError(f"rank {rank} appears twice in the profile")
        profile[rank] = _profile_int(count, f"profile count for rank {rank}")
    if not profile:
        raise ValueError("empty profile")
    return profile


def cmd_trace(args) -> int:
    profile = _parse_profile(args.profile)
    report = proof_trace(args.q, args.p, args.n, profile).to_dict()
    report["meta"] = _meta(
        "trace", {"q": args.q, "p": args.p, "n": args.n, "profile": args.profile})
    return _emit(args, report, "counting-argument trace", checks="checks")


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
    return _emit(args, payload, "search report",
                 skip=("violations", "extremal", "max_mrk_witness",
                       "bound_2n_minus_3_witness"))


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

    def command(name, func, help, *positionals):
        p = sub.add_parser(name, help=help)
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(func=func)
        return p

    command("analyze", cmd_analyze, "full analysis of a space file", "space")
    command("closure", cmd_closure, "write the reflexive closure as a space file",
            "space")
    command("mrk", cmd_mrk, "minimal rank and witness of a space file", "space")
    command("census", cmd_census, "coset census for a space and a witness g",
            "space").add_argument("g", help="matrix file for the closure witness")

    q_help = "field order: a prime power up to 2^16"
    p = command("trace", cmd_trace, "exact trace of the counting argument")
    p.add_argument("--q", type=int, required=True, help=q_help)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--profile", required=True, help='rank profile "rank:count,..."')

    p = command("search", cmd_search, "verify the rank bound over a slice of spaces")
    p.add_argument("--q", type=int, required=True, help=q_help)
    p.add_argument("--dim-u", type=int, required=True, dest="dim_u")
    p.add_argument("--dim-v", type=int, required=True, dest="dim_v")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--guard", type=int, default=None,
                   help="bound on the subspaces enumerated, or on a random "
                        "search's sample count and each sample's points and "
                        "members (default 10^7 or REFLEXFF_GUARD)")
    p.add_argument("--extremal", action="store_true",
                   help="collect every maximum-mrk witness")

    p = command("construct", cmd_construct, "write a constructed space file")
    p.add_argument("family", choices=["regular-rep"])
    p.add_argument("--p", type=int, required=True, help="prime field order")
    p.add_argument("--n", type=int, required=True)

    # every subcommand's own arguments come first in its help
    for p in sub.choices.values():
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--pretty", action="store_true",
                       help="human-readable table instead of JSON (analyze, "
                            "census, trace and search)")

    parser.commands = sub.choices  # name -> subparser, for main's usage errors
    return parser


_PARSER = None  # built on main's first call, then kept for the process


def _diagnose(text: str) -> None:
    """Write ``text`` to stderr; nothing when the process started with fd 2
    closed (``sys.stderr`` is None), where print would fall back to stdout
    and mix the diagnostic into the report stream."""
    if sys.stderr is not None:
        sys.stderr.write(text)


def main(argv=None) -> int:
    """Run one CLI request; callable repeatedly in one process."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args, extra = _PARSER.parse_known_args(argv)
    if extra:
        # reported by the parser that read it: the top level reads up to the subcommand
        argv = sys.argv[1:] if argv is None else argv
        owner = _PARSER if argv.index(args.command) else _PARSER.commands[args.command]
        owner.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except MembershipError as e:
        which = "g in S" if e.which == "in_space" else "g not in R(S)"
        _diagnose(f"error: {which}\n")
        return 4
    except DependentBasisError as e:
        _diagnose(f"error: {e}\n")
        return 3
    except GuardExceeded as e:
        _diagnose(f"error: {e}\n")
        return 5
    except TheoremViolation as e:
        text = dumps(e.report.to_dict())
        try:
            with open(VIOLATION_DUMP, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            # the report is the only evidence of the breach: never lose it
            _diagnose(f"THEOREM VIOLATION: cannot write {VIOLATION_DUMP} ({err}); "
                      f"report follows\n{text}")
        else:
            _diagnose(f"THEOREM VIOLATION: report dumped to {VIOLATION_DUMP}\n")
        return 10
    except (ValueError, TypeError, KeyError, OSError) as e:
        _diagnose(f"error: {e}\n")
        return 2
    except KeyboardInterrupt:
        _diagnose("error: interrupted\n")
        return 130


if __name__ == "__main__":
    sys.exit(main())
