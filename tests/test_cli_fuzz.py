"""A fuzzer for the CLI contract: near-valid requests, run in-process.

Every request ends in a documented exit code (0, 2, 3, 4 or 5; argparse's
usage errors exit 2 through SystemExit), lets no exception out of ``main``,
writes no traceback, and a report from an exit 0 parses as JSON.  Each
request runs under a drawn REFLEXFF_GUARD: unset, low, or malformed.  The
guard a search walks under is low (with the variable unset, a ``--guard``
flag sets it), and dimensions are drawn small or far past every bound,
never in between, so each request is refused or finishes at once.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reflexff import construct_regular_rep, field_make, space_to_json
from reflexff.cli import main

# integers that pass no validation, or pass it by accident: negative, zero,
# past every bound, and values of the wrong JSON type
ODD = [-1, 0, 2**70, 1.0, True, "1", None]
MISSING = object()


def rarely(odd, usual):
    """``usual``, or ``odd`` about one time in sixteen; hypothesis leans to
    the least and the greatest draw, so odd is a middle one."""
    return st.integers(0, 15).flatmap(lambda i: odd if i == 9 else usual)


def value(*valid):
    """One of the small ``valid`` values, or now and then an odd one."""
    return rarely(st.sampled_from(ODD), st.sampled_from(valid))


def dim():
    return rarely(st.sampled_from([10**6, 2**70, *ODD]), st.integers(1, 3))


@st.composite
def fragment(draw, **fields):
    """A JSON object with ``fields``' values, each key now and then missing."""
    out = {}
    for key, strategy in fields.items():
        item = draw(rarely(st.just(MISSING), strategy))
        if item is not MISSING:
            out[key] = item
    return out


@st.composite
def matrix(draw, rows, cols, top=1):
    """A matrix fragment, its entries (0 to ``top``) shaped as declared when
    that shape is small."""
    frag = draw(fragment(rows=rarely(dim(), st.just(rows)),
                         cols=rarely(dim(), st.just(cols))))
    r, c = frag.get("rows"), frag.get("cols")
    if type(r) is int and type(c) is int and 0 <= r <= 3 and 0 <= c <= 3:
        shape = [[draw(value(*range(top + 1))) for _ in range(c)]
                 for _ in range(r)]
    else:
        shape = draw(st.lists(st.lists(value(0, 1), max_size=3), max_size=3))
    frag["entries"] = draw(rarely(st.sampled_from(ODD), st.just(shape)))
    return frag


@st.composite
def space(draw):
    field = draw(rarely(st.sampled_from(ODD), st.one_of(
        fragment(p=value(2, 3, 5, 7)),
        fragment(p=value(2), k=value(2), modulus=value([1, 1, 1])),
        fragment(p=value(3), k=value(2),
                 modulus=rarely(st.lists(value(0, 1, 2), max_size=4),
                                st.just([2, 1, 1]))))))
    dim_u, dim_v = draw(dim()), draw(dim())
    rows = dim_v if type(dim_v) is int else 2
    cols = dim_u if type(dim_u) is int else 2
    basis = draw(rarely(st.sampled_from(ODD),
                        st.lists(matrix(rows, cols), max_size=3)))
    return draw(fragment(field=st.just(field), dim_u=st.just(dim_u),
                         dim_v=st.just(dim_v), basis=st.just(basis)))


# regular-rep over GF(2) and GF(3), n = 2: non-reflexive, with closure all
# of the 2x2 maps, so a census witness g is in R(S) unless it is in S
KNOWN = [space_to_json(construct_regular_rep(field_make(p), 2)) for p in (2, 3)]
spaces = st.one_of(st.sampled_from(KNOWN), space())


def flag(*valid):
    """A command-line integer: small, or now and then far past every bound
    or malformed."""
    return rarely(st.sampled_from(["-1", "0", str(10**6), str(2**70), "1.0", "x"]),
                  st.sampled_from([str(v) for v in valid]))


def tail():
    return st.lists(st.sampled_from(["--pretty", "--output=out.json"]),
                    max_size=2, unique=True)


profile = st.one_of(
    st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 9)), max_size=4)
    .map(lambda pairs: ",".join(f"{r}:{c}" for r, c in pairs)),
    st.sampled_from(["0:1,1:1", "1:1,2:3", "2:1,1:2,0:1", "1:8", ":", "a:b",
                     "1:1,1:1", f"0:{2**70}", ","]))


# REFLEXFF_GUARD: low, unset (None), or refused (exit 2 where it is read);
# hypothesis leans to the first
GUARDS = ["2000", None, "1", "8", "0", "-5", "junk"]


@st.composite
def request(draw, command):
    """(argv, space file, witness file, REFLEXFF_GUARD); MISSING for a file
    not written, None for the variable unset."""
    guard = draw(st.sampled_from(GUARDS))
    if command in ("analyze", "closure", "mrk"):
        return [command, "s.json", *draw(tail())], draw(spaces), MISSING, guard
    if command == "census":
        return (["census", "s.json", "g.json", *draw(tail())], draw(spaces),
                draw(rarely(st.sampled_from(ODD), matrix(2, 2, top=2))), guard)
    if command == "trace":
        q, p, n = draw(flag(2, 3, 4, 6)), draw(flag(1, 2, 3)), draw(flag(1, 2))
        if draw(st.booleans()) and {q, p, n} <= {"1", "2", "3", "4", "6"}:
            # counts that sum to q^n over ranks 0..p, as a real coset's do
            total, parts = int(q) ** int(n), {}
            while total:
                count = draw(st.integers(1, total))
                rank = draw(st.integers(0, int(p)))
                parts[rank] = parts.get(rank, 0) + count
                total -= count
            text = ",".join(f"{r}:{c}" for r, c in parts.items())
        else:
            text = draw(profile)
        argv = ["trace", "--q", q, "--p", p, "--n", n, "--profile", text]
    elif command == "search":
        argv = ["search", "--q", draw(flag(2, 3, 4, 6)),
                "--dim-u", draw(flag(1, 2, 3)), "--dim-v", draw(flag(1, 2, 3)),
                "--n", draw(flag(0, 1, 2, 3)),
                "--jobs", draw(st.sampled_from(["1", "2", "0"]))]
        if draw(st.booleans()):
            argv += ["--mode", "random", "--samples", draw(flag(1, 2, 3)),
                     "--seed", draw(flag(0, 7))]
        flags = ["--guard=1", "--guard=20", "--guard=0"]
        argv += draw(st.lists(st.sampled_from(["--extremal", *flags]),
                              max_size=2, unique=True))
        if guard is None and not set(flags) & set(argv):
            # the default guard, 10^7, admits slices of millions of spaces
            argv.append(draw(st.sampled_from(flags)))
    else:
        argv = ["construct", "regular-rep", "--p", draw(flag(2, 3, 4)),
                "--n", draw(flag(1, 2, 3))]
    return argv + draw(tail()), MISSING, MISSING, guard


COMMANDS = ["analyze", "closure", "mrk", "census", "trace", "search", "construct"]


@settings(max_examples=280, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(COMMANDS).flatmap(request))
# an OverflowError once escaped main here: no machine index holds dim_v
@example((["closure", "s.json"],
          {"field": {"p": 2, "k": 2}, "dim_u": 3, "dim_v": 2**70, "basis": []},
          MISSING, "2000"))
# a pooled exhaustive search with REFLEXFF_GUARD unset
@example((["search", "--q", "2", "--dim-u", "2", "--dim-v", "1", "--n", "1",
           "--jobs", "2", "--guard=20"], MISSING, MISSING, None))
def test_cli_requests_keep_the_exit_contract(tmp_path, monkeypatch, req):
    # reports, witness files and any violation dump go to tmp_path
    argv, space_json, g_json, guard = req
    if guard is None:
        monkeypatch.delenv("REFLEXFF_GUARD", raising=False)
    else:
        monkeypatch.setenv("REFLEXFF_GUARD", guard)
    monkeypatch.chdir(tmp_path)
    for name, body in (("s.json", space_json), ("g.json", g_json),
                       ("out.json", MISSING)):
        path = tmp_path / name
        path.unlink(missing_ok=True)
        if body is not MISSING:
            path.write_text(json.dumps(body))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    assert code in (0, 2, 3, 4, 5), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and "--pretty" not in argv:
        json.loads((tmp_path / "out.json").read_text()
                   if "--output=out.json" in argv else out.getvalue())
