import argparse
import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time

import pytest

from reflexff import dumps, field_make, space_to_json, construct_regular_rep
from reflexff import GuardExceeded, cli, opspace
from reflexff.cli import main


def run_cli(args):
    """(exit code, stdout, stderr) of one in-process request; argparse's own
    exits (usage errors, --help, --version) return their code too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "space.json"
    s = construct_regular_rep(field_make(2), 2)
    path.write_text(dumps(space_to_json(s)))
    return str(path)


@pytest.fixture
def e11_file(tmp_path):
    path = tmp_path / "e11.json"
    path.write_text(dumps({"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0]]}))
    return str(path)


def test_analyze(space_file):
    code, out, _ = run_cli(["analyze", space_file])
    assert code == 0
    d = json.loads(out)
    assert d["reflexive"] is False
    assert d["closure_dim"] == 4
    assert d["mrk"] == 2
    assert d["meta"]["tool"] == "reflexff"
    assert d["meta"]["field"] == {"p": 2, "k": 1}


def test_analyze_empty_basis(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(dumps({"field": {"p": 2, "k": 1}, "dim_u": 2, "dim_v": 2,
                           "basis": []}))
    code, out, _ = run_cli(["analyze", str(path)])
    assert code == 0
    d = json.loads(out)
    assert d["reflexive"] is True and d["mrk"] is None


def test_analyze_reflexive_lld_space(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(dumps({
        "field": {"p": 2, "k": 1}, "dim_u": 2, "dim_v": 2,
        "basis": [{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0]]},
                  {"rows": 2, "cols": 2, "entries": [[0, 1], [0, 0]]}]}))
    code, out, _ = run_cli(["analyze", str(path)])
    assert code == 0
    d = json.loads(out)
    assert d["reflexive"] is True and d["lld"] is True


def test_malformed_input_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["analyze", str(bad)])
    assert code == 2 and err
    code, _, _ = run_cli(["analyze", str(tmp_path / "missing.json")])
    assert code == 2


def test_mrk_of_the_zero_space(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(dumps({"field": {"p": 3, "k": 1}, "dim_u": 2, "dim_v": 2,
                           "basis": []}))
    code, out, _ = run_cli(["mrk", str(path)])
    assert code == 0
    d = json.loads(out)
    assert d.pop("meta")["command"] == "mrk"
    assert d == {"mrk": None, "witness": None}


@pytest.mark.parametrize("space,message", [
    ([], "space file must hold a JSON object"),
    ({"field": [2, 1], "dim_u": 2, "dim_v": 2, "basis": []},
     "field fragment must be an object"),
    ({"field": {"p": 2}, "dim_u": 2, "dim_v": 2, "basis": [[[1, 0], [0, 1]]]},
     "matrix fragment must be an object"),
], ids=["space", "field", "matrix"])
def test_non_object_fragment_exit_2(tmp_path, space, message):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(space))
    for command in ("analyze", "mrk", "closure"):
        code, out, err = run_cli([command, str(path)])
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_census_non_object_g_exit_2(space_file, tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text("[[1, 0], [0, 0]]")
    code, out, err = run_cli(["census", space_file, str(gpath)])
    assert (code, out, err) == (2, "", "error: matrix fragment must be an object\n")


@pytest.mark.parametrize("space, message", [
    ({"field": {"p": 2}, "dim_u": 2, "basis": []},
     "space file is missing the key 'dim_v'"),
    ({"field": {"p": 2}, "dim_u": 2, "dim_v": 2,
      "basis": [{"rows": 2, "entries": [[1, 0], [0, 1]]}]},
     "matrix fragment is missing the key 'cols'"),
    ({"field": {"p": 2}, "dim_u": 2, "dim_v": 2,
      "basis": [{"rows": 2, "cols": 2, "entries": 5}]},
     "entries must be a JSON array"),
    ({"field": {"p": 2, "k": 2, "modulus": 3}, "dim_u": 2, "dim_v": 2,
      "basis": []},
     "modulus must be a JSON array"),
], ids=["dim_v", "cols", "entries", "modulus"])
def test_malformed_file_message_names_the_field(tmp_path, space, message):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(space))
    code, out, err = run_cli(["analyze", str(path)])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("request_args, message", [
    (["census", "{space}", "{g}"],
     "witness shape or field disagrees with the space"),
    (["census", "{space}", "{ragged}"], "entries do not match the declared shape"),
    (["search", "--q", "2", "--dim-u", "2", "--dim-v", "2", "--n", "1",
      "--mode", "random", "--samples", "0"], "random mode needs samples >= 1"),
    (["construct", "regular-rep", "--p", "2", "--n", "0"], "n must be >= 1"),
], ids=["census-g-shape", "ragged-entries", "random-no-samples", "construct-n0"])
def test_rejected_input_exit_2(space_file, tmp_path, request_args, message):
    g = tmp_path / "g.json"
    g.write_text(dumps({"rows": 3, "cols": 2,
                        "entries": [[1, 0], [0, 0], [0, 0]]}))
    ragged = tmp_path / "ragged.json"
    ragged.write_text(dumps({"rows": 2, "cols": 2, "entries": [[1, 0], [0]]}))
    argv = [a.format(space=space_file, g=g, ragged=ragged) for a in request_args]
    code, out, err = run_cli(argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_closed_stdout_exit_2(space_file, cli_child):
    code, out, err = cli_child(["analyze", space_file], stdout_closed=True)
    assert (code, out) == (2, "")
    assert err == "error: cannot write the report: standard output is closed\n"


def test_closed_stderr_keeps_diagnostics_off_stdout(cli_child):
    # with fd 2 closed sys.stderr is None, and print(file=None) would put the
    # error line into the report stream
    code, out, err = cli_child(["analyze", "/nonexistent.json"], stderr_closed=True)
    assert (code, out, err) == (2, "", "")


def _search_child_setup():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    # a pytest started with SIGINT ignored, as a background job of a
    # non-interactive shell is, would pass SIG_IGN on to the child, and a
    # Python started so installs no KeyboardInterrupt handler
    signal.signal(signal.SIGINT, signal.SIG_DFL)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_interrupted_search_exit_130(jobs):
    # Ctrl-C sends SIGINT to the whole foreground process group, pool
    # workers included; the child runs in its own session, so the signal
    # goes to the group as a terminal would send it.  The search below
    # takes far longer than the wait before the signal.
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "reflexff.cli", "search", "--q", "2",
         "--dim-u", "3", "--dim-v", "3", "--n", "3", "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, env={**os.environ, "PYTHONPATH": path},
        preexec_fn=_search_child_setup)
    try:
        time.sleep(2)
        os.killpg(child.pid, signal.SIGINT)
        out, err = child.communicate(timeout=10)
        # no process of the session is left running
        deadline = time.monotonic() + 5
        while True:
            try:
                os.killpg(child.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a worker outlived the search"
            time.sleep(0.05)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
    assert (child.returncode, out, err) == (130, "", "error: interrupted\n")


def test_dependent_basis_exit_3(tmp_path):
    path = tmp_path / "dep.json"
    ident = {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]}
    path.write_text(dumps({"field": {"p": 2, "k": 1}, "dim_u": 2, "dim_v": 2,
                           "basis": [ident, ident]}))
    code, _, err = run_cli(["analyze", str(path)])
    assert code == 3 and "depend" in err


def test_census_happy_path(space_file, e11_file):
    code, out, _ = run_cli(["census", space_file, e11_file])
    assert code == 0
    d = json.loads(out)
    assert d["incidence_count"] == "7"
    assert d["rank_profile"] == {"1": 3, "2": 1}


def test_census_g_in_s_exit_4(space_file, tmp_path):
    gpath = tmp_path / "ident.json"
    gpath.write_text(dumps({"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]}))
    code, _, err = run_cli(["census", space_file, str(gpath)])
    assert code == 4 and "g in S" in err


def test_census_g_outside_closure_exit_4(tmp_path):
    spath = tmp_path / "s.json"
    spath.write_text(dumps({
        "field": {"p": 2, "k": 1}, "dim_u": 2, "dim_v": 2,
        "basis": [{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0]]},
                  {"rows": 2, "cols": 2, "entries": [[0, 1], [0, 0]]}]}))
    gpath = tmp_path / "e21.json"
    gpath.write_text(dumps({"rows": 2, "cols": 2, "entries": [[0, 0], [1, 0]]}))
    code, _, err = run_cli(["census", str(spath), str(gpath)])
    assert code == 4 and "g not in R(S)" in err


def test_census_guard_exit_5(tmp_path, monkeypatch):
    # a 9-member GF(3) coset against a guard of 8
    spath = tmp_path / "s.json"
    spath.write_text(dumps({
        "field": {"p": 3, "k": 1}, "dim_u": 2, "dim_v": 2,
        "basis": [{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]},
                  {"rows": 2, "cols": 2, "entries": [[0, 1], [0, 0]]}]}))
    gpath = tmp_path / "e11.json"
    gpath.write_text(dumps({"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0]]}))
    monkeypatch.setenv("REFLEXFF_GUARD", "8")
    code, out, err = run_cli(["census", str(spath), str(gpath)])
    assert code == 5 and out == "" and "guard" in err
    monkeypatch.setenv("REFLEXFF_GUARD", "9")
    code, out, _ = run_cli(["census", str(spath), str(gpath)])
    assert code == 0 and json.loads(out)["rank_profile"] == {"1": 6, "2": 3}


def test_census_closure_guard_exit_5_after_the_in_space_test(tmp_path, monkeypatch):
    # GF(3) 2x2: the closure walks 4 points.  Against a guard of 3, g in S
    # still exits 4, and any other g exits 5 on the closure walk
    spath = tmp_path / "s.json"
    spath.write_text(dumps({
        "field": {"p": 3, "k": 1}, "dim_u": 2, "dim_v": 2,
        "basis": [{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0]]},
                  {"rows": 2, "cols": 2, "entries": [[0, 1], [0, 0]]}]}))
    paths = {}
    for name, entries in [("in_s", [[1, 2], [0, 0]]), ("e21", [[0, 0], [1, 0]])]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(dumps({"rows": 2, "cols": 2, "entries": entries}))
    monkeypatch.setenv("REFLEXFF_GUARD", "3")
    code, out, err = run_cli(["census", str(spath), str(paths["in_s"])])
    assert code == 4 and out == "" and "g in S" in err
    code, out, err = run_cli(["census", str(spath), str(paths["e21"])])
    assert code == 5 and out == "" and err.startswith("error: closure walk")
    monkeypatch.setenv("REFLEXFF_GUARD", "4")
    code, out, err = run_cli(["census", str(spath), str(paths["e21"])])
    assert code == 4 and out == "" and "g not in R(S)" in err


def test_single_space_walk_past_the_guard_exit_5(tmp_path):
    # (2^26 - 1) points of GF(2)^26 for the closure and local dependence
    # walks; the one-member rank scan stays inside the guard
    path = tmp_path / "wide.json"
    path.write_text(dumps({
        "field": {"p": 2, "k": 1}, "dim_u": 26, "dim_v": 1,
        "basis": [{"rows": 1, "cols": 26, "entries": [[1] + [0] * 25]}]}))
    for command in ("analyze", "closure"):
        code, out, err = run_cli([command, str(path)])
        assert code == 5 and out == "" and "guard" in err
    code, out, _ = run_cli(["mrk", str(path)])
    assert code == 0 and json.loads(out)["mrk"] == 1


@pytest.mark.parametrize("command", ["analyze", "closure", "mrk"])
def test_single_space_guard_env_exit_5(tmp_path, monkeypatch, command):
    # span{I, E12} over GF(3): 4 projective points and 4 projective members
    # (a memo closure); span{I, [[0, 3], [1, 0]]} over GF(257): 258 of each,
    # which the guard counts though the determinant's zeros are solved for
    for p, second, points in [(3, [[0, 1], [0, 0]], 4), (257, [[0, 3], [1, 0]], 258)]:
        path = tmp_path / f"s{p}.json"
        path.write_text(dumps({
            "field": {"p": p, "k": 1}, "dim_u": 2, "dim_v": 2,
            "basis": [{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]},
                      {"rows": 2, "cols": 2, "entries": second}]}))
        monkeypatch.setenv("REFLEXFF_GUARD", str(points - 1))
        code, out, err = run_cli([command, str(path)])
        assert code == 5 and out == "" and f"guard {points - 1}" in err
        monkeypatch.setenv("REFLEXFF_GUARD", str(points))
        code, out, _ = run_cli([command, str(path)])
        assert code == 0 and json.loads(out)


@pytest.mark.parametrize("field,second,pinned", [
    ({"p": 257, "k": 1}, [[0, 3], [1, 0]], (2, [0, 1], {"2": 258}, 4)),
    ({"p": 2, "k": 9}, [[0, 1], [0, 0]], (1, [0, 1], {"1": 1, "2": 512}, 3)),
], ids=["gf257", "gf512"])
def test_big_field_2x2_requests_are_pinned(tmp_path, field, second, pinned):
    # span{I, second}: over GF(257) det(x_0 I + x_1 second) = x_0^2 - 3 x_1^2
    # has no zero, 3 being no square mod 257; over GF(512) E12 spans the one
    # rank-one class, and R(S) is the upper triangle
    path = tmp_path / "s.json"
    path.write_text(dumps({
        "field": field, "dim_u": 2, "dim_v": 2,
        "basis": [{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]},
                  {"rows": 2, "cols": 2, "entries": second}]}))
    mrk, witness, dist, closure_dim = pinned
    code, out, _ = run_cli(["analyze", str(path)])
    report = json.loads(out)
    assert code == 0 and (report["mrk"], report["mrk_witness"]) == (mrk, witness)
    assert (report["rank_distribution"], report["closure_dim"]) == (dist, closure_dim)
    code, out, _ = run_cli(["mrk", str(path)])
    assert code == 0 and (json.loads(out)["mrk"], json.loads(out)["witness"]) == (mrk, witness)
    code, out, _ = run_cli(["closure", str(path)])
    assert code == 0 and len(json.loads(out)["basis"]) == closure_dim


def test_trace_contradictions():
    code, out, _ = run_cli(["trace", "--q", "2", "--p", "3", "--n", "2",
                            "--profile", "2:4"])
    assert code == 0
    d = json.loads(out)
    assert d["contradiction"] is True and d["contradiction_via"] == "claim1"

    code, out, _ = run_cli(["trace", "--q", "2", "--p", "3", "--n", "2",
                            "--profile", "1:1,2:3"])
    assert json.loads(out)["contradiction"] is True

    code, _, err = run_cli(["trace", "--q", "2", "--p", "3", "--n", "2",
                            "--profile", "2:3"])
    assert code == 2 and "sum" in err


@pytest.mark.parametrize("n", ["100000000", "10000000000"])
def test_trace_profile_far_from_q_to_the_n_exit_2(cli_child, n):
    code, out, err = cli_child(["trace", "--q", "2", "--p", "3", "--n", n,
                                "--profile", "2:4"])
    assert code == 2 and out == ""
    assert err == f"error: profile counts must sum to q^n = 2^{n}\n"


def test_trace_repeated_rank_exit_2():
    code, out, err = run_cli(["trace", "--q", "2", "--p", "3", "--n", "1",
                              "--profile", "1:2,1:2"])
    assert code == 2 and out == ""
    assert err.startswith("error: rank 1 appears twice") and "Traceback" not in err


@pytest.mark.parametrize("q", ["6", "12"])
def test_trace_q_not_a_prime_power_exit_2(q):
    # the profile sums to q^n, so only q's factors refuse the request, in
    # search's words
    code, out, err = run_cli(["trace", "--q", q, "--p", "2", "--n", "1",
                              "--profile", f"0:1,1:{int(q) - 1}"])
    assert (code, out, err) == (2, "", f"error: {q} is not a prime power\n")
    assert run_cli(["search", "--q", q, "--dim-u", "2", "--dim-v", "2",
                    "--n", "1"])[1:] == ("", err)


@pytest.mark.parametrize("profile", [",", " , ,", ""])
def test_trace_empty_profile_exit_2(profile):
    code, out, err = run_cli(["trace", "--q", "2", "--p", "3", "--n", "1",
                              "--profile", profile])
    assert (code, out, err) == (2, "", "error: empty profile\n")


@pytest.mark.parametrize("profile, message", [
    ("3", "profile entry is not rank:count: '3'"),
    ("2:4,4", "profile entry is not rank:count: '4'"),
    ("1" * 5000, "profile entry is not rank:count: "
                 "'111111111111111111111111'... (5000 characters)"),
    ("a:1", "profile rank is not a decimal integer: 'a'"),
    ("2:x", "profile count for rank 2 is not a decimal integer: 'x'"),
    ("0:" + "1" * 5000, "profile count for rank 0 has 5000 digits, more than "
                        f"the {sys.get_int_max_str_digits()} allowed"),
], ids=["no-colon", "no-colon-after-a-good-entry", "no-colon-5000-digits",
        "non-decimal-rank", "non-decimal-count", "count-past-the-digit-limit"])
def test_trace_malformed_profile_entry_exit_2(profile, message):
    code, out, err = run_cli(["trace", "--q", "2", "--p", "3", "--n", "2",
                              "--profile", profile])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("path, value", [
    (("basis", 0, "entries", 0, 0), 1.7),
    (("basis", 0, "entries", 0, 0), True),
    (("basis", 0, "entries", 0, 0), "1"),
    (("basis", 0, "rows"), 2.0),
    (("basis", 0, "cols"), "2"),
    (("dim_u",), 2.0),
    (("dim_v",), True),
    (("field", "p"), 2.9),
    (("field", "k"), 1.0),
])
def test_analyze_non_integer_value_exit_2(tmp_path, path, value):
    d = space_to_json(construct_regular_rep(field_make(2), 2))
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(d))
    code, out, err = run_cli(["analyze", str(bad)])
    assert code == 2 and out == ""
    assert "must be a JSON integer" in err and "Traceback" not in err


def test_analyze_non_integer_modulus_exit_2(tmp_path):
    d = space_to_json(construct_regular_rep(field_make(2), 2))
    d["field"] = {"p": 2, "k": 2, "modulus": [1, 1.0, 1]}
    d["basis"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(dumps(d))
    code, out, err = run_cli(["analyze", str(bad)])
    assert code == 2 and out == ""
    assert "modulus coefficient must be a JSON integer" in err


def test_search_exhaustive(space_file):
    code, out, _ = run_cli(["search", "--q", "2", "--dim-u", "2", "--dim-v", "2",
                            "--n", "2", "--mode", "exhaustive"])
    assert code == 0
    d = json.loads(out)
    assert d["spaces_examined"] == 35
    assert d["violations"] == []
    assert d["mrk_histogram"] == {"1": 9, "2": 2}


def test_search_has_no_deep_checks_flag():
    # the hyperplane property is a test of the closure (test_opspace.py), not
    # a search option
    code, out, err = run_cli(["search", "--q", "2", "--dim-u", "2", "--dim-v", "2",
                              "--n", "2", "--deep-checks"])
    assert code == 2 and out == ""
    assert err.startswith("usage: reflexff search") and "Traceback" not in err
    assert err.endswith("reflexff search: error: unrecognized arguments: --deep-checks\n")


@pytest.mark.parametrize("argv", [
    ["analyze", "s.json"], ["closure", "s.json"], ["mrk", "s.json"],
    ["census", "s.json", "g.json"], ["trace", "--q", "2", "--p", "2", "--n", "1", "--profile", "1:2"],
    ["search", "--q", "2", "--dim-u", "2", "--dim-v", "2", "--n", "2"],
    ["construct", "regular-rep", "--p", "2", "--n", "2"]])
def test_unknown_option_shows_its_subcommands_usage(argv):
    # after the subcommand it is the subcommand's option to refuse; before
    # it, the top level's
    code, out, err = run_cli(argv + ["--bogus"])
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith(f"usage: reflexff {argv[0]} [-h]")
    assert err.endswith(f"reflexff {argv[0]}: error: unrecognized arguments: --bogus\n")
    code, out, err = run_cli(["--bogus"] + argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: reflexff [-h]")
    assert err.endswith("reflexff: error: unrecognized arguments: --bogus\n")


def test_search_n1_all_reflexive():
    code, out, _ = run_cli(["search", "--q", "2", "--dim-u", "2", "--dim-v", "2",
                            "--n", "1"])
    d = json.loads(out)
    assert d["nonreflexive_count"] == 0
    assert d["reflexive_count"] == 15


def test_search_guard_exit_5():
    code, _, err = run_cli(["search", "--q", "2", "--dim-u", "3", "--dim-v", "3",
                            "--n", "2", "--guard", "10"])
    assert code == 5 and "guard" in err


@pytest.mark.parametrize("dims", [("40", "40", "800"), ("60", "60", "1800"),
                                  ("1000000", "1000000", "1")],
                         ids=["40x40", "60x60", "1e6x1e6"])
def test_search_slice_far_past_the_guard_exit_5(cli_child, dims):
    # counts of at least 2^640000 subspaces: refused by their shape, never formed
    dim_u, dim_v, n = dims
    code, out, err = cli_child(["search", "--q", "2", "--dim-u", dim_u,
                                "--dim-v", dim_v, "--n", n])
    assert code == 5 and out == ""
    assert f"{n}-dimensional subspaces of GF(2)^" in err and "Traceback" not in err


@pytest.mark.parametrize("shape, points, members, refused", [
    (("3", "2", "2", "2"), 4, 4, "closure"),
    (("2", "3", "1", "1"), 7, 1, "closure"),
    (("2", "1", "4", "3"), 1, 7, "rank scan"),
], ids=["gf3-2x2-n2", "gf2-3x1-n1", "gf2-1x4-n3"])
def test_random_search_guards_each_sample_walk(shape, points, members, refused):
    # each sample walks the projective points of GF(q)^dim_u and its own
    # projective members
    q, dim_u, dim_v, n = shape
    base = ["search", "--q", q, "--dim-u", dim_u, "--dim-v", dim_v, "--n", n,
            "--mode", "random", "--samples", "3", "--guard"]
    guard = max(points, members)
    code, out, err = run_cli(base + [str(guard - 1)])
    assert code == 5 and out == "" and err.startswith(f"error: {refused} walk")
    code, out, _ = run_cli(base + [str(guard)])
    assert code == 0 and json.loads(out)["spaces_examined"] == 3


def test_exhaustive_zero_space_walk_is_guarded():
    # the one space of an n = 0 slice walks the 7 points of GF(2)^3
    base = ["search", "--q", "2", "--dim-u", "3", "--dim-v", "1", "--n", "0",
            "--guard"]
    code, out, err = run_cli(base + ["6"])
    assert code == 5 and out == "" and err.startswith("error: closure walk")
    code, out, _ = run_cli(base + ["7"])
    assert code == 0 and json.loads(out)["spaces_examined"] == 1


def test_exhaustive_zero_space_past_the_guard_exit_5(cli_child):
    # a population of 1, but the zero space's closure walks 2^30 - 1 points
    code, out, err = cli_child(["search", "--q", "2", "--dim-u", "30",
                                "--dim-v", "1", "--n", "0"])
    assert code == 5 and out == ""
    assert err == ("error: closure walk over (2^30 - 1)/(2 - 1) points exceeds "
                   "the guard 10000000\n")


@pytest.mark.parametrize("q, p, profile", [("2", "20000", "0:1,1:1"),
                                           ("3", "100000000", "0:1,1:2")])
def test_trace_p_past_the_printable_exit_2(cli_child, q, p, profile):
    code, out, err = cli_child(["trace", "--q", q, "--p", p, "--n", "1",
                                "--profile", profile])
    assert code == 2 and out == ""
    assert err.startswith(f"error: p = {p} is too large") and "limit" not in err


def test_random_hyperplane_sample_past_the_guard_exit_5(cli_child):
    # one GF(2) hyperplane sample walks all 2^24 - 1 points of GF(2)^24
    code, out, err = cli_child(["search", "--q", "2", "--dim-u", "24",
                                "--dim-v", "2", "--n", "47", "--mode", "random",
                                "--samples", "1"])
    assert code == 5 and out == "" and "points exceeds the guard" in err


def test_random_draw_past_the_process_guard_exit_5(monkeypatch, cli_child):
    # one point and one member pass every walk guard, but the sample would
    # draw 10^8 entries first
    monkeypatch.setenv("REFLEXFF_GUARD", "1000")
    code, out, err = cli_child(["search", "--q", "2", "--dim-u", "1",
                                "--dim-v", "100000000", "--n", "1",
                                "--mode", "random", "--samples", "1"])
    assert (code, out) == (5, "")
    assert err == ("error: random sample of 1 x 100000000 entries exceeds "
                   "the guard 1000\n")
    # the bound is on entries: 1000 of them still run
    code, out, _ = cli_child(["search", "--q", "2", "--dim-u", "1",
                              "--dim-v", "1000", "--n", "1",
                              "--mode", "random", "--samples", "1"])
    assert code == 0 and json.loads(out)["spaces_examined"] == 1


@pytest.mark.parametrize("samples", [str(10**6), str(2**70)], ids=["10^6", "2^70"])
def test_random_sample_count_past_the_guard_exit_5(monkeypatch, cli_child, samples):
    # each 1 x 1 sample walks one point and one member; the sample count
    # alone passes the guard, and is refused before the first draw
    monkeypatch.setenv("REFLEXFF_GUARD", "2000")
    base = ["search", "--q", "2", "--dim-u", "1", "--dim-v", "1", "--n", "1",
            "--mode", "random", "--samples"]
    code, out, err = cli_child(base + [samples])
    assert (code, out) == (5, "")
    assert err == f"error: random search of {samples} samples exceeds the guard 2000\n"
    # --guard bounds it first; a count equal to the guard still runs
    code, out, err = cli_child(base + ["2000", "--guard", "1999"])
    assert (code, out) == (5, "") and err.startswith("error: random search of 2000")
    code, out, _ = cli_child(base + ["2000"])
    assert code == 0 and json.loads(out)["spaces_examined"] == 2000


def _wide_space(tmp_path, dim_v, basis):
    path = tmp_path / "wide.json"
    path.write_text(dumps({"field": {"p": 2, "k": 1}, "dim_u": 1,
                           "dim_v": dim_v, "basis": basis}))
    return str(path)


@pytest.mark.parametrize("case", ["analyze-12000", "search-12000", "closure-2^70"])
def test_closure_system_past_its_bound_exit_5(tmp_path, cli_child, case):
    # one point, but its condition rows (or the echelon, or a whole-space
    # basis) would hold (dim_u*dim_v)^2 entries: refused by the shape
    if case == "analyze-12000":
        e1 = [[1]] + [[0]] * 11999
        argv = ["analyze", _wide_space(tmp_path, 12000,
                                       [{"rows": 12000, "cols": 1, "entries": e1}])]
        dims = "1*12000"
    elif case == "search-12000":
        argv = ["search", "--q", "2", "--dim-u", "1", "--dim-v", "12000", "--n", "0"]
        dims = "1*12000"
    else:
        path = tmp_path / "huge.json"
        path.write_text(dumps({"field": {"p": 2, "k": 2}, "dim_u": 3,
                               "dim_v": 2**70, "basis": []}))
        argv = ["closure", str(path)]
        dims = f"3*{2**70}"
    code, out, err = cli_child(argv)
    assert (code, out) == (5, "")
    assert err == (f"error: closure system of ({dims})^2 entries exceeds the "
                   f"guard {1 << 24}\n")


def test_closure_system_bound_is_fixed(tmp_path, monkeypatch):
    # the bound is a constant, not REFLEXFF_GUARD: a 1x64 closure whose
    # system holds 64^2 entries runs under a guard of 100 (its 1 point)
    monkeypatch.setenv("REFLEXFF_GUARD", "100")
    code, out, _ = run_cli(["closure", _wide_space(tmp_path, 64, [])])
    assert code == 0 and json.loads(out)["dim_v"] == 64
    # and it admits exactly 2^24 entries, (1*4096)^2
    opspace._guard_system(1, 4096)
    with pytest.raises(GuardExceeded, match=r"\(1\*4097\)\^2 entries"):
        opspace._guard_system(1, 4097)


def test_whole_space_search_counts_one_subspace():
    # [m, m]_q = 1 is counted without forming m products of q^i - 1
    start = time.perf_counter()
    code, out, _ = run_cli(["search", "--q", "2", "--dim-u", "1", "--dim-v",
                            "2000", "--n", "2000"])
    assert code == 0 and json.loads(out)["population"] == "1"
    assert time.perf_counter() - start < 3


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_search_malformed_guard_env_exit_2(monkeypatch, raw):
    monkeypatch.setenv("REFLEXFF_GUARD", raw)
    code, out, err = run_cli(["search", "--q", "2", "--dim-u", "2", "--dim-v", "2",
                              "--n", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error: REFLEXFF_GUARD") and "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_search_jobs_below_one_exit_2(jobs):
    code, out, err = run_cli(["search", "--q", "2", "--dim-u", "2", "--dim-v", "2",
                              "--n", "2", "--jobs", jobs])
    assert code == 2 and out == ""
    assert err.startswith("error: jobs") and "Traceback" not in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_random_search_jobs_below_one_exit_2(jobs):
    code, out, err = run_cli(["search", "--q", "2", "--dim-u", "2", "--dim-v", "2",
                              "--n", "2", "--mode", "random", "--samples", "3",
                              "--jobs", jobs])
    assert code == 2 and out == ""
    assert err.startswith("error: jobs") and "Traceback" not in err


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
@pytest.mark.parametrize("dims", [("0", "2"), ("2", "0"), ("-1", "2")])
def test_search_dim_below_one_exit_2(mode, dims):
    code, out, err = run_cli(["search", "--q", "2", "--dim-u", dims[0],
                              "--dim-v", dims[1], "--n", "1", "--mode", mode,
                              "--samples", "3"])
    assert code == 2 and out == ""
    assert err.startswith("error: dim_u and dim_v") and "Traceback" not in err


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
@pytest.mark.parametrize("guard", ["0", "-5"])
def test_search_guard_below_one_exit_2(mode, guard):
    code, out, err = run_cli(["search", "--q", "2", "--dim-u", "2", "--dim-v", "2",
                              "--n", "2", "--mode", mode, "--samples", "3",
                              "--guard", guard])
    assert code == 2 and out == ""
    assert err.startswith("error: guard") and "Traceback" not in err


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_search_negative_n_exit_2(mode):
    code, out, err = run_cli(["search", "--q", "2", "--dim-u", "2", "--dim-v", "2",
                              "--n", "-1", "--mode", mode, "--samples", "3"])
    assert code == 2 and out == ""
    assert err.startswith("error: n must lie in") and "Traceback" not in err


def test_search_nonprimepower_q_exit_2():
    code, _, err = run_cli(["search", "--q", "6", "--dim-u", "2", "--dim-v", "2",
                            "--n", "1"])
    assert code == 2


@pytest.mark.parametrize("argv, field", [
    (["search", "--q", "1000000000000000003", "--dim-u", "2", "--dim-v", "2",
      "--n", "1"], None),
    (["analyze"], {"p": 1000000000000000003}),
    (["analyze"], {"p": 3, "k": 100000000}),
    # the profile sums to q^n, so only q refuses the request; 2^131 - 1 is
    # composite (263 divides it), and so are 10^6 and (2^61 - 1)(2^89 - 1)
    *(pytest.param(["trace", "--q", str(q), "--p", "2", "--n", "1",
                    "--profile", f"0:1,1:{q - 1}"], None, id=f"trace-{name}")
      for q, name in [(2**16 + 1, "2^16+1"), (3**50, "3^50"),
                      (2**127 - 1, "2^127-1"), ((2**89 - 1)**3, "(2^89-1)^3"),
                      (2**131 - 1, "2^131-1"), (10**6, "10^6"),
                      ((2**61 - 1) * (2**89 - 1), "(2^61-1)(2^89-1)")]),
])
def test_field_order_above_2_16_exit_2(tmp_path, argv, field):
    if field is not None:
        path = tmp_path / "space.json"
        path.write_text(dumps({"field": field, "dim_u": 1, "dim_v": 1, "basis": []}))
        argv = argv + [str(path)]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert "exceeds the supported 2^16" in err and "Traceback" not in err
    if argv[0] == "trace":
        assert run_cli(["search", "--q", argv[2], "--dim-u", "2", "--dim-v", "2",
                        "--n", "1"])[1:] == ("", err)


def test_deeply_nested_file_exit_2(space_file, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    for argv in (["analyze", str(deep)], ["census", space_file, str(deep)]):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert "nested too deep" in err and "Traceback" not in err


def test_construct_then_analyze_pipeline(tmp_path):
    out_path = str(tmp_path / "rep.json")
    code, _, _ = run_cli(["construct", "regular-rep", "--p", "2", "--n", "2",
                          "--output", out_path])
    assert code == 0
    with open(out_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["basis"][1]["entries"] == [[0, 1], [1, 1]]
    assert payload["_meta"]["params"] == {"family": "regular-rep", "p": 2, "n": 2}
    code, out, _ = run_cli(["analyze", out_path])
    d = json.loads(out)
    assert d["mrk"] == 2 and d["reflexive"] is False


def test_emitted_space_files_round_trip(tmp_path):
    from reflexff import load_space

    rep_path = str(tmp_path / "rep.json")
    run_cli(["construct", "regular-rep", "--p", "3", "--n", "2",
             "--output", rep_path])
    s = load_space(rep_path)
    closure_path = str(tmp_path / "closure.json")
    code, _, _ = run_cli(["closure", rep_path, "--output", closure_path])
    assert code == 0
    closure = load_space(closure_path)
    assert closure == s.reflexive_closure()
    # loading and re-emitting is stable
    from reflexff import space_to_json

    assert space_to_json(load_space(closure_path)) == space_to_json(closure)


def test_mrk_command(space_file):
    code, out, _ = run_cli(["mrk", space_file])
    d = json.loads(out)
    assert d["mrk"] == 2 and d["witness"] == [0, 1]


def test_stdout_is_pure_json(space_file):
    _, out, _ = run_cli(["analyze", space_file])
    json.loads(out)  # would raise on any non-JSON prefix/suffix
    assert out.endswith("\n")


def test_pretty_flag(space_file):
    code, out, _ = run_cli(["analyze", space_file, "--pretty"])
    assert code == 0
    assert "operator space analysis" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_analyze_pretty(space_file):
    code, out, _ = run_cli(["analyze", space_file, "--pretty"])
    assert code == 0
    assert out == "\n".join([
        "operator space analysis",
        "-----------------------",
        "                       q: 2",
        "                       p: 2",
        "                   dim_v: 2",
        "                       n: 2",
        "               reflexive: False",
        "             closure_dim: 4",
        "                     mrk: 2",
        "             mrk_witness: [0, 1]",
        "       rank_distribution: {'2': 3}",
        "                     lld: False",
    ]) + "\n"


def _search_lines(q, n, mode, population, samples, seed, rng, examined,
                  reflexive, hist, max_mrk, status):
    return [
        "search report",
        "-------------",
        f"                       q: {q}",
        "                       p: 2",
        "                   dim_v: 2",
        f"                       n: {n}",
        f"                    mode: {mode}",
        f"              population: {population}",
        f"                 samples: {samples}",
        f"                    seed: {seed}",
        f"                     rng: {rng}",
        "                   guard: 10000000",
        f"         spaces_examined: {examined}",
        f"         reflexive_count: {reflexive}",
        f"      nonreflexive_count: {examined - reflexive}",
        f"           mrk_histogram: {hist}",
        f"                 max_mrk: {max_mrk}",
        f" bound_2n_minus_3_status: {status}",
    ]


@pytest.mark.parametrize("args, lines", [
    (["--q", "3", "--n", "2", "--extremal"],
     _search_lines(3, 2, "exhaustive", 130, None, None, None, 130, 80,
                   {"1": 32, "2": 18}, 2, "not-applicable")),
    (["--q", "4", "--n", "3", "--mode", "random", "--samples", "8", "--seed", "5"],
     _search_lines(4, 3, "random", None, 8, 5, "python-mt19937", 8, 1,
                   {"1": 7}, 1, "holds")),
])
def test_search_pretty(args, lines):
    code, out, _ = run_cli(["search", "--dim-u", "2", "--dim-v", "2", *args,
                            "--pretty"])
    assert code == 0
    assert out == "\n".join(lines) + "\n"


def test_census_pretty(space_file, e11_file):
    code, out, _ = run_cli(["census", space_file, e11_file, "--pretty"])
    assert code == 0
    assert out == "\n".join([
        "coset census",
        "------------",
        "                       q: 2",
        "                       p: 2",
        "                       n: 2",
        "         incidence_count: 7",
        "            rank_profile: {'1': 3, '2': 1}",
        "                       r: 1",
        "                       m: 4",
        "   min_rank_multiplicity: 3",
        "               h0_coeffs: [0, 0]",
        "            nprime_lower: None",
        "            nprime_count: 0",
        "                coverage: 7 <= 7 -> True",
        "            nprime_floor: skipped: needs p >= 2n-1, a unique rank n-1 "
        "member, and all others of rank >= n",
    ]) + "\n"


_REQUESTS = [
    ["analyze", "s.json"],
    ["closure", "s.json"],
    ["mrk", "s.json"],
    ["census", "s.json", "g.json"],
    ["trace", "--q", "2", "--p", "3", "--n", "2", "--profile", "2:4"],
    ["search", "--q", "2", "--dim-u", "2", "--dim-v", "2", "--n", "2"],
    ["construct", "regular-rep", "--p", "2", "--n", "2"],
]


def test_requests_cover_every_subcommand():
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == [argv[0] for argv in _REQUESTS]


@pytest.mark.parametrize("argv", _REQUESTS, ids=lambda argv: argv[0])
def test_every_subcommand_takes_output_and_pretty(argv):
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    assert args.func is getattr(cli, f"cmd_{argv[0]}")
    assert (args.output, args.pretty) == (None, False)
    args = parser.parse_args([*argv, "--output", "out.json", "--pretty"])
    assert args.func is getattr(cli, f"cmd_{argv[0]}")
    assert (args.output, args.pretty) == ("out.json", True)


@pytest.fixture
def request_files(tmp_path, monkeypatch, space_file, e11_file):
    """Run in a directory holding the s.json and g.json that _REQUESTS name."""
    os.replace(space_file, tmp_path / "s.json")
    os.replace(e11_file, tmp_path / "g.json")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv", _REQUESTS, ids=lambda argv: argv[0])
def test_kept_parser_parses_as_a_fresh_one(argv, request_files):
    assert run_cli(["mrk", "s.json"])[0] == 0
    kept = cli._PARSER
    assert isinstance(kept, argparse.ArgumentParser)
    for args in [argv, [*argv, "--output", "out.json", "--pretty"]] * 2:
        assert vars(kept.parse_args(args)) == vars(cli.build_parser().parse_args(args))
    assert cli._PARSER is kept


@pytest.mark.parametrize("argv", _REQUESTS, ids=lambda argv: argv[0])
def test_repeated_requests_print_what_a_fresh_process_prints(
        argv, request_files, cli_child):
    for args in [[*argv, "--pretty"], argv]:
        first, second = run_cli(args), run_cli(args)
        assert first[0] == 0 and first[1] and first == second
    assert cli_child(argv) == first


def test_in_process_requests_share_no_state(request_files, tmp_path, monkeypatch):
    code, out, _ = run_cli(["analyze", "s.json", "--pretty"])
    assert code == 0 and out.startswith("operator space analysis\n")
    code, out, _ = run_cli(["analyze", "s.json"])
    assert code == 0 and json.loads(out)["n"] == 2

    assert run_cli(["mrk", "s.json", "--output", "mrk.json"]) == (0, "", "")
    code, out, _ = run_cli(["mrk", "s.json"])
    assert code == 0 and out == (tmp_path / "mrk.json").read_text(encoding="utf-8")

    code, out, err = run_cli(["analyze"])
    assert code == 2 and out == ""
    assert err.startswith("usage: reflexff analyze") and "required" in err
    code, out, err = run_cli(["mrk", "s.json"])
    assert code == 0 and json.loads(out)["mrk"] == 2 and err == ""

    helps = []
    for columns in ("40", "160"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = run_cli(["--help"])
        assert code == 0 and err == ""
        assert out == cli.build_parser().format_help()
        helps.append(out)
    narrow, wide = helps
    assert len(narrow.splitlines()) > len(wide.splitlines())


def test_main_builds_its_parser_once(request_files, monkeypatch):
    builds = []

    def counting_build():
        builds.append(1)
        return real_build()

    real_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_PARSER", None, raising=False)
    for argv in _REQUESTS[:5]:
        assert run_cli(argv)[0] == 0
    assert len(builds) == 1


def test_trace_pretty():
    code, out, _ = run_cli(["trace", "--q", "2", "--p", "3", "--n", "2",
                            "--profile", "1:1,2:3", "--pretty"])
    assert code == 0
    assert out == "\n".join([
        "counting-argument trace",
        "-----------------------",
        "                       q: 2",
        "                       p: 3",
        "                       n: 2",
        "                 profile: {'1': 1, '2': 3}",
        "         incidence_exact: 10",
        "              regime_met: True",
        "           contradiction: True",
        "       contradiction_via: coverage",
        "                  claim1: skipped: profile has a member of rank below n",
        "                coverage: 11 <= 10 -> False",
        "                  claim2: 3 > 2 -> True",
        "                  claim3: 4 <= 3 -> False",
        "         claim3_factored: 1/1 >= 4/3 -> False",
        "                   majo3: 10 <= 10 -> True",
        "                   mino3: 11 <= 10 -> False",
        "             minequality: 5 <= 4 -> False",
        "         final_reduction: 2 <= 1 -> False",
    ]) + "\n"


def test_version_embedded(space_file):
    from reflexff import __version__

    _, out, _ = run_cli(["analyze", space_file])
    assert json.loads(out)["meta"]["version"] == __version__


def test_theorem_violation_exit_10_and_artifact_dump(tmp_path, monkeypatch):
    import reflexff.cli as cli
    from reflexff import TheoremViolation, SearchParams, exhaustive_verify

    def boom(params):
        try:
            real = exhaustive_verify(SearchParams(field=field_make(2),
                                                  dim_u=2, dim_v=2, n=2))
        except TheoremViolation:  # pragma: no cover
            raise
        raise TheoremViolation("THEOREM VIOLATION: forced by test", real)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "exhaustive_verify", boom)
    code, _, err = run_cli(["search", "--q", "2", "--dim-u", "2", "--dim-v", "2",
                            "--n", "2"])
    assert code == 10
    assert "THEOREM VIOLATION" in err
    dumped = json.loads((tmp_path / "theorem_violation.json").read_text())
    assert dumped["spaces_examined"] == 35


def test_theorem_violation_dump_failure_goes_to_stderr(tmp_path, monkeypatch):
    import reflexff.cli as cli
    from reflexff import TheoremViolation, SearchParams, exhaustive_verify

    def boom(params):
        real = exhaustive_verify(SearchParams(field=field_make(2),
                                              dim_u=2, dim_v=2, n=2))
        raise TheoremViolation("THEOREM VIOLATION: forced by test", real)

    monkeypatch.setattr(cli, "exhaustive_verify", boom)
    monkeypatch.setattr(cli, "VIOLATION_DUMP",
                        str(tmp_path / "missing" / "theorem_violation.json"))
    code, out, err = run_cli(["search", "--q", "2", "--dim-u", "2", "--dim-v", "2",
                              "--n", "2"])
    assert code == 10 and out == ""
    first, _, report = err.partition("\n")
    assert first.startswith("THEOREM VIOLATION: cannot write")
    assert json.loads(report)["spaces_examined"] == 35
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("p,k", [(2, 16), (3, 10)])
def test_largest_fields_end_to_end(tmp_path, cli_child, p, k):
    # a fresh process builds all of GF(2^16) or GF(3^10) before it answers
    path = tmp_path / "s.json"
    path.write_text(dumps({
        "field": {"p": p, "k": k}, "dim_u": 1, "dim_v": 2,
        "basis": [{"rows": 2, "cols": 1, "entries": [[1], [p**k - 1]]}]}))
    for command in ("analyze", "mrk"):
        code, out, err = cli_child([command, str(path)])
        assert code == 0, err
        d = json.loads(out)
        assert d["mrk"] == 1
        assert d["meta"]["field"]["p"] == p and d["meta"]["field"]["k"] == k


def test_cli_import_leaves_the_pool_and_fractions_unloaded():
    # only a search with jobs > 1 imports multiprocessing, and only a trace
    # that reaches claim 3 imports fractions
    import subprocess

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("import sys, reflexff.cli; "
            "print(sorted({'multiprocessing', 'fractions'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
