import contextlib
import io
import json
import os

import pytest

from reflexff import dumps, field_make, space_to_json, construct_regular_rep
from reflexff.cli import main


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
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


def test_trace_repeated_rank_exit_2():
    code, out, err = run_cli(["trace", "--q", "2", "--p", "3", "--n", "1",
                              "--profile", "1:2,1:2"])
    assert code == 2 and out == ""
    assert err.startswith("error: rank 1 appears twice") and "Traceback" not in err


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
])
def test_field_order_above_2_16_exit_2(tmp_path, argv, field):
    if field is not None:
        path = tmp_path / "space.json"
        path.write_text(dumps({"field": field, "dim_u": 1, "dim_v": 1, "basis": []}))
        argv = argv + [str(path)]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert "exceeds the supported 2^16" in err and "Traceback" not in err


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
