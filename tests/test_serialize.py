import enum
import glob
import json
import math
import os
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflexff import (
    Matrix,
    OperatorSpace,
    SearchParams,
    analyze,
    census_report,
    construct_regular_rep,
    coset_make,
    dumps,
    exhaustive_verify,
    field_from_json,
    field_make,
    field_to_json,
    find_extremal,
    matrix_from_json,
    matrix_to_json,
    proof_trace,
    space_from_json,
    space_to_json,
)


def test_field_roundtrip():
    for f in (field_make(2), field_make(3), field_make(2, 2), field_make(3, 2)):
        assert field_from_json(field_to_json(f)) == f
    assert field_to_json(field_make(2)) == {"p": 2, "k": 1}
    assert field_to_json(field_make(2, 2)) == {"p": 2, "k": 2, "modulus": [1, 1, 1]}


@pytest.mark.parametrize("basis", [
    [(1, 0, 0, 1)],                # reflexive: its closure is its own basis
    [(1, 0, 0, 1), (0, 1, 1, 1)],  # GF(4) in 2x2 over GF(2): non-reflexive
])
def test_bool_entries_round_trip_as_ints(basis):
    # a space built with bools writes the file an int-built one writes,
    # that file loads, and both closures write the same bytes
    gf2 = field_make(2)
    spaces = [OperatorSpace(gf2, 2, 2, [Matrix(gf2, 2, 2, map(kind, m)) for m in basis])
              for kind in (bool, int)]
    text = dumps(space_to_json(spaces[0]))
    assert text == dumps(space_to_json(spaces[1]))
    assert space_from_json(json.loads(text)) == spaces[1]
    closures = [dumps(space_to_json(s.reflexive_closure())) for s in spaces]
    assert closures[0] == closures[1]


def test_matrix_roundtrip():
    f = field_make(3)
    m = Matrix(f, 2, 3, (0, 1, 2, 2, 0, 1))
    d = matrix_to_json(m)
    assert d == {"rows": 2, "cols": 3, "entries": [[0, 1, 2], [2, 0, 1]]}
    assert matrix_from_json(d, f) == m


def test_matrix_shape_mismatch_rejected():
    f = field_make(2)
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]}, f)
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [[1, 3]]}, f)


def test_space_roundtrip():
    s = construct_regular_rep(field_make(2), 2)
    d = space_to_json(s)
    again = space_from_json(d)
    assert again == s
    assert [m.entries for m in again.basis] == [m.entries for m in s.basis]


def test_space_roundtrip_ignores_meta_key():
    s = construct_regular_rep(field_make(3), 2)
    d = space_to_json(s)
    d["_meta"] = {"tool": "reflexff"}
    assert space_from_json(d) == s


def test_empty_basis_space_roundtrip():
    d = {"field": {"p": 2, "k": 1}, "dim_u": 2, "dim_v": 2, "basis": []}
    s = space_from_json(d)
    assert s.n == 0
    assert space_to_json(s) == d


def test_dumps_is_canonical():
    a = dumps({"b": 1, "a": [2, 3]})
    b = dumps({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 3], "b": 1}


def _stdlib(obj):
    """The stdlib's canonical text for ``obj``, or its exception as (type, message)."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _ours(obj):
    try:
        return dumps(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


# quotes, backslashes, control characters, non-ASCII text, a lone surrogate
_text = st.text(st.sampled_from(
    'az "\\/\n\r\t\b\f\x00\x1f\x7f\u00e9\u20ac\u2028\ud800\U0001f600'),
    max_size=6)
_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(-2**80, 2**80) | st.sampled_from([2**64, -2**64 - 1, 10**30])
            | _text)
_trees = st.recursive(
    _scalars,
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
                  | st.dictionaries(_text, kids, max_size=5)),
    max_leaves=20)


@settings(max_examples=150)
@given(_trees)
def test_dumps_matches_the_stdlib_encoder(tree):
    assert dumps(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


class _Level(enum.IntEnum):
    LOW = 1


def _circular():
    a = [1, 2]
    a.append({"again": a})
    return a


@pytest.mark.parametrize("obj, raises", [
    (1.5, None),
    ({"x": [0, float("nan")], "y": math.inf, "z": -math.inf}, None),
    ([1.0, {"a": 2.5}], None),
    ({1: "a", 10: "b", 2: "c"}, None),
    ({"outer": {3: 0, 1: 0}}, None),
    ({1: 0, "a": 0}, TypeError),
    ({True: 1, False: 0}, None),
    ({"level": _Level.LOW, "levels": [_Level.LOW, 2]}, None),
    ({"obj": object()}, TypeError),
    ([1, {"a": {1, 2}}], TypeError),
    (_circular(), ValueError),
])
def test_dumps_falls_back_to_the_stdlib(obj, raises):
    expected = _stdlib(obj)
    assert (expected[0] if isinstance(expected, tuple) else None) is raises
    assert _ours(obj) == expected


EXPECTED = os.path.join(os.path.dirname(__file__), "..", "perfbench", "expected")


def test_dumps_reencodes_the_pinned_search_reports():
    paths = sorted(glob.glob(os.path.join(EXPECTED, "exhaustive-*.json")))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert dumps(json.loads(text)) == text


# (entries of the second basis matrix, over GF(3), the parent's exact message):
# the JSON path checks every entry's type before any range
BAD_ENTRIES = [
    ([[0, 1], [1, 1.5]], "entry must be a JSON integer, got 1.5"),
    ([[0, 1], [True, 0]], "entry must be a JSON integer, got True"),
    ([[0, "1"], [1, 0]], "entry must be a JSON integer, got '1'"),
    ([[0, 1], [None, 0]], "entry must be a JSON integer, got None"),
    ([[0, -1], [1, 0]], "entry -1 outside [0, 3)"),
    ([[0, 1], [3, 0]], "entry 3 outside [0, 3)"),
    ([[1, 5], [7, -2]], "entry 5 outside [0, 3)"),
    ([[5, 1.5], ["x", 0]], "entry must be a JSON integer, got 1.5"),
]


@pytest.mark.parametrize("entries, message", BAD_ENTRIES)
def test_bad_entries_keep_their_messages(entries, message):
    gf3 = field_make(3)
    bad = {"rows": 2, "cols": 2, "entries": entries}
    with pytest.raises(ValueError) as exc:
        matrix_from_json(bad, gf3)
    assert str(exc.value) == message
    good = {"rows": 2, "cols": 2, "entries": [[1, 2], [0, 1]]}
    space = {"field": {"p": 3, "k": 1}, "dim_u": 2, "dim_v": 2,
             "basis": [good, bad]}
    with pytest.raises(ValueError) as exc:
        space_from_json(space)
    assert str(exc.value) == message


@pytest.mark.parametrize("value", [1.7, 1.0, True, False, "1", None])
def test_matrix_entries_must_be_json_integers(value):
    f = field_make(2)
    with pytest.raises(ValueError, match="entry must be a JSON integer"):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [[value, 0]]}, f)


@pytest.mark.parametrize("key, value", [("rows", 1.0), ("cols", True), ("rows", "1")])
def test_matrix_shape_must_be_json_integers(key, value):
    d = {"rows": 1, "cols": 2, "entries": [[1, 0]]}
    d[key] = value
    with pytest.raises(ValueError, match=f"{key} must be a JSON integer"):
        matrix_from_json(d, field_make(2))


@pytest.mark.parametrize("key, value", [("dim_u", 2.0), ("dim_v", True), ("dim_u", "2")])
def test_space_dims_must_be_json_integers(key, value):
    d = space_to_json(construct_regular_rep(field_make(2), 2))
    d[key] = value
    with pytest.raises(ValueError, match=f"{key} must be a JSON integer"):
        space_from_json(d)


@pytest.mark.parametrize("fragment, what", [
    ({"p": 2.9}, "p"),
    ({"p": True}, "p"),
    ({"p": "2"}, "p"),
    ({"p": 2, "k": 2.0}, "k"),
    ({"p": 2, "k": 2, "modulus": [1, True, 1]}, "modulus coefficient"),
    ({"p": 2, "k": 2, "modulus": [1, 1, "1"]}, "modulus coefficient"),
])
def test_field_values_must_be_json_integers(fragment, what):
    with pytest.raises(ValueError, match=f"{what} must be a JSON integer"):
        field_from_json(fragment)


def test_report_keys_are_the_dataclass_fields_in_order():
    gf2 = field_make(2)
    space = construct_regular_rep(gf2, 2)
    census = census_report(coset_make(space, Matrix(gf2, 2, 2, (1, 0, 0, 0))))
    trace = proof_trace(2, 3, 2, {1: 1, 2: 3})
    params = SearchParams(field=gf2, dim_u=2, dim_v=2, n=2)
    extremal = find_extremal(params)
    assert extremal.extremal is not None
    reports = [analyze(space), exhaustive_verify(params), extremal,
               census, *census.verdicts, trace, *trace.checks]
    for report in reports:
        assert list(report.to_dict()) == [f.name for f in fields(report)]
