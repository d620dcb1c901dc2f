import json

import pytest

from reflexff import (
    Matrix,
    construct_regular_rep,
    dumps,
    field_from_json,
    field_make,
    field_to_json,
    matrix_from_json,
    matrix_to_json,
    space_from_json,
    space_to_json,
)


def test_field_roundtrip():
    for f in (field_make(2), field_make(3), field_make(2, 2), field_make(3, 2)):
        assert field_from_json(field_to_json(f)) == f
    assert field_to_json(field_make(2)) == {"p": 2, "k": 1}
    assert field_to_json(field_make(2, 2)) == {"p": 2, "k": 2, "modulus": [1, 1, 1]}


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
