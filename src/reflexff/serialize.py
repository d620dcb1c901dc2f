"""JSON encoding and decoding for fields, matrices, and operator spaces.

The formats are stable contracts:

* field:  {"p": 2, "k": 2, "modulus": [1, 1, 1]}   (modulus omitted for k=1)
* matrix: {"rows": R, "cols": C, "entries": [[...], ...]}  row-major rows
* space:  {"field": {...}, "dim_u": P, "dim_v": V, "basis": [matrix, ...]}

Entries are integer element encodings in [0, q); every number in a
fragment must be a JSON integer (a float, bool or string raises
ValueError).  Report quantities that can outgrow 53-bit consumers are
serialized as decimal strings.  Emitted JSON is canonical: sorted keys,
two-space indent, trailing newline.
"""

from __future__ import annotations

import json

from .field import FieldSpec, field_make
from .matrix import Matrix
from .opspace import OperatorSpace


def field_to_json(f: FieldSpec) -> dict:
    out = {"p": f.p, "k": f.k}
    if f.modulus is not None:
        out["modulus"] = list(f.modulus)
    return out


def _int(v, what: str) -> int:
    """``v`` when it is a JSON integer; never coerces."""
    if type(v) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {v!r}")
    return v


def field_from_json(d: dict) -> FieldSpec:
    if not isinstance(d, dict):
        raise ValueError("field fragment must be an object")
    modulus = d.get("modulus")
    if modulus is not None:
        modulus = [_int(c, "modulus coefficient") for c in modulus]
    return field_make(_int(d["p"], "p"), _int(d.get("k", 1), "k"), modulus)


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [list(m.row(i)) for i in range(m.rows)]}


def matrix_from_json(d: dict, field: FieldSpec) -> Matrix:
    if not isinstance(d, dict):
        raise ValueError("matrix fragment must be an object")
    rows, cols = _int(d["rows"], "rows"), _int(d["cols"], "cols")
    body = d["entries"]
    if len(body) != rows or any(len(r) != cols for r in body):
        raise ValueError("entries do not match the declared shape")
    flat = [_int(e, "entry") for r in body for e in r]
    return Matrix(field, rows, cols, flat)


def space_to_json(s: OperatorSpace) -> dict:
    return {
        "field": field_to_json(s.field),
        "dim_u": s.dim_u,
        "dim_v": s.dim_v,
        "basis": [matrix_to_json(m) for m in s.basis],
    }


def space_from_json(d: dict) -> OperatorSpace:
    if not isinstance(d, dict):
        raise ValueError("space file must hold a JSON object")
    f = field_from_json(d["field"])
    dim_u, dim_v = _int(d["dim_u"], "dim_u"), _int(d["dim_v"], "dim_v")
    basis = [matrix_from_json(m, f) for m in d["basis"]]
    return OperatorSpace(f, dim_u, dim_v, basis)


def dumps(obj) -> str:
    """Canonical JSON text; byte-identical for equal values."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deep") from None


def load_space(path: str) -> OperatorSpace:
    return space_from_json(load_json(path))


def load_matrix(path: str, field: FieldSpec) -> Matrix:
    return matrix_from_json(load_json(path), field)
