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

``dumps`` gives text identical to ``json.dumps(obj, sort_keys=True,
indent=2)`` plus a newline.  The stdlib's indenting encoder is its pure
Python one, so ``dumps`` encodes the types reports emit itself: dicts with
``str`` keys, lists, tuples, ``str``, ``int`` of exact type, ``True``,
``False`` and ``None``.  Any other value (a float, a bool or int subclass,
a non-``str`` key, any other type) or a ``RecursionError`` (deep nesting
or a circular reference) hands the whole object to the stdlib call, so
its output and its exceptions are the stdlib's.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str

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


def _key(d: dict, key: str, what: str):
    """``d[key]``, or a ValueError that names the missing key."""
    try:
        return d[key]
    except KeyError:
        raise ValueError(f"{what} is missing the key {key!r}") from None


def _array(v, what: str):
    """``v`` when it is a JSON array."""
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"{what} must be a JSON array")
    return v


def field_from_json(d: dict) -> FieldSpec:
    if not isinstance(d, dict):
        raise ValueError("field fragment must be an object")
    modulus = d.get("modulus")
    if modulus is not None:
        modulus = [_int(c, "modulus coefficient")
                   for c in _array(modulus, "modulus")]
    return field_make(_int(_key(d, "p", "field fragment"), "p"),
                      _int(d.get("k", 1), "k"), modulus)


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [list(m.row(i)) for i in range(m.rows)]}


def matrix_from_json(d: dict, field: FieldSpec) -> Matrix:
    if not isinstance(d, dict):
        raise ValueError("matrix fragment must be an object")
    rows = _int(_key(d, "rows", "matrix fragment"), "rows")
    cols = _int(_key(d, "cols", "matrix fragment"), "cols")
    body = _array(_key(d, "entries", "matrix fragment"), "entries")
    if len(body) != rows or any(len(_array(r, "entries row")) != cols
                                for r in body):
        raise ValueError("entries do not match the declared shape")
    flat = [e for r in body for e in r]
    # inline, not one _int call per entry; Matrix checks the range
    for e in flat:
        if type(e) is not int:
            _int(e, "entry")
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
    f = field_from_json(_key(d, "field", "space file"))
    dim_u = _int(_key(d, "dim_u", "space file"), "dim_u")
    dim_v = _int(_key(d, "dim_v", "space file"), "dim_v")
    basis = [matrix_from_json(m, f)
             for m in _array(_key(d, "basis", "space file"), "basis")]
    return OperatorSpace(f, dim_u, dim_v, basis)


_encode_int = int.__repr__
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _encode(o, pad: str, out: list) -> None:
    """Append the pieces of ``o``'s indented text to ``out``; ``pad`` is a
    newline and the indent of the line ``o`` starts on.  TypeError for any
    value outside the types listed in the module docstring."""
    t = type(o)
    if t is dict:
        if not o:
            out.append("{}")
            return
        inner = pad + "  "
        comma = "," + inner
        sep = "{" + inner
        for k in sorted(o):
            if type(k) is not str:
                raise TypeError
            v = o[k]
            tv = type(v)
            # scalar values are written with their key, without a call
            if tv is int:
                out.append(f"{sep}{_encode_str(k)}: {_encode_int(v)}")
            elif tv is str:
                out.append(f"{sep}{_encode_str(k)}: {_encode_str(v)}")
            elif v is None or tv is bool:
                out.append(f"{sep}{_encode_str(k)}: {_CONSTANTS[v]}")
            else:
                out.append(f"{sep}{_encode_str(k)}: ")
                _encode(v, inner, out)
            sep = comma
        out.append(pad + "}")
        return
    if t is list or t is tuple:
        if not o:
            out.append("[]")
            return
        inner = pad + "  "
        comma = "," + inner
        for v in o:
            if type(v) is not int:
                break
        else:
            # all plain ints (matrix entries, witnesses): one join
            out.append("[" + inner + comma.join(map(_encode_int, o)) + pad + "]")
            return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _encode(v, inner, out)
            sep = comma
        out.append(pad + "]")
        return
    if t is str:
        out.append(_encode_str(o))
    elif t is int:
        out.append(_encode_int(o))
    elif o is None or t is bool:
        out.append(_CONSTANTS[o])
    else:
        raise TypeError


def dumps(obj) -> str:
    """Canonical JSON text; byte-identical for equal values."""
    out = []
    try:
        _encode(obj, "\n", out)
    except (TypeError, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


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
