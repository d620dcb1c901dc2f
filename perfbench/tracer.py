"""Spans around reflexff's layer entry points, recorded from outside.

The tracer replaces each traced function at the place where callers look
it up (a module global, or a class attribute for methods) with a wrapper
that records one span: name, start, end and the index of the enclosing
span.  Spans are kept in flat arrays while the run lasts and folded into
per-layer figures at the end; the program's own files are never edited.

``opspace``, ``search`` and ``census`` bind ``rref_rows``, ``mat_kernel``
and ``mat_rank`` by name at import time, so those names are wrapped in
every module that holds them; patching ``matrix`` alone would miss them.

``field_make`` is not wrapped here: fields are cached per process, so in
the run process it only returns cached tables.  ``setup_probe.py`` times
it where the tables are built, in fresh child processes.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array

from reflexff import census, cli, kernels, matrix, opspace, search

MINIMUM_OPS = 2  # traced operations per run, however short ``--seconds`` is

# (span name, module, attribute) for module-level functions: every place
# that holds the name, and only those, so a lost entry point fails install
_FUNCTIONS = [
    ("kernels.row_reduce", kernels, "row_reduce"),
    ("search.exhaustive_verify", search, "exhaustive_verify"),
    ("census.census_report", census, "census_report"),
    ("census.census_report", cli, "census_report"),
    ("census.coset_make", census, "coset_make"),
    ("census.coset_make", cli, "coset_make"),
    ("census.incidence_count", census, "incidence_count"),
    ("serialize.dumps", cli, "dumps"),
    ("serialize.load_space", cli, "load_space"),
    ("cli.main", cli, "main"),
    ("matrix.rref_rows", matrix, "rref_rows"),
    ("matrix.rref_rows", opspace, "rref_rows"),
    ("matrix.rref_rows", search, "rref_rows"),
    ("matrix.mat_kernel", matrix, "mat_kernel"),
    ("matrix.mat_kernel", opspace, "mat_kernel"),
    ("matrix.mat_kernel", census, "mat_kernel"),
    ("matrix.mat_rank", matrix, "mat_rank"),
    ("matrix.mat_rank", opspace, "mat_rank"),
    ("matrix.mat_rank", census, "mat_rank"),
]

# (span name, class, method)
_METHODS = [
    ("matrix.matrix_new", matrix.Matrix, "__init__"),
    ("matrix.apply", matrix.Matrix, "apply"),
    ("opspace.space_new", opspace.OperatorSpace, "__init__"),
    ("opspace.closure", opspace.OperatorSpace, "reflexive_closure"),
    ("opspace.eval_space", opspace.OperatorSpace, "eval_space"),
    ("opspace.rank_scan", opspace.OperatorSpace, "_rank_scan"),
]


class Tracer:
    """Records spans while installed; ``fold`` turns them into figures."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._saved: list = []
        self._kept = (array("H"), array("l"), array("d"), array("d"))
        # row_reduce work: calls are spans; cells and pivots are counted here
        self.cells = 0
        self.rows = 0
        self.pivots = 0
        self.dumped_bytes = 0

    # -- patching --

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = [(span, owner, attr, vars(owner).get(attr))
                   for span, owner, attr in _FUNCTIONS + _METHODS]
        for span, owner, attr, original in targets:
            if original is None:
                raise RuntimeError(f"{owner.__name__}.{attr} is gone: "
                                   f"the {span} span cannot be recorded")
        for span, owner, attr, original in targets:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, span, fn):
        nid = self._ids.get(span)
        if nid is None:
            nid = self._ids[span] = len(self._names)
            self._names.append(span)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter
        count = None
        if span == "kernels.row_reduce":
            count = self._count_reduce
        elif span == "serialize.dumps":
            count = self._count_dumps

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_reduce(self, args, result):
        rows, cols = args[1], args[2]
        self.cells += rows * cols
        self.rows += rows
        self.pivots += len(result[1])

    def _count_dumps(self, args, result):
        self.dumped_bytes += len(result.encode("utf-8"))

    # -- folding --

    def take(self, scale: float, wall: float, sampling: float) -> dict:
        """Layer figures for the spans recorded since the last take.

        ``scale`` turns raw seconds into normalized ones; ``wall`` is the
        raw time of the traced operation and ``sampling`` the yardstick
        time spent inside its spans, which ``wall`` already leaves out.  The spans are then set
        aside (the last set is what ``write`` saves) and recording starts
        afresh at the next ``install``.
        """
        spans, root = self._fold()

        def calls(name):
            return spans.get(name, (0, 0.0))[0]

        def self_s(prefix):
            return scale * sum(s for name, (_, s) in spans.items()
                               if name == prefix or name.startswith(prefix + "."))

        out = {
            "kernels.row_reduce.calls": calls("kernels.row_reduce"),
            "kernels.row_reduce.cells": self.cells,
            "kernels.row_reduce.self_s": self_s("kernels.row_reduce"),
            "kernels.row_reduce.pivot_frac": self.pivots / self.rows if self.rows else 0.0,
            "matrix.self_s": self_s("matrix"),
            "matrix.matrix_new.calls": calls("matrix.matrix_new"),
            "matrix.apply.calls": calls("matrix.apply"),
            "search.self_s": self_s("search"),
            "census.census_report.self_s": self_s("census.census_report"),
            "census.coset_make.self_s": self_s("census.coset_make"),
            "census.incidence_count.calls": calls("census.incidence_count"),
            "serialize.dumps.self_s": self_s("serialize.dumps"),
            "serialize.dumps.bytes": self.dumped_bytes,
            "serialize.load_space.self_s": self_s("serialize.load_space"),
            "cli.main.self_s": self_s("cli.main"),
            "trace.uncovered_frac": 1 - (root - sampling) / wall,
        }
        for name in ("closure", "eval_space", "rank_scan", "space_new"):
            out[f"opspace.{name}.calls"] = calls(f"opspace.{name}")
            out[f"opspace.{name}.self_s"] = self_s(f"opspace.{name}")
        self._kept = (self._name, self._parent, self._start, self._end)
        self._name, self._parent = array("H"), array("l")
        self._start, self._end = array("d"), array("d")
        self.cells = self.rows = self.pivots = self.dumped_bytes = 0
        return out

    def _fold(self):
        """name -> (calls, self seconds), and the seconds inside top-level spans."""
        n = len(self._start)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        child = [0.0] * n
        root = 0.0
        for i in range(n):
            p = parents[i]
            if p < 0:
                root += ends[i] - starts[i]
            else:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self._names)
        self_s = [0.0] * len(self._names)
        for i in range(n):
            k = names[i]
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - child[i]
        return ({name: (calls[k], self_s[k]) for k, name in enumerate(self._names)},
                root)

    def measure(self, sampler, operation, deadline: float, untraced: float) -> dict:
        """Mean per-operation layer figures over traced operations run until
        the deadline, and ``trace.overhead_frac`` against ``untraced``, the
        median normalized time of an untraced operation.

        ``operation()`` returns (raw s, scale, yardstick s inside its spans).
        """
        per_op, norms = [], []
        while len(per_op) < MINIMUM_OPS or time.perf_counter() < deadline:
            sampler.forget()
            self.install()
            try:
                raw, scale, sampling = operation()
            finally:
                self.uninstall()
            per_op.append(self.take(scale, raw, sampling))
            norms.append(raw * scale)
        layers = {key: sum(d[key] for d in per_op) / len(per_op) for key in per_op[0]}
        layers["trace.overhead_frac"] = statistics.median(norms) / untraced - 1
        return layers

    def write(self, path):
        """Save the last taken set of spans.

        Format: one JSON header line (span names, span count, array type
        codes), then the name-index, parent-index, start and end arrays
        back to back in machine byte order.
        """
        arrays = self._kept
        header = {"names": self._names, "count": len(arrays[2]),
                  "arrays": ["name", "parent", "start", "end"],
                  "typecodes": [a.typecode for a in arrays]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for a in arrays:
                a.tofile(fh)
